import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import cauchy_eval, monomial_pushforward
from cstrans.measures import (
    AtomicMeasure,
    atomic_measure,
    measure_from_obj,
    measure_to_obj,
    point_mass,
    taylor_coeffs,
    tv_norm,
)


def random_measure(rng, max_atoms=4) -> AtomicMeasure:
    k = int(rng.integers(1, max_atoms + 1))
    angles = rng.uniform(0, 2 * math.pi, k)
    weights = rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
    weights[np.abs(weights) < 1e-3] = 1.0
    return atomic_measure(list(zip(angles, weights)))


class TestConstruction:
    def test_merges_near_duplicates(self):
        mu = atomic_measure([(0.0, 1.0), (1e-13, 2.0), (1.0, 3.0)])
        assert len(mu.atoms) == 2
        assert mu.atoms[0][1] == pytest.approx(3.0)

    def test_merge_wraps_around(self):
        mu = atomic_measure([(1e-13, 1.0), (2 * math.pi - 1e-13, 1.0)])
        assert len(mu.atoms) == 1
        assert mu.atoms[0][1] == pytest.approx(2.0)

    def test_rejects_vanishing_measure(self):
        with pytest.raises(ValueError):
            atomic_measure([(0.0, 1.0), (1e-14, -1.0)])
        with pytest.raises(ValueError):
            atomic_measure([(0.0, 0.0)])

    def test_tv_examples(self):
        assert tv_norm(point_mass(0.0)) == 1.0
        assert tv_norm(atomic_measure([(0.0, 1.0), (math.pi, -1.0)])) == 2.0
        assert tv_norm(atomic_measure([(0.5, 3 + 4j)])) == pytest.approx(5.0)


class TestCauchyEval:
    def test_point_mass_values(self):
        mu = point_mass(0.0)
        assert cauchy_eval(mu, 0.0) == pytest.approx(1.0)
        assert cauchy_eval(mu, 0.5) == pytest.approx(2.0)

    def test_two_atom_derived_value(self):
        mu = atomic_measure([(0.0, 0.5), (math.pi, 0.5)])
        got = cauchy_eval(mu, 0.6j)
        oracle = 0.5 / (1 - 0.6j) + 0.5 / (1 + 0.6j)
        assert got == pytest.approx(oracle, abs=1e-15)
        assert got == pytest.approx(1 / 1.36, abs=1e-12)

    def test_rejects_boundary(self):
        mu = point_mass(0.0)
        with pytest.raises(ValueError):
            cauchy_eval(mu, 1.0)
        with pytest.raises(ValueError):
            cauchy_eval(mu, np.array([0.2, 1.0 + 1e-9j]))

    def test_additive_in_the_measure(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m1, m2 = random_measure(rng), random_measure(rng)
            z = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            combined = atomic_measure(
                [(p.angle, w) for p, w in m1.atoms] + [(p.angle, w) for p, w in m2.atoms]
            )
            lhs = cauchy_eval(combined, z)
            rhs = cauchy_eval(m1, z) + cauchy_eval(m2, z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestTaylor:
    def test_examples(self):
        ones = taylor_coeffs(point_mass(0.0), 5)
        assert np.allclose(ones, np.ones(5))
        quarters = taylor_coeffs(point_mass(math.pi / 2), 4)
        assert np.allclose(quarters, [1, -1j, -1, 1j], atol=1e-12)
        half = atomic_measure([(0.0, 0.5), (math.pi, 0.5)])
        assert np.allclose(taylor_coeffs(half, 4), [1, 0, 1, 0], atol=1e-12)

    def test_count_validation(self):
        mu = point_mass(0.0)
        with pytest.raises(ValueError):
            taylor_coeffs(mu, 0)
        with pytest.raises(ValueError):
            taylor_coeffs(mu, (1 << 12) + 1)

    def test_series_consistency_tail_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            mu = random_measure(rng)
            z = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            for count in (5, 20, 60):
                coeffs = taylor_coeffs(mu, count)
                partial = np.polyval(coeffs[::-1], z)
                tail = 2 * tv_norm(mu) * 0.9**count / 0.1
                assert abs(cauchy_eval(mu, z) - partial) <= tail


class TestPushforward:
    def test_identity(self):
        mu = atomic_measure([(0.3, 1.0), (2.0, -0.5j)])
        assert monomial_pushforward(mu, 1) is mu

    def test_square_of_point_mass(self):
        nu = monomial_pushforward(point_mass(0.0), 2)
        angles = sorted(p.angle for p, _ in nu.atoms)
        assert angles == pytest.approx([0.0, math.pi])
        assert all(w == pytest.approx(0.5) for _, w in nu.atoms)
        # K_nu must equal K_mu(z^2): compare Taylor data against the dilation
        base = taylor_coeffs(point_mass(0.0), 25)
        dilated = np.zeros(50, dtype=complex)
        dilated[::2] = base
        assert np.max(np.abs(taylor_coeffs(nu, 50) - dilated)) <= 1e-12

    def test_square_of_point_mass_at_i(self):
        nu = monomial_pushforward(point_mass(math.pi / 2), 2)
        assert sorted(p.angle for p, _ in nu.atoms) == pytest.approx(
            [math.pi / 4, math.pi / 4 + math.pi]
        )
        base = taylor_coeffs(point_mass(math.pi / 2), 25)
        dilated = np.zeros(50, dtype=complex)
        dilated[::2] = base
        assert np.max(np.abs(taylor_coeffs(nu, 50) - dilated)) <= 1e-12

    @given(st.integers(1, 6), st.floats(0, 2 * math.pi), st.integers(0, 10**6))
    def test_tv_preserved(self, n, angle, wseed):
        rng = np.random.default_rng(wseed)
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) or 1.0
        mu = atomic_measure([(angle, w), (angle + 1.0, 0.5)])
        nu = monomial_pushforward(mu, n)
        assert tv_norm(nu) == pytest.approx(tv_norm(mu), abs=1e-14)


class TestJson:
    def test_roundtrip(self):
        mu = atomic_measure([(0.0, 1.0), (2.5, -0.25 + 0.5j)])
        again = measure_from_obj(measure_to_obj(mu))
        assert [(p.angle, w) for p, w in again.atoms] == [
            (p.angle, w) for p, w in mu.atoms
        ]

    def test_bad_literals(self):
        with pytest.raises(ValueError, match="measure"):
            measure_from_obj({})
        with pytest.raises(ValueError, match=r"measure\[0\]"):
            measure_from_obj([{"re": 1.0}])
        with pytest.raises(ValueError, match=r"measure\[1\]"):
            measure_from_obj([{"angle": 0.0, "re": 1.0, "im": 0.0}, "nope"])
