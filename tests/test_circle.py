import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cstrans.circle import (
    MAX_GRID_SIZE,
    CirclePoint,
    DiskPoint,
    NonConvergenceError,
    QuadratureGrid,
    circle_angles,
    grid_integrate,
    mobius_eval,
    mobius_lambda,
    refine_until_stable,
)


def circle_point_from_complex(z: complex, tol: float = 1e-9) -> CirclePoint:
    """Project a (numerically) unimodular number onto the circle."""
    if abs(abs(z) - 1.0) > tol:
        raise ValueError(f"not on the unit circle: {z!r}")
    return CirclePoint(cmath.phase(z))


def mob(a: complex) -> DiskPoint:
    return DiskPoint(a)


def mobius_compose_self(m: DiskPoint, z):
    """lambda_a(lambda_a(z)); equals z up to rounding since lambda_a is an involution."""
    return mobius_eval(m, mobius_eval(m, z))


class TestPoints:
    def test_disk_point_rejects_boundary(self):
        with pytest.raises(ValueError):
            DiskPoint(1.0)
        with pytest.raises(ValueError):
            DiskPoint(0.6 + 0.9j)
        DiskPoint(0.999999)  # interior is fine

    def test_circle_point_normalizes_angle(self):
        assert CirclePoint(2 * math.pi).angle == 0.0
        assert CirclePoint(-math.pi / 2).angle == pytest.approx(3 * math.pi / 2)
        p = CirclePoint(1.3)
        assert abs(abs(p.value) - 1.0) <= 1e-15

    def test_from_complex(self):
        p = circle_point_from_complex(1j)
        assert p.angle == pytest.approx(math.pi / 2)
        with pytest.raises(ValueError):
            circle_point_from_complex(0.5)


class TestMobius:
    def test_eval_examples(self):
        m = mob(0.5)
        assert mobius_eval(m, 0.0) == pytest.approx(0.5)
        assert mobius_eval(m, 0.5) == pytest.approx(0.0)
        assert mobius_eval(m, -1.0) == pytest.approx(1.0)

    def test_compose_self_examples(self):
        assert mobius_compose_self(mob(0.5), 0.3j) == pytest.approx(0.3j, abs=1e-12)
        assert mobius_compose_self(mob(0.0), 0.7 - 0.2j) == pytest.approx(0.7 - 0.2j)
        assert mobius_compose_self(mob(0.7 - 0.1j), 0.2 + 0.4j) == pytest.approx(
            0.2 + 0.4j, abs=1e-12
        )

    def test_involution_1000_random_pairs(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            a = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            z = rng.uniform(0, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(mobius_compose_self(mob(a), z) - z) <= 1e-12

    def test_boundary_preservation(self):
        rng = np.random.default_rng(102)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
        for a_mod in (0.0, 0.3, 0.95):
            w = mobius_eval(mob(a_mod * np.exp(0.7j)), z)
            assert np.max(np.abs(np.abs(w) - 1.0)) <= 1e-12

    def test_disk_preservation(self):
        rng = np.random.default_rng(103)
        z = rng.uniform(0, 0.999, 300) * np.exp(1j * rng.uniform(0, 2 * np.pi, 300))
        for a_mod in (0.0, 0.5, 0.95):
            w = mobius_eval(mob(a_mod), z)
            assert np.max(np.abs(w)) < 1.0

    @given(
        st.floats(0, 0.95),
        st.floats(0, 2 * math.pi),
        st.floats(0, 1),
        st.floats(0, 2 * math.pi),
    )
    def test_involution_property(self, am, aa, zm, za):
        a = am * np.exp(1j * aa)
        z = zm * np.exp(1j * za)
        assert abs(mobius_compose_self(mob(a), z) - z) <= 1e-12

    def test_rejects_outside_closed_disk(self):
        for z in (1.5, 1.0 + 2e-12, np.array([0.0, -1j * (1.0 + 2e-12)])):
            with pytest.raises(ValueError):
                mobius_eval(mob(0.5), z)
        mobius_eval(mob(0.5), 1.0 + 5e-13)

    def test_vanishing_denominator_is_an_arithmetic_error(self):
        # |a| < 1 and |z| <= 1 + 1e-12, but conj(a) z rounds to 1.
        a = mob(1.0 - 1.5e-15)
        z = 1.0 / a.value
        assert abs(1.0 - a.value * z) < 1e-15
        for arg in (z, np.array([0.0, z])):
            with pytest.raises(ArithmeticError, match="denominator"):
                mobius_eval(a, arg)

    def test_agrees_with_the_unchecked_map_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = mob(0.99 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()))
            z = rng.uniform(0, 1, 64) * np.exp(2j * np.pi * rng.uniform(size=64))
            assert np.array_equal(mobius_eval(a, z), mobius_lambda(a.value, z))
            assert mobius_eval(a, z[0]) == mobius_lambda(a.value, z[0])


class TestQuadrature:
    def test_grid_shape(self):
        g = QuadratureGrid(8)
        assert g.nodes.shape == (8,)
        assert g.weight * g.node_count == pytest.approx(1.0)
        assert np.max(np.abs(np.abs(g.nodes) - 1.0)) <= 1e-15

    def test_constant_integrates_to_one(self):
        g = QuadratureGrid(37)
        assert grid_integrate(g, np.ones(37)) == pytest.approx(1.0)

    def test_monomial_mean_zero(self):
        g = QuadratureGrid(64)
        assert abs(grid_integrate(g, g.nodes)) <= 1e-13

    def test_exactness_below_aliasing(self):
        # integral of t^j dm is 1 for j = 0 and 0 for 0 < |j| < N
        g = QuadratureGrid(16)
        for j in range(-15, 16):
            val = grid_integrate(g, g.nodes**j)
            assert abs(val - (1.0 if j == 0 else 0.0)) <= 5e-13

    def test_geometric_kernel_derived_value(self):
        # oracle: termwise partial sums of 1/(1 - 0.5 conj(t)) integrate to 1
        g = QuadratureGrid(64)
        oracle = sum(0.5**k * grid_integrate(g, np.conjugate(g.nodes) ** k) for k in range(60))
        assert abs(oracle - 1.0) <= 1e-12
        direct = grid_integrate(g, 1.0 / (1.0 - 0.5 * np.conjugate(g.nodes)))
        assert abs(direct - 1.0) <= 1e-12
        assert abs(direct - oracle) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            grid_integrate(QuadratureGrid(4), np.ones(5))

    @pytest.mark.parametrize("n", [512 << j for j in range(7)])
    def test_midpoint_nodes_are_the_odd_nodes_of_the_doubled_grid(self, n):
        mid = QuadratureGrid(n, midpoints=True)
        assert mid.node_count == n
        odd = np.ascontiguousarray(QuadratureGrid(2 * n).nodes[1::2])
        assert mid.nodes.tobytes() == odd.tobytes()

    def test_refine_until_stable(self):
        # Each doubling evaluates only the new midpoints: N nodes in all.
        for pole, want in ((0.9, 1024), (0.99, 8192), (0.999, 1 << 16)):
            seen = []

            def kernel_mean(grid):
                seen.append(grid.node_count)
                return grid_integrate(grid, 1.0 / (1.0 - pole * np.conjugate(grid.nodes)))

            value, used = refine_until_stable(kernel_mean)
            assert abs(value - 1.0) <= 1e-12
            assert used == want and sum(seen) == used

    def test_refine_reports_nonconvergence(self):
        # pole essentially on the circle: no budgeted grid can resolve it
        seen = []

        def stiff(grid):
            seen.append(grid.node_count)
            return grid_integrate(grid, 1.0 / (1.0 - (1 - 1e-9) * np.conjugate(grid.nodes)))

        with pytest.raises(NonConvergenceError):
            refine_until_stable(stiff)
        assert sum(seen) == MAX_GRID_SIZE

    def test_refinement_grids_are_built_once_and_read_only(self):
        grids = []
        for _ in range(2):
            refine_until_stable(lambda g: grids.append(g) or 1.0)
        assert len(grids) == 4
        assert grids[2].nodes is grids[0].nodes and grids[3].nodes is grids[1].nodes
        for grid in grids:
            with pytest.raises(ValueError):
                grid.nodes[0] = 0.0
        with pytest.raises(ValueError):
            QuadratureGrid(8).nodes[0] = 0.0

    def test_circle_angles(self):
        assert np.allclose(circle_angles(4), [0, math.pi / 2, math.pi, 3 * math.pi / 2])
        with pytest.raises(ValueError):
            circle_angles(0)
