import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import sample_unit_ball, sampled_peak_40
from cstrans import disk_algebra
from cstrans.disk_algebra import (
    DiskAlgebraPoly,
    certified_sup,
    certify_sup_norm,
    coefficient_sum_bound,
    default_sample_count,
    make_poly,
    monomial,
    poly_degree,
    poly_eval,
)


def dense_grid_max(coeffs, factor=10):
    n = factor * default_sample_count(poly_degree(coeffs))
    t = np.exp(2j * np.pi * np.arange(n) / n)
    return float(np.max(np.abs(poly_eval(coeffs, t))))


def refined_sup(coeffs, factor=10):
    """sup |h| on the circle: the best node of a dense grid, then a golden-
    section search for the peak of |h| within one grid spacing of it."""
    n = factor * default_sample_count(poly_degree(coeffs))
    k = int(np.argmax(np.abs(poly_eval(coeffs, np.exp(2j * np.pi * np.arange(n) / n)))))
    mod = lambda x: abs(poly_eval(coeffs, complex(math.cos(x), math.sin(x))))  # noqa: E731
    lo, hi = 2 * math.pi * (k - 1) / n, 2 * math.pi * (k + 1) / n
    ratio = (math.sqrt(5) - 1) / 2
    for _ in range(80):
        x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if mod(x1) < mod(x2):
            lo = x1
        else:
            hi = x2
    return max(mod(lo), mod(hi), mod(2 * math.pi * k / n))


class TestEval:
    def test_examples(self):
        assert poly_eval([1.0], 0.3 + 0.4j) == pytest.approx(1.0)
        assert poly_eval([0.0, 1.0], 1j) == pytest.approx(1j)
        assert poly_eval([1.0, 2.0, 1.0], 1.0) == pytest.approx(4.0)

    def test_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            poly_eval([1.0, 1.0], 1.1)
        for z in (1.0 + 2e-12, np.array([0.0, -1j * (1.0 + 2e-12)])):
            with pytest.raises(ValueError, match="closed unit disk"):
                poly_eval(make_poly([1.0, 1.0]), z)
        poly_eval([1.0, 1.0], 1.0 + 5e-13)


class TestCertification:
    def test_constant_is_exact(self):
        assert certify_sup_norm([3 - 4j], 256) == pytest.approx(5.0)

    def test_identity_at_64_samples(self):
        # |z| is 1 at every sample; only the degree correction remains
        oracle = 1.0 / math.sqrt(1.0 - (math.pi / 64) ** 2 / 2)
        assert certify_sup_norm([0.0, 1.0], 64) == pytest.approx(oracle, abs=1e-15)
        assert oracle == pytest.approx(1.0006, abs=1e-4)

    def test_one_plus_z(self):
        got = certify_sup_norm([1.0, 1.0], 1024)
        assert 2.0 <= got <= 2.0 / (1.0 - math.pi / 1024)
        assert got <= 2.0 * 1.0031

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            certify_sup_norm([0.0, 0.0, 0.0, 1.0], 9)

    def test_soundness_on_random_polynomials(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = int(rng.integers(0, 33))
            coeffs = rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)
            h = make_poly(coeffs)
            assert dense_grid_max(coeffs) <= h.certified_sup + 1e-13

    def test_soundness_when_the_peak_falls_between_nodes(self):
        # ((1 + e^{i phi} z)/2)^d peaks at 1, at angle -phi; with phi = pi/N
        # that is midway between two nodes, the worst place for sampling.
        for d in range(1, 65):
            for n in (math.floor(math.pi * d) + 1, 64 * d, 128 * d):
                coeffs = [math.comb(d, k) * np.exp(1j * k * math.pi / n) / 2**d for k in range(d + 1)]
                assert certify_sup_norm(coeffs, n) >= refined_sup(coeffs), (d, n)

    def test_tightness_factor(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = int(rng.integers(1, 33))
            coeffs = rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)
            n = 64 * d
            cert = certify_sup_norm(coeffs, n)
            assert cert <= dense_grid_max(coeffs) / (1.0 - d * math.pi / n) + 1e-12
            assert cert <= dense_grid_max(coeffs) * 1.052

    @given(st.floats(0.01, 50), st.floats(0, 2 * math.pi), st.integers(0, 10**6))
    def test_scaling(self, mag, phase, cseed):
        rng = np.random.default_rng(cseed)
        coeffs = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        alpha = mag * np.exp(1j * phase)
        base = certify_sup_norm(coeffs, 512)
        scaled = certify_sup_norm(alpha * coeffs, 512)
        assert scaled == pytest.approx(abs(alpha) * base, rel=1e-14)

    def test_trailing_zeros_do_not_inflate_degree(self):
        assert certify_sup_norm([2.0, 0.0, 0.0], 256) == pytest.approx(2.0)


EPS = 2.0**-52


def assert_matches_the_40_digit_bound(row, sample_count: int) -> None:
    """The certificate is the 40-digit sampled peak over sqrt(1 - (d pi/N)^2 / 2)
    within a relative 1e-14, and is sound: at least that bound less 8 units
    of rounding in sum |c_k|, times the same factor."""
    cert = certify_sup_norm(row, sample_count)
    with mpmath.workdps(40):
        factor = 1 / mpmath.sqrt(1 - (poly_degree(row) * mpmath.pi / sample_count) ** 2 / 2)
        want = sampled_peak_40(row, sample_count) * factor
    if want == 0:
        assert cert == 0.0
        return
    assert abs(cert - want) <= 1e-14 * want, (poly_degree(row), sample_count)
    assert cert >= want - 8 * EPS * float(np.abs(row).sum()) * factor, (poly_degree(row), sample_count)


class TestCoefficientArrays:
    def test_each_row_matches_the_40_digit_sampled_peak(self):
        # Rows of mixed degree (and so of mixed default sample counts), with
        # zero rows and trailing zeros.
        rng = np.random.default_rng(5)
        for _ in range(200):
            row = np.zeros(13, dtype=complex)
            d = int(rng.integers(-1, row.size))  # -1: a zero row
            row[: d + 1] = rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)
            assert_matches_the_40_digit_bound(row, 1024)
            n = default_sample_count(poly_degree(row))
            assert certified_sup(row) == min(certify_sup_norm(row, n), float(np.abs(row).sum()))

    @pytest.mark.parametrize(
        "d, n",
        [(12, 41), (12, 1031), (5, 320), (12, 768), (12, 38), (318, 1000)],
        ids=["prime-41", "prime-1031", "64d-320", "64d-768", "d-below-n/pi-38", "d-below-n/pi-1000"],
    )
    def test_awkward_sample_counts(self, d, n):
        # Prime and non-power-of-two FFT lengths, and degrees just below N/pi.
        assert math.pi * d < n
        rng = np.random.default_rng(d * n)
        row = rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)
        assert_matches_the_40_digit_bound(row, n)

    def test_trailing_zeros_beyond_the_sample_count(self):
        rng = np.random.default_rng(6)
        row = np.zeros(100, dtype=complex)
        row[:6] = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        assert_matches_the_40_digit_bound(row, 17)
        assert certify_sup_norm(row, 17) == certify_sup_norm(row[:6], 17)

    def test_samples_are_the_values_at_the_nodes(self):
        # Sample k is h(exp(2 pi i k/N)), not its conjugate node's value
        # and not scaled by 1/N.
        rng = np.random.default_rng(7)
        for d, n in ((6, 16), (6, 23), (1, 4)):
            coeffs = rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)
            got = disk_algebra.circle_samples(coeffs, n)
            assert got.shape == (n,)
            with mpmath.workdps(40):
                poly = [mpmath.mpc(c) for c in coeffs[::-1]]
                want = [mpmath.polyval(poly, mpmath.expjpi(mpmath.mpf(2 * k) / n)) for k in range(n)]
            scale = float(np.abs(coeffs).sum())
            assert max(abs(g - w) for g, w in zip(got, want)) <= 4 * EPS * scale

    def test_no_horner_pass_is_taken(self, monkeypatch):
        row = np.array([0.5, 0.25j, -0.25, 0.0])
        want = (certify_sup_norm(row, 64), certified_sup(row), make_poly(row).certified_sup)

        def refuse(*args):
            raise AssertionError("a sup-norm certificate took a Horner pass")

        monkeypatch.setattr(disk_algebra, "horner", refuse)
        assert (certify_sup_norm(row, 64), certified_sup(row), make_poly(row).certified_sup) == want

    def test_empty_input_is_rejected(self):
        for empty in ([], np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0))):
            with pytest.raises(ValueError, match="nonempty"):
                certified_sup(empty)
        for stack in (np.ones((2, 2)), [[1.0], [2.0]]):
            with pytest.raises(ValueError, match="nonempty 1-d"):
                certified_sup(stack)
        with pytest.raises(ValueError, match="nonempty 1-d"):
            poly_degree(np.ones((2, 2)))

    def test_arrays_are_converted_once(self):
        arr = np.array([1.0, 2.0j, 0.5])
        assert disk_algebra._as_coeff_array(arr) is arr
        assert disk_algebra._as_coeff_array(c for c in (1, 2)).tolist() == [1, 2]


class TestPolyType:
    def test_certificate_never_exceeds_coefficient_sum(self):
        h = make_poly([0.0, 1.0])
        assert h.certified_sup <= 1.0 + 1e-15
        with pytest.raises(ValueError):
            DiskAlgebraPoly((1.0, 1.0), 2.5)

    def test_monomial_certificate_is_exactly_one(self):
        for m in (0, 1, 7):
            assert monomial(m).certified_sup == 1.0


class TestSampler:
    def test_deterministic_in_seed(self):
        a = sample_unit_ball(5, 42)
        b = sample_unit_ball(5, 42)
        assert a.coeffs == b.coeffs
        assert a.certified_sup == b.certified_sup
        c = sample_unit_ball(5, 43)
        assert c.coeffs != a.coeffs

    def test_lands_in_unit_ball(self):
        for seed in range(30):
            h = sample_unit_ball(seed % 9, seed)
            assert h.certified_sup <= 1.0
            assert dense_grid_max(h.coeffs) <= h.certified_sup + 1e-13

    def test_degree_zero_scales_to_unit_modulus(self):
        h = sample_unit_ball(0, 7)
        assert abs(abs(h.coeffs[0]) - 1.0) <= 1e-15
