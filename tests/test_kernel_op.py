import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from conftest import sample_unit_ball
from cstrans.circle import (
    CirclePoint,
    DiskPoint,
    NonConvergenceError,
    QuadratureGrid,
    circle_angles,
    grid_integrate,
    refine_until_stable,
)
from cstrans import disk_algebra, kernel_op, self_maps
from cstrans.disk_algebra import horner, make_poly, monomial
from cstrans.kernel_op import (
    limit_route,
    monomial_limit_evaluator,
    monomial_radial_limits,
    p_lambda_closed_form,
    p_phi_at,
    p_phi_at_stable,
    p_phi_exact_at,
    p_phi_radial_limit,
)
from cstrans.self_maps import (
    BlaschkeMap,
    ComposedMap,
    MobiusSelfMap,
    PolynomialMap,
    schwarz_factorize,
    self_map_eval,
)

ONE = CirclePoint(0.0)
MINUS_ONE = CirclePoint(math.pi)

QUADRATURE_MAPS = {
    "mobius": MobiusSelfMap(DiskPoint(0.3 - 0.4j)),
    "blaschke-one-zero": BlaschkeMap((DiskPoint(0.3),), 1j),
    "blaschke-two-zeros": BlaschkeMap((DiskPoint(0.3), DiskPoint(-0.4j)), 1j),
    "polynomial": PolynomialMap((0.25, 0.0, 0.5)),
    "composed": ComposedMap(DiskPoint(0.2 + 0.1j), PolynomialMap((0.1, 0.5, 0.0, 0.3j))),
}


def mobius(a) -> MobiusSelfMap:
    return MobiusSelfMap(DiskPoint(a))


def random_poly(rng, max_degree=16):
    d = int(rng.integers(0, max_degree + 1))
    return make_poly(rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1))


def checked_p_phi_at(phi, h, zeta, r, grid):
    """``p_phi_at`` on its shifted circles, with phi through the checked
    ``self_map_eval``, which runs a closed-disk check on every chunk.  h is
    evaluated by Horner at rho t, which ``poly_eval`` refuses as |rho t| > 1."""
    rho = 2.0 ** (1.0 / max(1, h.degree))
    t = grid.nodes
    samples = np.empty_like(t)
    for lo in range(0, t.size, kernel_op._CHUNK):
        part = t[lo : lo + kernel_op._CHUNK]
        denom = 1.0 - zeta.value * np.conjugate(self_map_eval(phi, (r / rho) * part))
        samples[lo : lo + kernel_op._CHUNK] = horner(h.coeffs, rho * part) / denom
    return grid_integrate(grid, samples)


def series_oracle(phi, h, zeta, r, grid_n=4096, tol=1e-13):
    """Independent route: expand the kernel as a geometric series in
    zeta * conj(phi(r t)) and integrate term by term with plain quadrature."""
    g = QuadratureGrid(grid_n)
    t = g.nodes
    w = np.conjugate(self_map_eval(phi, r * t))
    s = float(np.max(np.abs(w)))
    assert s < 1.0
    hs = np.array([complex(c) for c in (h.coeffs if hasattr(h, "coeffs") else h)])
    hvals = np.zeros_like(t)
    for c in hs[::-1]:
        hvals = hvals * t + c
    total = 0.0 + 0.0j
    zk = 1.0 + 0.0j
    wk = np.ones_like(t)
    k = 0
    while s**k / (1 - s) > tol and k < 5000:
        total += zk * grid_integrate(g, hvals * wk)
        wk = wk * w
        zk = zk * zeta.value
        k += 1
    return total


class TestClosedForm:
    def test_vanishing_base_point(self):
        h = make_poly([1.0])
        for r in (0.25, 1.0):
            assert p_lambda_closed_form(0.0, h, ONE, r) == pytest.approx(1.0)

    def test_constant_h_at_half(self):
        # -0.5/0.5 + 0.75/0.25 = 2, independent of r
        h = make_poly([1.0])
        for r in (0.3, 0.9, 1.0):
            assert p_lambda_closed_form(0.5, h, ONE, r) == pytest.approx(2.0, abs=1e-14)

    def test_linear_h_at_minus_one(self):
        h = make_poly([0.0, 1.0])
        got = p_lambda_closed_form(0.5, h, MINUS_ONE, 1.0)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_r_validation(self):
        with pytest.raises(ValueError):
            p_lambda_closed_form(0.5, make_poly([1.0]), ONE, 0.0)


class TestQuadrature:
    def test_rotation_kernel_integrates_to_one(self):
        h = make_poly([1.0])
        for angle in (0.0, 1.0, 3.0):
            got = p_phi_at(mobius(0.0), h, CirclePoint(angle), 0.5, QuadratureGrid(512))
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form_at_spec_point(self):
        got = p_phi_at_stable(mobius(0.5), make_poly([1.0]), ONE, 0.9)
        assert got == pytest.approx(2.0, abs=1e-10)

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            a = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            h = random_poly(rng)
            zeta = CirclePoint(rng.uniform(0, 2 * np.pi))
            r = rng.uniform(0.05, 0.99)
            closed = p_lambda_closed_form(a, h, zeta, r)
            quad = p_phi_at_stable(mobius(a), h, zeta, r)
            assert abs(closed - quad) <= 1e-10 * max(1.0, abs(closed))

    def test_requires_r_inside(self):
        for r in (0.0, -0.5, 1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="0 < r < 1"):
                p_phi_at(mobius(0.1), make_poly([1.0]), ONE, r, QuadratureGrid(64))
        for zeta in (1.1, 0.5j, 0.0):
            with pytest.raises(ValueError, match="unit circle"):
                p_phi_at(mobius(0.1), make_poly([1.0]), zeta, 0.5, QuadratureGrid(64))

    @pytest.mark.parametrize("name", sorted(QUADRATURE_MAPS))
    def test_values_equal_the_checked_formulation_bit_for_bit(self, name):
        phi = QUADRATURE_MAPS[name]
        h = make_poly(np.random.default_rng(24).uniform(-1, 1, 7) + 0.5j)
        zeta = CirclePoint(2.1)
        for r in (0.5, 0.9, 0.999):
            for n in (512, 5000, 1 << 16):
                for midpoints in (False, True):
                    grid = QuadratureGrid(n, midpoints)
                    assert p_phi_at(phi, h, zeta, r, grid) == checked_p_phi_at(phi, h, zeta, r, grid)

    def test_chunks_take_no_closed_disk_pass(self, monkeypatch):
        phi, h = QUADRATURE_MAPS["polynomial"], make_poly([0.5, 0.25j])
        want = p_phi_at(phi, h, ONE, 0.9, QuadratureGrid(512))

        def refuse(z):
            raise AssertionError("the quadrature checked the closed disk")

        monkeypatch.setattr(disk_algebra, "require_closed_disk", refuse)
        monkeypatch.setattr(self_maps, "require_closed_disk", refuse)
        assert p_phi_at(phi, h, ONE, 0.9, QuadratureGrid(512)) == want

    def test_every_refinement_grid_is_unimodular(self):
        # So (r/rho) t lies in the disk for 0 < r < 1, which p_phi_at relies on.
        grids = []

        def never_stable(grid):
            grids.append(grid)
            return float(len(grids) % 2)

        with pytest.raises(NonConvergenceError):
            refine_until_stable(never_stable)
        want = [(512, False)] + [(512 << k, True) for k in range(7)]
        assert [(g.node_count, g.midpoints) for g in grids] == want
        for grid in grids:
            assert np.max(np.abs(np.abs(grid.nodes) - 1.0)) <= 4e-16

    def test_nested_refinement_matches_the_single_grid_rule(self):
        # The averaged midpoint rules equal one trapezoid rule on the final grid.
        rng = np.random.default_rng(23)
        sizes = set()
        for i in range(45):
            a = DiskPoint(rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            core = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
            poly = PolynomialMap(tuple(0.95 * core / np.sum(np.abs(core))))
            phi = (MobiusSelfMap(a), poly, ComposedMap(a, poly))[i % 3]
            h = random_poly(rng, 8)
            zeta = CirclePoint(rng.uniform(0, 2 * np.pi))
            r = (rng.uniform(0.05, 0.9), 0.99, 0.999)[i // 3 % 3]
            got, n = refine_until_stable(lambda g: p_phi_at(phi, h, zeta, r, g))
            want = p_phi_at(phi, h, zeta, r, QuadratureGrid(n))
            assert abs(got - want) <= 1e-14 * abs(want)
            sizes.add(n)
        assert min(sizes) <= 1024

    def test_nested_refinement_matches_the_single_grid_rule_on_the_largest_grid(self):
        # 1/(1 - s/t) has dm-integral 1, and its N-node rule is 1/(1 - s^N),
        # so for this s the doubling stops on the largest grid it allows.
        s = math.exp(-0.0012)

        def slow(grid):
            return grid_integrate(grid, 1.0 / (1.0 - s / grid.nodes))

        got, n = refine_until_stable(slow)
        assert n == 1 << 16
        want = slow(QuadratureGrid(n))
        assert abs(got - want) <= 1e-14 * abs(want)
        assert abs(got - 1.0) <= 1e-12


def _shifted_circle_cases(count, seed):
    """Seeded Möbius, polynomial and composed maps with |a| up to 0.999, h in
    the unit ball of degree 0 to 64, and r = 1 - 2^-k for k in [1, 20]."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        a = DiskPoint(0.999 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        poly = _unit_sum_core(rng, int(rng.integers(1, 5)), rng.uniform(0.3, 1.0))
        phi = (MobiusSelfMap(a), poly, ComposedMap(a, poly))[i % 3]
        h = sample_unit_ball(int(rng.integers(0, 65)), int(rng.integers(1 << 30)))
        yield phi, h, CirclePoint(rng.uniform(0, 2 * np.pi)), 1.0 - 2.0 ** -rng.uniform(1, 20)


class TestShiftedCircles:
    def test_stable_values_match_the_exact_route_within_8192_nodes(self, monkeypatch):
        # On the unit circle the rule converges like r^N, so r near 1 needs
        # far more nodes; on the shifted circles like (r/rho)^N.
        sizes = []

        def recorded(evaluate):
            value, n = refine_until_stable(evaluate)
            sizes.append(n)
            return value, n

        monkeypatch.setattr(kernel_op, "refine_until_stable", recorded)
        for phi, h, zeta, r in _shifted_circle_cases(300, 25):
            got = p_phi_at_stable(phi, h, zeta, r)
            want = p_phi_exact_at(phi, h, zeta, r)
            assert abs(got - want) <= 1e-12 * abs(want)
        assert len(sizes) == 300 and max(sizes) <= 8192


class TestSeriesRoute:
    def test_polynomial_vs_series_oracle(self):
        phi = PolynomialMap((0.0, 0.5))
        h = make_poly([0.0, 1.0])
        got = p_phi_at_stable(phi, h, ONE, 0.8)
        oracle = series_oracle(phi, h, ONE, 0.8)
        exact = p_phi_exact_at(phi, h, ONE, 0.8)
        assert abs(got - oracle) <= 1e-12
        assert abs(exact - oracle) <= 1e-12

    def test_polynomial_vs_quadrature_various(self):
        rng = np.random.default_rng(22)
        phi = PolynomialMap((0.25, 0.0, 0.5))
        for _ in range(10):
            h = random_poly(rng, max_degree=8)
            zeta = CirclePoint(rng.uniform(0, 2 * np.pi))
            r = rng.uniform(0.1, 0.95)
            quad = p_phi_at_stable(phi, h, zeta, r)
            exact = p_phi_exact_at(phi, h, zeta, r)
            assert abs(quad - exact) <= 1e-11 * max(1.0, abs(exact))

    def test_composed_vs_quadrature(self):
        rng = np.random.default_rng(23)
        _, psi = schwarz_factorize(PolynomialMap((0.25, 0.0, 0.5)))
        for _ in range(8):
            h = random_poly(rng, max_degree=6)
            zeta = CirclePoint(rng.uniform(0, 2 * np.pi))
            r = rng.uniform(0.1, 0.9)
            quad = p_phi_at_stable(psi, h, zeta, r)
            exact = p_phi_exact_at(psi, h, zeta, r)
            assert abs(quad - exact) <= 1e-11 * max(1.0, abs(exact))

    def test_no_route_for_blaschke_products(self):
        b = BlaschkeMap((DiskPoint(0.3), DiskPoint(-0.4j)), 1.0)
        with pytest.raises(ValueError):
            p_phi_exact_at(b, make_poly([1.0]), ONE, 0.5)


class TestRadialLimit:
    def test_mobius_dispatches_to_closed_form(self):
        h = make_poly([0.2, 0.4, -0.1j])
        for a in (0.0, 0.5, 0.3 - 0.2j):
            zeta = CirclePoint(1.1)
            assert p_phi_radial_limit(mobius(a), h, zeta) == p_lambda_closed_form(
                a, h, zeta, 1.0
            )

    def test_contraction_with_constant_h(self):
        got = p_phi_radial_limit(PolynomialMap((0.0, 0.5)), make_poly([1.0]), ONE)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_squaring_map_keeps_even_part(self):
        # kernel expansion: only even Fourier modes of h survive, dilated
        z2 = PolynomialMap((0.0, 0.0, 1.0))
        h = make_poly([0.1, 0.2, 0.3, 0.4, 0.5])
        for angle in (0.0, math.pi, 1.2):
            zeta = CirclePoint(angle)
            oracle = 0.1 + 0.3 * zeta.value + 0.5 * zeta.value**2
            assert abs(p_phi_radial_limit(z2, h, zeta) - oracle) <= 1e-12

    def test_factorized_identity_recovers_h(self):
        # psi from factorizing a Möbius map is the identity, whose kernel
        # operator reproduces h on the circle
        _, psi = schwarz_factorize(mobius(0.5))
        h = make_poly([0.3, -0.2, 0.5j])
        zeta = CirclePoint(2.0)
        assert abs(p_phi_radial_limit(psi, h, zeta) - h(zeta.value)) <= 1e-12

    def test_boundary_contact_without_route_reports_nonconvergence(self):
        b = BlaschkeMap((DiskPoint(0.3), DiskPoint(-0.4j)), 1.0)
        with pytest.raises(NonConvergenceError):
            p_phi_radial_limit(b, make_poly([0.0, 1.0]), ONE)

    def test_route_labels(self):
        assert limit_route(mobius(0.2)) == "closed-form"
        assert limit_route(PolynomialMap((0.0, 0.0, 1.0))) == "series"
        assert limit_route(BlaschkeMap((DiskPoint(0.1), DiskPoint(0.2)), 1.0)) == "quadrature-sweep"


class TestMonomialLimits:
    def test_matches_per_monomial_calls(self):
        zeta = CirclePoint(0.7)
        for phi in (mobius(0.4), PolynomialMap((0.25, 0.0, 0.5))):
            batch = monomial_radial_limits(phi, 6, zeta)
            singles = [p_phi_radial_limit(phi, monomial(m), zeta) for m in range(6)]
            assert np.max(np.abs(batch - np.array(singles))) <= 1e-12

    def test_sweep_converges_for_the_constant_monomial(self):
        # P_phi^r 1 (zeta) = 1/(1 - zeta conj(phi(0))) at every r, so the
        # sweep stops after two radii, even for a two-zero Blaschke product.
        b = BlaschkeMap((DiskPoint(0.3), DiskPoint(-0.4j)), 1.0)
        for angle in (0.0, 0.7, 2.2):
            zeta = CirclePoint(angle)
            got = monomial_radial_limits(b, 1, zeta)
            want = 1.0 / (1.0 - zeta.value * np.conjugate(b.at_zero()))
            assert got.shape == (1,)
            assert abs(got[0] - want) <= 1e-12

    def test_sweep_reports_nonconvergence_for_z(self):
        # The value of z moves by about 2^-k between radii, so the sweep
        # runs out of radii; its error names the last one.
        b = BlaschkeMap((DiskPoint(0.3), DiskPoint(-0.4j)), 1.0)
        message = (
            r"^radial sweep did not stabilize to 1e-09 by r = 1 - 2\^-24"
            r" \(boundary-contact map: limit not guaranteed\)$"
        )
        with pytest.raises(NonConvergenceError, match=message):
            monomial_radial_limits(b, 2, CirclePoint(0.7))

    def test_sweep_fails_on_products_of_two_to_four_zeros(self):
        # The value of z^m at radius r is r^m times its limit, which the
        # sweep cannot tell from r = 1 unless the limit nearly vanishes.
        rng = np.random.default_rng(25)
        message = r"^radial sweep did not stabilize to 1e-09 by r = 1 - 2\^-24 "
        for _ in range(200):
            zeros = tuple(DiskPoint(rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
                          for _ in range(int(rng.integers(2, 5))))
            b = BlaschkeMap(zeros, np.exp(1j * rng.uniform(0, 2 * np.pi)))
            with pytest.raises(NonConvergenceError, match=message):
                monomial_radial_limits(b, 3, CirclePoint(rng.uniform(0, 2 * np.pi)))

    def test_kept_failing_sweeps_miss_the_tolerance_by_a_margin(self):
        # The two products whose sweeps the benchmark counts as failing:
        # their last step is over ten times the sweep's tolerance.
        k_max = kernel_op._SWEEP_K_MAX
        for zeros, angle in (((0.3, -0.4j), 0.7), ((0.5j, -0.2), 2.2)):
            b = BlaschkeMap(tuple(map(DiskPoint, zeros)), 1.0)
            zeta = CirclePoint(angle)
            with pytest.raises(NonConvergenceError, match=r"by r = 1 - 2\^-24 "):
                monomial_radial_limits(b, 2, zeta)
            last, prev = (p_phi_at_stable(b, monomial(1), zeta, kernel_op._SWEEP_RADII[k])
                          for k in (k_max, k_max - 1))
            assert abs(last - prev) >= 10 * kernel_op._SWEEP_TOL


def _outer_matrix_and_core(phi):
    """A chain of ``ComposedMap``s over a polynomial as the Möbius map
    M(u) = (A u + B)/(C u + D), given as ((A, B), (C, D)), of its outer
    lambda layers, and the polynomial's coefficients, all in mpmath."""
    (a11, a12), (a21, a22) = (mpmath.mpc(1), mpmath.mpc(0)), (mpmath.mpc(0), mpmath.mpc(1))
    while isinstance(phi, ComposedMap):
        a = mpmath.mpc(phi.outer_a.value)
        # lambda_a(u) = (a - u)/(1 - conj(a) u) is the matrix ((-1, a), (-conj(a), 1)).
        a11, a12, a21, a22 = (-a11 - a12 * a.conjugate(), a11 * a + a12,
                              -a21 - a22 * a.conjugate(), a21 * a + a22)
        phi = phi.inner
    return ((a11, a12), (a21, a22)), [mpmath.mpc(c) for c in phi.coeffs]


def geometric_series_rows(phi, count, zetas):
    """The kernel values of 1, z, ..., z^(count-1) by the geometric series in
    powers of the core p, in mpmath at 40 digits.

    With w = conj(zeta), 1/(1 - w M(p)) = (C p + D)/(e + f p) for
    e = D - w B and f = C - w A, so F = (D G + C p G)/e with
    G = sum_k q^k p^k and q = -f/e, which is unimodular because
    1 - w M(u) vanishes on the circle.  The powers p^k are truncated to
    ``count`` coefficients, which decay like k^m |p(0)|^k, and the sum
    stops once every one of them is below 1e-30.  Row m is conj(F_m).
    """
    with mpmath.workdps(40):
        ((big_a, big_b), (big_c, big_d)), p = _outer_matrix_and_core(phi)

        def times_p(x):
            return [mpmath.fsum(p[j] * x[m - j] for j in range(min(m + 1, len(p)))) for m in range(count)]

        powers = [[mpmath.mpc(1)] + [mpmath.mpc(0)] * (count - 1)]
        while True:
            nxt = times_p(powers[-1])
            if max(abs(x) for x in nxt) < 1e-30:
                break
            powers.append(nxt)
            assert len(powers) < 5000
        rows = []
        for zeta in zetas.tolist():
            w = mpmath.mpc(zeta).conjugate()
            e, f = big_d - w * big_b, big_c - w * big_a
            q = -f / e
            g = [mpmath.mpc(0)] * count
            for row in reversed(powers):
                g = [q * gm + rm for gm, rm in zip(g, row)]
            rows.append([complex(((big_d * gm + big_c * pm) / e).conjugate())
                         for gm, pm in zip(g, times_p(g))])
        return np.array(rows, dtype=complex).reshape(-1, count)


def _unit_sum_core(rng, degree, total):
    c = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
    return PolynomialMap(tuple(total * c / np.sum(np.abs(c))))


class TestTaylorDivision:
    _rng = np.random.default_rng(44)
    _poly = _unit_sum_core(_rng, 3, 0.999)
    CASES = {
        # name: (map, count, number of points)
        "polynomial sup 0.999": (_poly, 65, 3),
        "(1+z)/2": (PolynomialMap((0.5, 0.5)), 33, 3),
        "z^2": (PolynomialMap((0.0, 0.0, 1.0)), 65, 4),
        "z^2 at 64 points": (PolynomialMap((0.0, 0.0, 1.0)), 9, 64),
        "z^3": (PolynomialMap((0.0, 0.0, 0.0, 1.0)), 65, 4),
        "lambda_a o z^2": (ComposedMap(DiskPoint(0.3 + 0.4j), PolynomialMap((0.0, 0.0, 1.0))), 33, 8),
        "identity core": (ComposedMap(DiskPoint(-0.6 + 0.2j), PolynomialMap((0.0, 1.0))), 17, 64),
        "composed sup 0.999": (ComposedMap(DiskPoint(-0.5j), _poly), 65, 3),
        "composed twice": (ComposedMap(DiskPoint(0.2 - 0.6j), ComposedMap(DiskPoint(0.4 + 0.1j),
                                                                           _unit_sum_core(_rng, 2, 0.8))), 33, 4),
        "count 1": (_unit_sum_core(_rng, 2, 0.9), 1, 5),
        "random polynomial": (_unit_sum_core(_rng, 1, 0.7), 24, 2),
        "random composed": (ComposedMap(DiskPoint(0.1 + 0.7j), _unit_sum_core(_rng, 3, 0.95)), 48, 2),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_rows_match_the_geometric_series_at_40_digits(self, name):
        phi, count, points = self.CASES[name]
        zetas = np.exp(1j * np.random.default_rng(len(name)).uniform(0, 2 * math.pi, points))
        got = monomial_limit_evaluator(phi, count)(zetas)
        want = geometric_series_rows(phi, count, zetas)
        assert got.shape == (points, count)
        for row, ref in zip(got, want):
            assert np.max(np.abs(row - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_a_constant_core_gives_the_constant_kernel(self):
        zetas = np.exp(1j * np.array([0.3, 2.0, 4.4]))
        for phi in (PolynomialMap((0.3 + 0.2j,)), ComposedMap(DiskPoint(0.5j), PolynomialMap((-0.4,)))):
            rows = monomial_limit_evaluator(phi, 5)(zetas)
            want = 1.0 / (1.0 - zetas * np.conjugate(phi.at_zero()))
            assert np.max(np.abs(rows[:, 0] - want)) <= 1e-15
            assert not rows[:, 1:].any()

    def test_trailing_zero_coefficients_change_nothing(self):
        zetas = np.exp(1j * np.array([0.1, 1.7, 5.0]))
        core = (0.1, 0.5 - 0.1j, 0.2)
        padded = core + (0.0, 0.0)
        for wrap in (lambda p: p, lambda p: ComposedMap(DiskPoint(0.3 - 0.3j), p)):
            rows = monomial_limit_evaluator(wrap(PolynomialMap(core)), 12)(zetas)
            assert np.array_equal(monomial_limit_evaluator(wrap(PolynomialMap(padded)), 12)(zetas), rows)

    def test_no_points_give_no_rows(self):
        limits = monomial_limit_evaluator(PolynomialMap((0.1, 0.5, 0.2)), 7)
        assert limits(np.array([], dtype=complex)).shape == (0, 7)

    def test_no_sup_norm_certificate_is_taken(self, monkeypatch):
        phi = ComposedMap(DiskPoint(0.2), PolynomialMap((0.1, 0.5, 0.2)))
        h = make_poly([0.5, 0.25j, -0.25])
        zeta = CirclePoint(1.3)
        want = monomial_radial_limits(phi, 3, zeta)

        def refuse(*args):
            raise AssertionError("the series route took a sup-norm certificate")

        monkeypatch.setattr(disk_algebra, "certify_sup_norm", refuse)
        assert np.array_equal(monomial_radial_limits(phi, 3, zeta), want)
        assert abs(p_phi_exact_at(phi, h, zeta) - np.dot(h.coeffs, want)) <= 1e-15


class TestBatchedEvaluator:
    MAPS = {
        "mobius": MobiusSelfMap(DiskPoint(0.3 + 0.4j)),
        "one-zero blaschke": BlaschkeMap((DiskPoint(0.2 - 0.5j),), complex(math.cos(0.7), math.sin(0.7))),
        "z^2": PolynomialMap((0.0, 0.0, 1.0)),
        "z^3": PolynomialMap((0.0, 0.0, 0.0, 1.0)),
        "polynomial": PolynomialMap((0.1, 0.5 + 0.1j, 0.2)),
        "composed": ComposedMap(DiskPoint(0.3 + 0.2j), PolynomialMap((0.1, 0.5, 0.2))),
    }

    @pytest.mark.parametrize("name", list(MAPS))
    def test_rows_equal_single_point_calls(self, name):
        phi = self.MAPS[name]
        rng = np.random.default_rng(7)
        angles = rng.uniform(0.0, 2 * math.pi, 64)
        zetas = np.array([CirclePoint(a).value for a in angles])
        for count in (1, 9, 33, 65):
            limits = monomial_limit_evaluator(phi, count)
            rows = limits(zetas)
            assert rows.shape == (64, count)
            for i in range(64):
                assert np.array_equal(limits(zetas[i : i + 1]), rows[i : i + 1])
            assert np.array_equal(monomial_radial_limits(phi, count, CirclePoint(angles[5])), rows[5])

    def test_two_zero_blaschke_still_raises_naming_the_radius(self):
        b = BlaschkeMap((DiskPoint(0.3), DiskPoint(-0.4j)), 1.0)
        limits = monomial_limit_evaluator(b, 2)
        with pytest.raises(NonConvergenceError, match=r"did not stabilize to 1e-09 by r = 1 - 2\^-24 "):
            limits(np.array([CirclePoint(0.7).value]))


class TestTriangleBounds:
    def test_termwise_bounds_for_unit_ball_h(self):
        rng = np.random.default_rng(31)
        for seed in range(100):
            h = sample_unit_ball(int(rng.integers(0, 9)), seed)
            a = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            zeta = CirclePoint(rng.uniform(0, 2 * np.pi))
            r = rng.uniform(0.1, 1.0)
            zv, am = zeta.value, abs(a)
            first = -a * h.coeffs[0] / (zv - a)
            denom = 1.0 - zv * np.conjugate(a)
            second = h(r * (a - zv) / denom) * (1 - am**2) / abs(denom) ** 2
            assert abs(first) <= am / (1 - am) + 1e-10
            assert abs(second) <= (1 - am**2) / (1 - am) ** 2 + 1e-10
            total = p_lambda_closed_form(a, h, zeta, r)
            assert abs(total - (first + second)) <= 1e-12 * max(1.0, abs(total))

    def test_sum_identity_on_modulus_grid(self):
        for x in np.linspace(0.0, 0.95, 100):
            lhs = x / (1 - x) + (1 - x**2) / (1 - x) ** 2
            rhs = (1 + 2 * x) / (1 - x)
            assert abs(lhs - rhs) <= 1e-12

    def test_r_continuity_with_derivative_bound(self):
        rng = np.random.default_rng(32)
        worst_ratio = 0.0
        for seed in range(20):
            h = sample_unit_ball(6, 100 + seed)
            a = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            zeta = CirclePoint(rng.uniform(0, 2 * np.pi))
            at_one = p_lambda_closed_form(a, h, zeta, 1.0)
            denom = 1.0 - zeta.value * np.conjugate(a)
            factor = (1 - abs(a) ** 2) / abs(denom) ** 2
            slope_cap = h.degree * h.certified_sup * factor
            for r in (0.9, 0.99, 0.999):
                diff = abs(p_lambda_closed_form(a, h, zeta, r) - at_one)
                assert diff <= slope_cap * (1 - r) + 1e-12
                if slope_cap > 0:
                    worst_ratio = max(worst_ratio, diff / ((1 - r) * slope_cap))
        # measured continuity constant, relative to the proven cap
        print(f"\nmeasured r-continuity constant ratio: {worst_ratio:.3f}")


# A sup-norm scan of P_phi h over the circle: the sharpness reference the
# tests below hold against the operator bound.

@dataclass(frozen=True)
class SupNormScan:
    """Grid maximum of |P_phi h| over the circle, plus one Newton polish."""

    grid_max: float
    grid_angle: float
    refined_max: float
    refined_angle: float


def p_phi_sup_scan(phi, h, zeta_grid_size=256) -> SupNormScan:
    if h.certified_sup > 1.0 + 1e-12:
        raise ValueError("h must be certified inside the unit ball")
    angles = circle_angles(zeta_grid_size)
    values = np.array(
        [abs(p_phi_radial_limit(phi, h, CirclePoint(a))) for a in angles]
    )
    best = int(np.argmax(values))  # first index wins ties
    grid_max = float(values[best])
    theta = float(angles[best])

    def mag2(t: float) -> float:
        return abs(p_phi_radial_limit(phi, h, CirclePoint(t))) ** 2

    delta = 1e-4
    g_minus, g_0, g_plus = mag2(theta - delta), grid_max**2, mag2(theta + delta)
    d1 = (g_plus - g_minus) / (2 * delta)
    d2 = (g_plus - 2 * g_0 + g_minus) / delta**2
    refined_angle = theta
    if d2 < 0:
        step = -d1 / d2
        spacing = 2 * math.pi / zeta_grid_size
        refined_angle = theta + float(np.clip(step, -spacing, spacing))
    refined = math.sqrt(mag2(refined_angle))
    if refined < grid_max:
        refined, refined_angle = grid_max, theta
    return SupNormScan(grid_max, theta, refined, refined_angle)


def p_phi_sup_norm(phi, h, zeta_grid_size=256) -> float:
    """max |P_phi h| over a zeta grid: a sound lower estimate of the sup-norm."""
    return p_phi_sup_scan(phi, h, zeta_grid_size).grid_max


class TestSupNorm:
    def test_rotation_case(self):
        assert p_phi_sup_norm(mobius(0.0), make_poly([1.0]), 64) == pytest.approx(1.0)

    def test_half_case_attains_two_at_one(self):
        # grid contains zeta = 1 where the closed form evaluates to 2
        got = p_phi_sup_norm(mobius(0.5), make_poly([1.0]), 256)
        oracle = max(
            abs(p_lambda_closed_form(0.5, make_poly([1.0]), CirclePoint(t), 1.0))
            for t in 2 * np.pi * np.arange(256) / 256
        )
        assert got == pytest.approx(oracle)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_refinement_never_loses_to_grid(self):
        scan = p_phi_sup_scan(mobius(0.3), make_poly([0.5, 0.5]), 64)
        assert scan.refined_max >= scan.grid_max

    def test_operator_bound_for_fixtures(self):
        rng = np.random.default_rng(33)
        fixtures = [mobius(0.0), mobius(0.25), mobius(0.5), PolynomialMap((0.25, 0.0, 0.5))]
        for phi in fixtures:
            ceiling = (1 + 2 * abs(phi.at_zero())) / (1 - abs(phi.at_zero()))
            for seed in range(3):
                h = sample_unit_ball(int(rng.integers(0, 7)), 200 + seed)
                assert p_phi_sup_norm(phi, h, 64) <= ceiling + 1e-8

    def test_rejects_uncertified_h(self):
        big = make_poly([2.0])
        with pytest.raises(ValueError):
            p_phi_sup_norm(mobius(0.1), big, 16)
