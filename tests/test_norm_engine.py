import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    bound_bourdon_cima,
    cauchy_eval,
    monomial_pushforward,
    pairing,
    reference_barrier,
    sample_unit_ball,
    single_grid_value,
)
from cstrans import disk_algebra, norm_engine
from cstrans.cli import COMMANDS, RunConfig, run
from cstrans.circle import CirclePoint, DiskPoint, QuadratureGrid, refine_until_stable
from cstrans.disk_algebra import default_sample_count, make_poly, poly_eval
from cstrans.kernel_op import monomial_limit_evaluator, monomial_radial_limits, p_phi_radial_limit
from cstrans.measures import (
    atomic_measure,
    point_mass,
    taylor_coeffs,
    tv_norm,
)
from cstrans.norm_engine import (
    NormBracket,
    PreconditionError,
    bound_cima_matheson,
    composition_knorm_lower,
    composition_moments,
    knorm_bracket,
    knorm_lower,
    sharpness_scan,
    verify_eq1,
    verify_lemma1,
    verify_lemma2,
    _barrier,
    _dual_search,
    _monomial_is_optimal,
    _tight_value,
    _witness_poly,
)
from cstrans.self_maps import BlaschkeMap, ComposedMap, MobiusSelfMap, PolynomialMap, schwarz_factorize

D1 = point_mass(0.0)
DIPOLE = atomic_measure([(0.0, 1.0), (math.pi, -1.0)])
DSUM = atomic_measure([(0.0, 1.0), (math.pi, 1.0)])


def pairing_radial(mu, h, r):
    """The pairing integral at fixed radius r, in closed form."""
    if not 0.0 < r <= 1.0:
        raise ValueError("r must lie in (0, 1]")
    return complex(np.sum(mu.weights * np.conjugate(poly_eval(h, r * mu.positions))))


def pairing_quadrature(mu, h, r, grid):
    """Direct quadrature of integral f(r t) conj(h(t)) dm(t) on one grid."""
    if not 0.0 < r < 1.0:
        raise ValueError("quadrature form needs 0 < r < 1")
    t = grid.nodes
    samples = cauchy_eval(mu, r * t) * np.conjugate(poly_eval(h, t))
    return complex(np.mean(samples))


class TestPairing:
    def test_examples(self):
        assert pairing(D1, make_poly([1.0])) == pytest.approx(1.0)
        assert pairing(point_mass(math.pi / 2), make_poly([0.0, 1.0])) == pytest.approx(
            -1j, abs=1e-15
        )
        assert pairing(DIPOLE, make_poly([0.0, 1.0])) == pytest.approx(2.0, abs=1e-15)

    @given(st.integers(0, 10**6), st.integers(0, 8))
    def test_bounded_by_tv_times_cert(self, seed, degree):
        rng = np.random.default_rng(seed)
        mu = atomic_measure(
            [(rng.uniform(0, 2 * math.pi), complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) or 1.0)
             for _ in range(int(rng.integers(1, 4)))]
        )
        h = sample_unit_ball(degree, seed)
        assert abs(pairing(mu, h)) <= tv_norm(mu) * h.certified_sup + 1e-12

    def test_quadrature_agrees_with_same_radius_closed_form(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            mu = atomic_measure(
                [(rng.uniform(0, 2 * math.pi), complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) or 1.0)
                 for _ in range(int(rng.integers(1, 4)))]
            )
            h = make_poly(rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5))
            got, _ = refine_until_stable(lambda g: pairing_quadrature(mu, h, 0.999, g))
            want = pairing_radial(mu, h, 0.999)
            assert abs(got - want) <= 1e-8

    def test_radial_values_converge_to_the_pairing(self):
        # |<f,h>_r - <f,h>| <= tv * d * cert * (1-r) by the derivative bound
        mu = atomic_measure([(0.3, 1.0), (2.0, 0.5j)])
        h = make_poly([0.2, -0.3, 0.0, 0.4])
        limit = pairing(mu, h)
        for r in (0.9, 0.99, 0.999):
            gap = abs(pairing_radial(mu, h, r) - limit)
            assert gap <= tv_norm(mu) * h.degree * h.certified_sup * (1 - r) + 1e-14

    def test_quadrature_needs_interior_radius(self):
        with pytest.raises(ValueError):
            pairing_quadrature(D1, make_poly([1.0]), 1.0, QuadratureGrid(64))


class TestLowerBounds:
    def test_point_mass_pins_to_one(self):
        value, witness = knorm_lower(D1)
        assert value == pytest.approx(1.0, abs=1e-6)
        assert witness.degree == 0
        assert abs(pairing(D1, witness)) == pytest.approx(value, abs=1e-12)

    def test_point_mass_anywhere_pins_to_one(self):
        value, _ = knorm_lower(point_mass(2.17))
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_dipole_reaches_two_via_identity_map(self):
        value, witness = knorm_lower(DIPOLE)
        assert value == pytest.approx(2.0, abs=1e-3)
        assert abs(pairing(DIPOLE, witness)) == pytest.approx(value, abs=1e-12)

    def test_sum_reaches_two_via_constants(self):
        value, _ = knorm_lower(DSUM)
        assert value == pytest.approx(2.0, abs=1e-3)

    def test_sandwich_on_random_measures(self):
        rng = np.random.default_rng(42)
        for _ in range(6):
            mu = atomic_measure(
                [(rng.uniform(0, 2 * math.pi), complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) or 1.0)
                 for _ in range(int(rng.integers(1, 5)))]
            )
            bracket = knorm_bracket(mu, degree_cap=6)
            assert bracket.lower <= bracket.upper + 1e-9

    def test_bracket_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            NormBracket(2.0, 1.0, make_poly([1.0]), D1)

    def test_bracket_checks_the_callers_tolerance(self):
        h = make_poly([1.0])
        assert NormBracket(1.0 + 1e-7, 1.0, h, D1, tol=1e-6).lower == 1.0 + 1e-7
        with pytest.raises(ValueError, match="duality sandwich violated"):
            NormBracket(1.0 + 1e-7, 1.0, h, D1)
        # knorm_bracket hands its tolerance on: lower = upper = 1 fails at -1
        assert knorm_bracket(D1, degree_cap=2, tol=1e-6).upper == 1.0
        with pytest.raises(ValueError, match="duality sandwich violated"):
            knorm_bracket(D1, degree_cap=2, tol=-1.0)

    def test_search_validation(self):
        with pytest.raises(ValueError):
            knorm_lower(D1, degree_cap=65)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 2 * math.pi, exclude_max=True),
                st.floats(0.1, 1.0),
                st.floats(0.0, 2 * math.pi),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda atom: round(atom[0], 6),
        ),
        st.integers(0, 12),
    )
    def test_search_is_bracketed_on_measure_moments(self, atoms, d):
        # A single atom draws the solve's weights onto one node, so its
        # weighted Gram matrix grows ill-conditioned (about 1e5 at d = 12).
        mu = atomic_measure([(t, r * complex(math.cos(p), math.sin(p))) for t, r, p in atoms])
        g = taylor_coeffs(mu, d + 1)
        value, witness = knorm_lower(mu, d)
        assert math.isfinite(value)
        assert value >= float(np.max(np.abs(g)))
        assert value <= tv_norm(mu) * (1 + 1e-12)
        assert witness.certified_sup == 1.0
        assert abs(pairing(mu, witness)) == pytest.approx(value, rel=1e-12)

    @given(
        st.integers(0, 12),
        st.sampled_from(["random", "zero", "atom"]),
        st.integers(0, 10**6),
    )
    def test_search_is_bracketed_on_any_moments(self, d, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "random":
            g = rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)
        elif kind == "zero":
            g = np.zeros(d + 1, dtype=complex)
        else:  # one atom on a node of the solve's grid
            n = default_sample_count(d)
            g = np.exp(-2j * math.pi * int(rng.integers(0, n)) * np.arange(d + 1) / n)
        value, b = _dual_search(g, d)
        witness = _witness_poly(b)
        assert math.isfinite(value)
        assert value >= float(np.max(np.abs(g)))
        # |<b, g>| <= ||b||_2 ||g||_2 <= sup|h_b| ||g||_2 bounds every value
        assert value <= float(np.linalg.norm(g)) * (1 + 1e-12)
        assert witness.certified_sup == 1.0
        paired = abs(np.vdot(np.array(witness.coeffs), g))
        assert paired == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("failure", ["singular", "non-finite"])
    @pytest.mark.parametrize("good_solves", [0, 2])
    def test_search_survives_a_failed_solve(self, monkeypatch, failure, good_solves):
        solve = np.linalg.solve
        calls = []

        def failing_solve(a, b):
            calls.append(1)
            if len(calls) <= good_solves:
                return solve(a, b)
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full_like(b, np.nan)

        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        # Möbius-shaped moments that no monomial certifies, so the solve runs
        g = np.array([4 / 3, 5 / 3, 5 / 3, 5 / 3])
        value, b = _dual_search(g, 3)
        assert len(calls) == good_solves + 1
        assert math.isfinite(value) and value >= 1.0
        assert np.all(np.isfinite(b))

    def test_certified_monomial_skips_the_solve(self, monkeypatch):
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(1) or solve(a, b))
        value, b = _dual_search(np.array([1.0, 0.5j, -0.25, 0.1]), 3)
        assert calls == []
        assert value == 1.0
        assert np.array_equal(b, [1.0, 0.0, 0.0, 0.0])

    def test_search_certifies_its_witness_once(self, monkeypatch):
        # The solved witness is sampled once, on a grid four times finer than
        # the solve's last, and a monomial's coefficient-sum certificate of 1
        # is never sampled.
        counts = []
        certify = disk_algebra.certify_sup_norm
        monkeypatch.setattr(
            disk_algebra, "certify_sup_norm", lambda c, n: counts.append(n) or certify(c, n)
        )
        value, witness = knorm_lower(DIPOLE, 8)  # z wins, by |g_1| = tv = 2
        assert counts == [] and value == 2.0 and witness.degree == 1
        value, witness = composition_knorm_lower(D1, MobiusSelfMap(DiskPoint(0.5)), 8)
        assert counts == [8 * default_sample_count(8)]
        assert value > 3.4 and witness.certified_sup == 1.0

    def test_search_clears_a_slow_scan_row(self):
        # An iteration-capped reweighting stops at 1.02297 on this scan row;
        # the ceiling (1 + 2a)/(1 - a) is 1.03229.
        a = 0.010649859654141596
        g = composition_moments(D1, MobiusSelfMap(DiskPoint(a)), 7)
        value, _ = _dual_search(g, 6)
        assert value >= 1.0254

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 2 * math.pi, exclude_max=True),
                st.floats(0.1, 1.0),
                st.floats(0.0, 2 * math.pi),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda atom: round(atom[0], 6),
        ),
        st.one_of(st.none(), st.floats(0.0, 0.95)),
        st.integers(1, 24),
    )
    def test_barrier_stays_strictly_feasible(self, atoms, a, d):
        # The moments of mu itself (a is None), bounded by tv, or of mu
        # under lambda_a, bounded by the ceiling (1 + 2a)/(1 - a) times tv,
        # over the scan's range of a.
        mu = atomic_measure([(t, r * complex(math.cos(p), math.sin(p))) for t, r, p in atoms])
        if a is None:
            g, ceiling = taylor_coeffs(mu, d + 1), tv_norm(mu)
        else:
            g = composition_moments(mu, MobiusSelfMap(DiskPoint(a)), d + 1)
            ceiling = bound_cima_matheson(a) * tv_norm(mu)
        b = _barrier(g, d)
        n = 2 * default_sample_count(d)
        assert float((1.0 - np.abs(n * np.fft.ifft(b, n)) ** 2).min()) > 0.0
        value, _ = _dual_search(g, d)
        assert float(np.max(np.abs(g))) <= value <= ceiling * (1 + 1e-12)

    @pytest.mark.parametrize(
        "g",
        [
            np.zeros(5),
            np.array([1.0, math.nan, 0.5, 0.0, 1j]),
            np.array([1.0, 0.5, complex(math.inf, 1.0), 0.0, 0.0]),
        ],
        ids=["zero", "nan", "inf"],
    )
    def test_barrier_returns_zero_on_degenerate_moments(self, g):
        b = _barrier(g.astype(complex), 4)
        assert b.shape == (5,) and b.dtype == complex and not b.any()

    def test_search_is_monotone_in_degree(self):
        # A higher cap only adds unknowns, so the solve must not lose value.
        phi = MobiusSelfMap(DiskPoint(0.5))
        low, _ = composition_knorm_lower(D1, phi, degree_cap=8)
        high, _ = composition_knorm_lower(D1, phi, degree_cap=16)
        assert high >= low * (1 - 1e-3)


def _oracle_problems(count: int, seed: int):
    """Seeded (g, d): the moments of 1-4 random atoms, as they are or under a
    Möbius map with |a| <= 0.9 or a polynomial self-map, at caps 1-32."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(1, 5))
        mu = atomic_measure(list(zip(
            rng.uniform(0.0, 2 * math.pi, k),
            rng.uniform(0.1, 1.0, k) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, k)),
        )))
        d = int(rng.integers(1, 33))
        if i % 3 == 0:
            g = taylor_coeffs(mu, d + 1)
        elif i % 3 == 1:
            a = rng.uniform(0.0, 0.9) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0))
            g = composition_moments(mu, MobiusSelfMap(DiskPoint(complex(a))), d + 1)
        else:
            size = int(rng.integers(2, 5))
            core = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
            phi = PolynomialMap(tuple(rng.uniform(0.5, 0.95) * core / np.sum(np.abs(core))))
            g = composition_moments(mu, phi, d + 1)
        yield g, d


def _two_atom_mobius_problems(count: int, seed: int):
    """Seeded (g, d): two random atoms under lambda_a with |a| = 0.83, at caps
    16-32, a family on which some rounds use up their Newton steps."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mu = atomic_measure(list(zip(
            rng.uniform(0.0, 2 * math.pi, 2),
            rng.uniform(0.1, 1.0, 2) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 2)),
        )))
        a = 0.83 * np.exp(2j * math.pi * rng.uniform(0.0, 1.0))
        d = int(rng.integers(16, 33))
        yield composition_moments(mu, MobiusSelfMap(DiskPoint(complex(a))), d + 1), d


def _recorded_searches(make_searches) -> list[tuple]:
    """Runs ``make_searches()`` and returns, for each dual search it makes,
    (g, d, the certified value, the barrier's b or None where the monomial
    test skipped the solve), so that each search is solved only once."""
    search, barrier = norm_engine._dual_search, norm_engine._barrier
    records = []

    def recording_search(g, d):
        records.append([g.copy(), d, None, None])
        value, b = search(g, d)
        records[-1][2] = value
        return value, b

    def recording_barrier(g, d):
        records[-1][3] = barrier(g, d)
        return records[-1][3]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(norm_engine, "_dual_search", recording_search)
        patch.setattr(norm_engine, "_barrier", recording_barrier)
        make_searches()
    return [tuple(record) for record in records]


@pytest.fixture(scope="module")
def oracle_searches():
    problems = list(_oracle_problems(150, 20261020))
    return _recorded_searches(lambda: [norm_engine._dual_search(g, d) for g, d in problems])


@pytest.fixture(scope="module")
def standard_searches(tmp_path_factory):
    """The dual searches that the seven commands make on the standard fixtures."""
    out = tmp_path_factory.mktemp("reports")

    def run_commands():
        for command in COMMANDS:
            assert run(RunConfig(command, output=str(out / f"{command}.json"))) == 0

    return _recorded_searches(run_commands)


class TestBarrierAgainstReference:
    """The barrier against ``reference_barrier``, a plain-step copy of it
    that starts at t = n / ||g|| and line-searches by re-evaluating F."""

    @staticmethod
    def _values(g, d, b):
        return _tight_value(b, g)[0], _tight_value(reference_barrier(g, d), g)[0]

    def test_random_problems_keep_the_reference_value(self, oracle_searches):
        for g, d, _, b in oracle_searches:
            value, reference = self._values(g, d, _barrier(g, d) if b is None else b)
            assert value >= reference * (1 - 1e-6), (d, value, reference)

    def test_standard_searches_keep_the_reference_value(self, standard_searches):
        solved = [(g, d, b) for g, d, _, b in standard_searches if b is not None]
        assert len(solved) >= 10
        for g, d, b in solved:
            value, reference = self._values(g, d, b)
            assert value >= reference * (1 - 1e-7), (d, value, reference)


class TestOneGridFloor:
    """``_dual_search`` against ``single_grid_value``, the search with every
    barrier round and the certificate on the 2 * ``default_sample_count``
    grid: no certified value may fall below it, with no tolerance."""

    def test_random_problems(self, oracle_searches):
        for g, d, value, _ in oracle_searches:
            assert value >= single_grid_value(g, d), d

    def test_standard_searches(self, standard_searches):
        assert len(standard_searches) >= 40
        for g, d, value, _ in standard_searches:
            assert value >= single_grid_value(g, d), d

    def test_solves_end_on_a_centred_round(self, monkeypatch):
        # A round that uses up its Newton steps keeps t and centres again,
        # so the stop test only ever follows a centred round.
        centre = norm_engine._centre
        solves = []

        def recording_centre(g, b, h, t):
            out = centre(g, b, h, t)
            solves[-1].append(out[2])
            return out

        monkeypatch.setattr(norm_engine, "_centre", recording_centre)
        for g, d in _two_atom_mobius_problems(8, 17):
            solves.append([])
            value = _dual_search(g, d)[0]
            assert not solves[-1] or solves[-1][-1] is True, (d, solves[-1])
            assert value >= single_grid_value(g, d), d
        assert any(False in rounds for rounds in solves)  # the family repeats a round

    @pytest.mark.parametrize("d", [6, 8, 24, 32])
    def test_rounds_that_cannot_stop_run_on_the_coarse_grid(self, monkeypatch, d):
        g = composition_moments(D1, MobiusSelfMap(DiskPoint(0.5)), d + 1)
        n = 2 * default_sample_count(d)
        sizes, rounds = [], []  # transform sizes; (t on the n-node grid, sizes) per round
        samples, fft, centre = norm_engine.circle_samples, np.fft.fft, norm_engine._centre

        def recording_centre(g, b, h, t):
            out = centre(g, b, h, t)
            rounds.append((t * n / h.size, sizes[:]))
            sizes.clear()
            return out

        monkeypatch.setattr(norm_engine, "circle_samples", lambda c, k: sizes.append(k) or samples(c, k))
        monkeypatch.setattr(np.fft, "fft", lambda x: sizes.append(x.shape[-1]) or fft(x))
        monkeypatch.setattr(norm_engine, "_centre", recording_centre)
        b = _barrier(g, d)
        monkeypatch.undo()
        # A round can stop the solve only when 2n/t <= _DUAL_GAP ||g||_2, g
        # scaled to max |g_m| = 1.
        norm = float(np.linalg.norm(g) / np.abs(g).max())
        can_stop = [2 * n <= norm_engine._DUAL_GAP * t * norm for t, _ in rounds]
        assert not can_stop[0] and can_stop[-1]
        for stop, (_, round_sizes) in zip(can_stop, rounds):
            assert round_sizes and set(round_sizes) == {n if stop else n // 8}
        assert sizes == []
        assert float((1.0 - np.abs(n * np.fft.ifft(b, n)) ** 2).min()) > 0.0


class TestMonomialCertificate:
    """The Carathéodory–Toeplitz test that lets the dual search skip its solve."""

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 2 * math.pi, exclude_max=True), st.floats(0.1, 1.0)),
            min_size=1,
            max_size=4,
            unique_by=lambda atom: round(atom[0], 6),
        ),
        st.integers(0, 12),
        st.integers(0, 12),
        st.floats(0.0, 2 * math.pi),
    )
    def test_rotated_positive_measures_pass(self, atoms, d, m, alpha):
        # nu = e^{i alpha} t^m sigma with sigma >= 0 has |g_m| = ||nu||
        m = min(m, d)
        turn = complex(math.cos(alpha), math.sin(alpha))
        nu = atomic_measure(
            [(t, r * turn * complex(math.cos(m * t), math.sin(m * t))) for t, r in atoms]
        )
        g = taylor_coeffs(nu, d + 1)
        best = int(np.argmax(np.abs(g)))
        assert _monomial_is_optimal(g, best)
        value, b = _dual_search(g, d)
        assert value == float(np.max(np.abs(g)))
        assert value == pytest.approx(tv_norm(nu), rel=1e-12)
        assert np.count_nonzero(b) == 1 and b[best] == 1.0

    @given(
        st.integers(0, 12),
        st.sampled_from(["random", "aligned constant plus atom", "constant plus atom", "signed atoms"]),
        st.integers(0, 10**6),
    )
    def test_passing_bounds_the_solve(self, d, kind, seed):
        rng = np.random.default_rng(seed)
        k = np.arange(d + 1)
        if kind == "random":
            g = rng.uniform(-1, 1, d + 1) + 1j * rng.uniform(-1, 1, d + 1)
        elif kind == "signed atoms":
            zeta = np.exp(2j * math.pi * rng.uniform(0, 1, int(rng.integers(2, 5))))
            weights = rng.choice([-1.0, 1.0], zeta.size) * rng.uniform(0.1, 1.0, zeta.size)
            g = weights @ np.conjugate(zeta)[:, None] ** k
        else:  # s dm + r delta_zeta: positive when the two phases agree
            s, r = rng.uniform(0.1, 1.0, 2)
            turns = np.exp(2j * math.pi * rng.uniform(0, 1, 2))
            if kind.startswith("aligned"):
                turns[1] = turns[0]
            zeta = np.exp(2j * math.pi * rng.uniform(0, 1))
            g = r * turns[1] * np.conjugate(zeta) ** k
            g[0] += s * turns[0]
        m = int(np.argmax(np.abs(g)))
        passed = _monomial_is_optimal(g, m)
        if kind.startswith("aligned"):
            assert passed and m == 0
        if passed:
            assert _tight_value(_barrier(g, d), g)[0] <= abs(g[m]) * (1 + 1e-12)

    def test_mobius_moments_fail(self):
        # D1 under lambda_0.75 at cap 8: the solve certifies about 8.73 > 7
        g = np.array([4.0] + [7.0] * 8, dtype=complex)
        assert not _monomial_is_optimal(g, 1)
        assert _dual_search(g, 8)[0] > 8.7


class TestBounds:
    def test_values(self):
        assert bound_cima_matheson(0.0) == 1.0
        assert bound_cima_matheson(0.5) == 4.0
        assert bound_cima_matheson(0.9) == pytest.approx(28.0, abs=1e-13)
        assert bound_bourdon_cima(0.0) == pytest.approx(2 + 2 * math.sqrt(2))
        assert bound_bourdon_cima(0.5) == pytest.approx(9.65685424949238)

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                bound_cima_matheson(bad)
            with pytest.raises(ValueError):
                bound_bourdon_cima(bad)

    def test_dominance(self):
        for x in np.linspace(0, 0.99, 100):
            assert bound_bourdon_cima(x) > bound_cima_matheson(x)


class TestVerifiers:
    def test_lemma2_rotation_case(self):
        rep = verify_lemma2(D1, 0.0)
        assert rep.passed
        assert rep.bound == 1.0
        assert rep.lower <= 1.0 + 1e-8

    def test_lemma2_at_half(self):
        rep = verify_lemma2(D1, 0.5)
        assert rep.passed
        assert rep.bound == 4.0
        assert rep.lower <= 4.0 + 1e-8
        # achieved-vs-ceiling ratio is reported, not asserted
        assert 0.0 < rep.witnesses["ratio_to_ceiling"] <= 1.0 + 1e-8

    def test_lemma1_identity_is_equality_case(self):
        rep = verify_lemma1(D1, PolynomialMap((0.0, 1.0)))
        assert rep.passed
        assert rep.lower == pytest.approx(1.0, abs=1e-6)

    def test_lemma1_squaring_map(self):
        rep = verify_lemma1(D1, PolynomialMap((0.0, 0.0, 1.0)))
        assert rep.passed
        assert rep.lower <= 1.0 + 1e-8

    def test_lemma1_contraction(self):
        rep = verify_lemma1(D1, PolynomialMap((0.0, 0.5)))
        assert rep.passed

    def test_lemma1_rejects_moving_base_point(self):
        with pytest.raises(PreconditionError, match="psi\\(0\\)=0"):
            verify_lemma1(D1, PolynomialMap((0.1, 0.5)))

    def test_eq1_mobius_half(self):
        rep = verify_eq1(D1, MobiusSelfMap(DiskPoint(0.5)))
        assert rep.passed
        assert rep.bound == 4.0

    def test_eq1_mobius_reuses_the_mobius_step(self):
        # phi = lambda_a is its own Möbius step, so one search serves both
        phi = MobiusSelfMap(DiskPoint(0.25))
        rep = verify_eq1(DIPOLE, phi, degree_cap=6)
        lower, witness = composition_knorm_lower(DIPOLE, phi, degree_cap=6)
        assert rep.lower == rep.witnesses["mobius_step"]["lower"] == lower
        assert rep.witnesses["h"]["coeffs"] == [[c.real, c.imag] for c in witness.coeffs]

    def test_eq1_identity(self):
        rep = verify_eq1(D1, PolynomialMap((0.0, 1.0)))
        assert rep.passed
        assert rep.bound == 1.0
        assert rep.lower == pytest.approx(1.0, abs=1e-6)

    def test_eq1_polynomial_with_balanced_pair(self):
        mu = atomic_measure([(0.0, 0.5), (math.pi, 0.5)])
        rep = verify_eq1(mu, PolynomialMap((0.25, 0.0, 0.5)))
        assert rep.passed
        assert rep.bound == pytest.approx(2.0)
        assert rep.witnesses["factorization"]["psi_at_zero"] <= 1e-14
        assert rep.witnesses["factorization"]["reconstruction_residual"] <= 1e-12


class TestCompositionConsistency:
    def test_squaring_map_two_routes_agree(self):
        # route 1: composed moments through the kernel operator
        # route 2: pairing against the exact pushforward measure
        z2 = PolynomialMap((0.0, 0.0, 1.0))
        pushed = monomial_pushforward(D1, 2)
        rng = np.random.default_rng(43)
        for seed in range(20):
            h = sample_unit_ball(int(rng.integers(0, 9)), 300 + seed)
            via_kernel = np.conjugate(p_phi_radial_limit(z2, h, CirclePoint(0.0)))
            via_pushforward = pairing(pushed, h)
            assert abs(via_kernel - via_pushforward) <= 1e-8

    def test_moment_vectors_match_pushforward_taylor(self):
        z2 = PolynomialMap((0.0, 0.0, 1.0))
        got = composition_moments(D1, z2, 8)
        want = taylor_coeffs(monomial_pushforward(D1, 2), 8)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_moments_equal_the_per_atom_sum(self):
        # one evaluator call serves every atom, bit for bit
        mu = atomic_measure([(0.3, 1.0), (1.9, -0.5j), (4.0, 0.25 + 0.25j)])
        maps = (
            PolynomialMap((0.0, 0.0, 0.0, 1.0)),
            ComposedMap(DiskPoint(0.3 - 0.2j), PolynomialMap((0.1, 0.5, 0.0, 0.3j))),
        )
        for phi in maps:
            want = np.zeros(9, dtype=complex)
            for pos, w in mu.atoms:
                want += w * np.conjugate(monomial_radial_limits(phi, 9, pos))
            assert np.array_equal(composition_moments(mu, phi, 9), want)

    @pytest.mark.parametrize("atoms", [1, 3, 64])
    def test_one_batched_call_equals_the_weighted_single_point_sum(self, atoms):
        rng = np.random.default_rng(atoms)
        angles = rng.permutation(64)[:atoms] * (2 * math.pi / 64) + rng.uniform(0, 0.05)
        weights = rng.uniform(-1, 1, atoms) + 1j * rng.uniform(-1, 1, atoms)
        mu = atomic_measure(list(zip(angles.tolist(), weights.tolist())))
        assert len(mu.atoms) == atoms
        maps = (
            MobiusSelfMap(DiskPoint(0.3 + 0.4j)),
            BlaschkeMap((DiskPoint(0.2 - 0.5j),), complex(math.cos(0.7), math.sin(0.7))),
            PolynomialMap((0.0, 0.0, 1.0)),
            PolynomialMap((0.0, 0.0, 0.0, 1.0)),
            PolynomialMap((0.1, 0.5 + 0.1j, 0.2)),
            ComposedMap(DiskPoint(0.3 + 0.2j), PolynomialMap((0.1, 0.5, 0.2))),
        )
        for phi in maps:
            for count in (1, 9, 33, 65):
                limits = monomial_limit_evaluator(phi, count)
                terms = [w * np.conjugate(limits(np.array([pos.value]))[0]) for pos, w in mu.atoms]
                want = np.sum(terms, axis=0)
                scale = np.sum(np.abs(terms), axis=0)
                got = composition_moments(mu, phi, count)
                assert np.all(np.abs(got - want) <= 1e-14 * scale)
                assert got.base is None  # keeps no per-atom rows alive

    def test_composition_lower_bounded_by_ceiling(self):
        phi = MobiusSelfMap(DiskPoint(0.75))
        value, _ = composition_knorm_lower(D1, phi, degree_cap=6)
        assert value <= bound_cima_matheson(0.75) + 1e-8


class TestSharpnessScan:
    @given(
        st.floats(0.0, 0.95),
        st.lists(
            st.tuples(
                st.floats(0.0, 2 * math.pi, exclude_max=True),
                st.floats(0.1, 1.0),
                st.floats(0.0, 2 * math.pi),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda atom: round(atom[0], 6),
        ),
        st.integers(1, 9),
    )
    def test_no_measure_beats_the_point_mass_at_one(self, a, atoms, count):
        # The lemma behind the scan: on max_m |g_m| / tv a mixture cannot beat
        # its best atom, and the best atom sits at zeta = 1.
        phi = MobiusSelfMap(DiskPoint(complex(a)))
        mu = atomic_measure([(t, r * complex(math.cos(p), math.sin(p))) for t, r, p in atoms])
        best = float(np.max(np.abs(composition_moments(D1, phi, count))))
        ratio = float(np.max(np.abs(composition_moments(mu, phi, count)))) / tv_norm(mu)
        assert ratio <= best * (1 + 1e-12)
        if count >= 2:
            assert best == pytest.approx((1 + a) / (1 - a), rel=1e-12)

    def test_rows_certify_the_point_mass_at_one(self):
        a_values = [0.0, 0.3, 0.95]
        rows = sharpness_scan(a_values, degree_cap=4)
        for a, row in zip(a_values, rows):
            phi = MobiusSelfMap(DiskPoint(complex(a)))
            lower, _ = composition_knorm_lower(D1, phi, 4)
            assert row.ratio == lower

    def test_small_scan(self):
        rows = sharpness_scan([0.0, 0.5], degree_cap=6)
        assert rows[0].ratio >= 1.0 - 1e-6
        for row in rows:
            assert row.ratio <= row.bound + 1e-8

    def test_half_reaches_most_of_the_ceiling(self):
        # the ceiling is 4; the convex solve certifies 3.487 at this cap
        (row,) = sharpness_scan([0.5], degree_cap=6)
        assert row.ratio >= 3.45

    def test_scan_validates_range(self):
        with pytest.raises(ValueError):
            sharpness_scan([0.97])
