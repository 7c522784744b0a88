"""Dual-pairing norm estimation and the composition-bound verifiers.

The transform space pairs against the disk algebra via
``<f, h> = lim_{r->1} integral f(r t) conj(h(t)) dm(t)``.  For an atomic
measure and a polynomial h the limit collapses term by term to
``sum_j c_j conj(h(zeta_j))``, so the pairing is exact; a quadrature
implementation of the same integral must agree with it as r -> 1, which
renders the interchange-of-integrals step as a runnable test.

Because |<f, h>| <= ||f|| * sup|h|, every certified unit-ball polynomial
witnesses a lower bound |<f, h>| / cert(h) for the transform norm, while
the total variation of a representing measure is an upper bound.  This
duality sandwich pins norms from both sides without ever claiming the
exact infimum.

Composition lower bounds reuse the kernel operator: conjugating the inner
integral of the paired composition gives
``<f o phi, h> = sum_j c_j conj((P_phi h)(zeta_j))``, evaluated through
the closed-form / series routes of ``kernel_op``.  The searched suprema
are reported as achieved values, never as the true sup.

The dual search is one convex solve: a log-barrier Newton method for the
best unit-ball polynomial on a circle grid twice as fine as the
certificate's default, stopped once the barrier's duality bound is within
0.1% of the value it has reached, and skipped when a Carathéodory–Toeplitz
test proves the best monomial optimal.  The barrier starts a hundred times
further along its path than the plain n / ||g||, caps each step so that
every grid node keeps half of its slack, line-searches in closed form
without a transform, and takes the gradient and Hessian of each step from
one FFT call.  Its rounds that cannot meet the stop test only warm-start
the next, so they run on a grid eight times coarser; the round that can
stop runs on the full grid.  The solved witness is certified on a grid
four times finer than that, where the certificate's factor for the
overshoot between nodes is at most 1 + 9.4e-6.  The solve is
deterministic and has no tuning knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import DiskPoint
from .disk_algebra import (
    SEARCH_DEGREE_CAP,
    DiskAlgebraPoly,
    certified_sup,
    circle_samples,
    default_sample_count,
    poly_to_obj,
)
from .kernel_op import limit_route, monomial_limit_evaluator
from .measures import (
    AtomicMeasure,
    measure_to_obj,
    point_mass,
    taylor_coeffs,
    tv_norm,
)
from .self_maps import (
    DiskSelfMap,
    MobiusSelfMap,
    factorization_residual,
    schwarz_factorize,
    self_map_to_obj,
)

# The named tolerances: the defaults of the library and of the CLI, whose
# ``--tol NAME=VALUE`` overrides them by name.
DEFAULT_TOLERANCES = {
    "pass_margin": 1e-8,          # verifier ceiling slack
    "kernel_compare": 1e-10,      # closed form vs quadrature
    "sandwich": 1e-9,             # bracket consistency
    "factorize_residual": 1e-12,  # max |phi - lambda_a o psi| on the disk grid
    "base_point": 1e-14,          # |psi(0)|
}
PASS_MARGIN = DEFAULT_TOLERANCES["pass_margin"]
SANDWICH_TOL = DEFAULT_TOLERANCES["sandwich"]


class PreconditionError(ValueError):
    """A verifier was handed inputs that violate its stated precondition."""


# ---------------------------------------------------------------------------
# Certified lower-bound search.  The objective |sum_m conj(b_m) g_m| / cert(b)
# is scale invariant and every evaluation is a valid lower bound, so the
# search can only under-shoot, never fabricate.

# Relative duality gap at which the barrier solve stops; its first t in units
# of n / ||g||, and the factor by which it raises t per round; its bounds on
# rounds and on Newton steps per round; the Newton decrement lambda^2 / 2
# that ends a round's centring; the share of each node's slack that a step
# keeps; and the shortest line-search step it tries.
_DUAL_GAP = 1e-3
_BARRIER_START = 100.0
_BARRIER_STEP = 10.0
_BARRIER_ROUNDS = 12
_NEWTON_STEPS = 50
_NEWTON_TOL = 1e-3
_SLACK_KEPT = 0.5
_MIN_STEP = 1e-10
# Slack of the monomial-optimality test, relative to |g_m|: the shift added
# to the Toeplitz matrix and the summed asymmetry |c_(-l) - conj(c_l)| it
# tolerates.  2 * shift + asymmetry bounds the value the test can forgo.
_PSD_SHIFT = 4e-13
_ASYMMETRY = 2e-13


def _tight_value(b: np.ndarray, g: np.ndarray) -> tuple[float, np.ndarray]:
    """The certified value |<b, g>| / cert(b) and the witness b / cert(b),
    whose certificate is then 1; (0, b) when b = 0.

    cert(b) samples h_b on 8 * ``default_sample_count`` nodes, four times
    the grid that ``_barrier`` finishes on, where the second-order
    certificate over-estimates by a factor of at most 1/sqrt(1 - (pi/512)^2
    / 2), about 1 + 9.4e-6; the overshoot of |h_b| between the solve's
    nodes is charged only as far as this finer grid samples it.
    """
    cert = certified_sup(b, 8 * default_sample_count(b.size - 1))
    if cert == 0.0:
        return 0.0, b
    return float(abs(np.vdot(b, g)) / cert), b / cert


def _inside(b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """b and h_b on the n-node grid, both scaled down to a peak of 1 -
    ``_DUAL_GAP`` there if they peak higher, so that every node keeps a
    slack of at least about 2 ``_DUAL_GAP``."""
    h = circle_samples(b, n)
    peak = float(np.abs(h).max())
    if peak > 1.0 - _DUAL_GAP:
        shrink = (1.0 - _DUAL_GAP) / peak
        b, h = shrink * b, shrink * h
    return b, h


def _centre(
    g: np.ndarray, b: np.ndarray, h: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray, bool | None]:
    """Newton's method for the minimiser of F_t on the grid of h's nodes,
    from b, strictly feasible there, with h = h_b on that grid.

    Returns (b, h, centred): centred is True when the Newton decrement fell
    to ``_NEWTON_TOL``, False when the steps ran out first, and None when a
    step failed, which leaves the last iterate.
    """
    w, n = b.size, h.size
    # The real unknowns are b.view(float), Re b_m then Im b_m for each m.  The
    # Hessian is read from the float view of the transformed rows, laid out
    # the same way: row 1 (q/2) at the Toeplitz lags i - j mod n, row 2
    # (q h^2/2) at the Hankel lags i + j < n.  Re-Re and Im-Im entries read
    # real parts, mixed entries imaginary parts; T's Re-row Im-column and
    # H's Im-Im entries are negated, and all are doubled.
    m = np.arange(2 * w) // 2
    imag = np.arange(2 * w) % 2 == 1
    part = imag[:, None] ^ imag[None, :]
    toeplitz = 2 * n + 2 * ((m[:, None] - m[None, :]) % n) + part
    hankel = 4 * n + 2 * (m[:, None] + m[None, :]) + part
    toeplitz_scale = 2.0 - 4.0 * (~imag[:, None] & imag[None, :])
    hankel_scale = 2.0 - 4.0 * (imag[:, None] & imag[None, :])
    gf = g.view(float)
    rows = np.zeros((3, n), dtype=complex)  # h/s, 1/s^2 and (h/s)^2
    s = 1.0 - (h * np.conjugate(h)).real  # the slack 1 - |h|^2
    logsum = float(np.log(s).sum())
    for _ in range(_NEWTON_STEPS):
        inv = 1.0 / s
        np.multiply(h, inv, out=rows[0])
        np.multiply(inv, inv, out=rows[1].real)
        np.multiply(rows[0], rows[0], out=rows[2])
        spectra = np.fft.fft(rows)
        flat = spectra.view(float).ravel()
        hess = flat[toeplitz] * toeplitz_scale + flat[hankel] * hankel_scale
        r = 2.0 * flat[: 2 * w] - t * gf  # the gradient 2 fft(h/s)[m] - t g_m
        try:
            p = np.linalg.solve(hess, -r)
        except np.linalg.LinAlgError:
            return b, h, None
        decrement = -float(r @ p)  # squared Newton decrement
        if not np.isfinite(decrement):
            return b, h, None
        if decrement <= 2.0 * _NEWTON_TOL:
            return b, h, True
        step = p.view(complex)
        dh = circle_samples(step, n)
        quad = (dh * np.conjugate(dh)).real  # A
        cross = (np.conjugate(h) * dh).real  # B
        room = (1.0 - _SLACK_KEPT) * s
        cap = room / (cross + np.sqrt(cross * cross + quad * room))
        tau = min(1.0, float(cap.min()))
        lin = float(np.vdot(b, g).real)
        gain = float(np.vdot(step, g).real)
        value = -t * lin - logsum
        slope = 0.25 * decrement  # Armijo: F falls by tau * slope
        while True:
            trial_s = s - (2.0 * tau) * cross - (tau * tau) * quad
            if trial_s.min() > 0.0:
                trial_log = float(np.log(trial_s).sum())
                if -t * (lin + tau * gain) - trial_log <= value - tau * slope:
                    break
            tau *= 0.5
            if tau < _MIN_STEP:
                return b, h, None
        next_h = h + tau * dh
        next_s = 1.0 - (next_h * np.conjugate(next_h)).real
        if not next_s.min() > 0.0:
            return b, h, None
        b, h, s, logsum = b + tau * step, next_h, next_s, trial_log
    return b, h, False


def _barrier(g: np.ndarray, degree_cap: int) -> np.ndarray:
    """Near-optimal b for max Re <b, g> subject to |h_b(t_k)| <= 1.

    A path-following log-barrier method (Boyd and Vandenberghe, *Convex
    Optimization*, 2004, sections 11.3-11.5) on the grid t_k = exp(2 pi i
    k/n), n = 2 * ``default_sample_count``: from b = 0, Newton's method with
    a backtracking line search minimises

        F_t(b) = -t Re <b, g> - sum_k log s_k,   s_k = 1 - |h_b(t_k)|^2,

    over the real and imaginary parts of b, and t grows by ``_BARRIER_STEP``
    per round from ``_BARRIER_START`` n / ||g||; the rounds below that start
    are far from the boundary and decide nothing.  A minimiser at t is
    within n/t of the grid optimum (one dual variable per node), so after a
    round that centres (its Newton decrement falls to ``_NEWTON_TOL``) the
    solve stops once 2n/t <= ``_DUAL_GAP`` Re <b, g>, the factor 2 leaving
    room for the approximate centring.  A round that uses up its Newton
    steps bounds no gap: t stays, and the next round centres again.

    Every b with |h_b| <= 1 on more than d nodes has ||b||_2 <= 1, so Re
    <b, g> <= ||g||_2, and a round with 2n/t > ``_DUAL_GAP`` ||g||_2 cannot
    stop the solve: it only warm-starts the next.  Such rounds run on a
    coarse grid of n/8 nodes (at least 4(d+1), so that no Hessian lag
    aliases), with t scaled to t n_c / n, which keeps each node's share of
    the barrier.  The first round that can stop switches to the n-node
    grid, where h_b is sampled afresh and b is scaled to a peak of 1 -
    ``_DUAL_GAP`` if its peak there is 1 or more.  The grid is twice the
    certificate's default because |h_b| overshoots between nodes;
    ``_tight_value`` certifies b on a grid four times finer still.

    Every product is an FFT and Z = [t_k^m] is never formed.  h_b = n
    ifft(b); with q = 2/s^2 the gradient is 2 fft(h/s)[m] - t g_m and the
    Hessian's quadratic form is delta^H T delta + Re(delta^T H delta), T
    Toeplitz with T_ij = n ifft(q)[j - i] = fft(q)[i - j] and H Hankel with
    H_ij = n ifft(q conj(h)^2)[i + j] = conj(fft(q h^2)[i + j]) (as n
    ifft(x) = conj(fft(conj x))), that is the real block matrix
    [[Re(T + H), -Im(T + H)], [Im(T - H), Re(T - H)]] on (Re delta, Im
    delta).  So one FFT call of the three rows h/s, q/2 and q h^2/2 gives
    the gradient and both lag sequences, and the Hessian is two gathers
    from the transformed rows.  The only dense work is one real
    2(d+1)-square solve per step, and g is first scaled to max |g_m| = 1,
    which leaves the maximiser unchanged.

    The line search needs no transform.  Along a step with dh = n
    ifft(step), s_k(tau) = s_k - tau (2 B_k + tau A_k) with A = |dh|^2 and
    B = Re(conj(h) dh), and Re <b, g> is linear in tau.  The first trial
    tau is 1, capped in closed form, tau <= c s_k / (B_k + sqrt(B_k^2 + c
    A_k s_k)) with c = 1 - ``_SLACK_KEPT``, so that every node keeps that
    share of its slack (the fraction-to-the-boundary rule of Wächter and
    Biegler, *Math. Program.* 106, 2006); Armijo backtracking halves it
    from there.  An accepted step updates b and h once, and s is recomputed
    from h.  Each iterate is strictly feasible on its round's grid: a trial
    whose slack is not finite and positive is never taken, and a singular
    or non-finite solve, a recomputed slack that is not finite and positive
    or a failed line search ends the solve with the last iterate, scaled as
    at the switch if it ends on the coarse grid, so the returned b is
    strictly feasible on the n-node grid.  Both the rounds and the Newton
    steps per round are bounded.
    """
    b = np.zeros(g.size, dtype=complex)
    scale = float(np.abs(g).max())
    if not 0.0 < scale < np.inf:
        return b
    g = g / scale
    n = 2 * default_sample_count(degree_cap)
    norm = float(np.linalg.norm(g))
    grid = max(n // 8, 4 * g.size)
    h = np.zeros(grid, dtype=complex)  # h_b on the round's grid
    t = _BARRIER_START * n / norm  # at least 100 n / sqrt(d + 1)
    with np.errstate(all="ignore"):
        for _ in range(_BARRIER_ROUNDS):
            final = 2.0 * n <= _DUAL_GAP * t * norm  # this round can stop the solve
            if final and grid < n:
                grid = n
                b, h = _inside(b, n)
            b, h, centred = _centre(g, b, h, t * grid / n)
            if centred is None:
                break
            if not centred:
                continue
            if final and 2.0 * n <= _DUAL_GAP * t * float(np.vdot(b, g).real):
                break
            t *= _BARRIER_STEP
        if grid < n:
            b, _ = _inside(b, n)
    return b


def _monomial_is_optimal(g: np.ndarray, m: int) -> bool:
    """True when a measure with moments g has total variation |g_m|, up to a
    relative 1e-12, so that no witness beats the monomial z^m.

    Equality |g_m| = ||nu|| forces dnu = e^{i alpha} t^m d|nu| (the F. and
    M. Riesz equality case), with alpha = arg g_m.  So the test asks whether
    c_l = e^{-i alpha} g_{m+l}, l = -m .. d-m, are moments of a positive
    measure.  Where both c_l and c_{-l} are given, they must be conjugate;
    otherwise the missing side is filled by conjugation.  By the
    Carathéodory–Toeplitz theorem (Grenander and Szegő, *Toeplitz Forms and
    Their Applications*, 1958) the sequence is then a moment sequence iff its
    (L+1) x (L+1) Hermitian Toeplitz matrix T, L = max(m, d-m), is positive
    semidefinite; the test asks Cholesky to factor T + delta I.  If it
    does, e^{i alpha} t^m times a positive measure representing T + delta I,
    less delta e^{i alpha} t^m dm and one multiple of a monomial times dm
    per asymmetric pair, has moments exactly g and total variation at most
    |g_m| + 2 delta + asymmetry = |g_m| (1 + 1e-12) in exact arithmetic.
    Every certified value is at most that.
    """
    gm = abs(g[m])
    if gm == 0.0:
        return True
    d = g.size - 1
    c = g * (np.conjugate(g[m]) / gm)  # c[m + l] = c_l
    pairs = np.arange(1, min(m, d - m) + 1)  # lags given on both sides
    if float(np.abs(c[m - pairs] - np.conjugate(c[m + pairs])).sum()) > _ASYMMETRY * gm:
        return False
    # T is built by slicing and indexing one two-sided sequence: np.where and
    # friends would fault in about 0.2 MB more of numpy's code per process.
    top = max(m, d - m)  # L
    seq = np.zeros(2 * top + 1, dtype=complex)  # seq[top + l] = c_l
    lo, hi = top - m, top - m + d + 1  # the given lags, -m .. d-m
    seq[lo:hi] = c
    mirror = np.conjugate(seq[::-1])
    seq[:lo], seq[hi:] = mirror[:lo], mirror[hi:]
    seq[top] = gm
    lags = np.arange(top + 1)
    toeplitz = seq[top + lags[:, None] - lags[None, :]]
    try:
        np.linalg.cholesky(toeplitz + _PSD_SHIFT * gm * np.eye(top + 1))
    except np.linalg.LinAlgError:
        return False
    return True


def _dual_search(g: np.ndarray, degree_cap: int) -> tuple[float, np.ndarray]:
    """Best certified value of |sum_m conj(b_m) g_m| / sup-cert(b), and its
    b divided by its certificate, so that sup |h_b| <= 1 is certified and
    the value is |<b, g>|.

    Candidates: every monomial (whose certificate is exactly 1 via the
    coefficient-sum bound, so it is never sampled) and the convex solve of
    ``_barrier``, a log-barrier Newton method whose warm-up rounds run on
    n/8 nodes and whose last round runs on n = 2 * ``default_sample_count``
    nodes, stopped once its duality bound 2n/t is within ``_DUAL_GAP`` of
    the value reached; its b is certified once, on 4n nodes, at a cost of
    at most a relative 9.4e-6.  Deterministic; ties keep the earlier
    candidate.

    The solve is skipped when ``_monomial_is_optimal`` proves, by a
    Carathéodory–Toeplitz test on g, that some measure with moments g has
    total variation at most |g_m| (1 + 1e-12) for the best monomial z^m:
    no certified value exceeds that, so the skip forgoes at most a relative
    1e-12 (point-mass moments, for instance, skip it).
    """
    if degree_cap < 0 or degree_cap > SEARCH_DEGREE_CAP:
        raise ValueError(f"degree_cap must lie in [0, {SEARCH_DEGREE_CAP}]")
    width = degree_cap + 1
    g = np.asarray(g, dtype=complex)[:width]
    if g.size < width:
        g = np.pad(g, (0, width - g.size))

    moduli = np.abs(g)
    m = int(np.argmax(moduli))  # the first of the best monomials
    best_b = np.zeros(width, dtype=complex)
    best_b[m] = 1.0
    best_val = float(moduli[m])
    if _monomial_is_optimal(g, m):
        return best_val, best_b
    b = _barrier(g, degree_cap)
    val, witness = _tight_value(b, g)  # 0 when a failed first solve leaves b = 0
    if val > best_val * (1 + 1e-15):
        best_val, best_b = val, witness
    return best_val, best_b


def _witness_poly(b: np.ndarray) -> DiskAlgebraPoly:
    # _dual_search divided b by a certificate that dominates its true sup,
    # so the rescaled true sup is <= 1, and 1 never exceeds the coefficient
    # sum because the certificate is at most the coefficient sum of b.
    return DiskAlgebraPoly(tuple(b), 1.0)


def knorm_lower(mu: AtomicMeasure, degree_cap: int = 8) -> tuple[float, DiskAlgebraPoly]:
    """Certified lower bound for the transform norm of K_mu, with witness."""
    g = taylor_coeffs(mu, degree_cap + 1)
    value, b = _dual_search(g, degree_cap)
    return value, _witness_poly(b)


@dataclass(frozen=True)
class NormBracket:
    """Two-sided certificate for a transform norm.

    ``lower`` comes from a dual witness, ``upper`` from the total variation
    of a representing measure; lower > upper + ``tol`` is a bug in the
    build, not a property of the inputs.
    """

    lower: float
    upper: float
    witness_h: DiskAlgebraPoly
    witness_mu: AtomicMeasure
    tol: float = field(default=SANDWICH_TOL, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.lower > self.upper + self.tol:
            raise ValueError(
                f"duality sandwich violated: lower {self.lower!r} > upper {self.upper!r}"
            )


def knorm_bracket(
    mu: AtomicMeasure, degree_cap: int = 8, tol: float = SANDWICH_TOL
) -> NormBracket:
    lower, witness = knorm_lower(mu, degree_cap)
    return NormBracket(lower, tv_norm(mu), witness, mu, tol)


# ---------------------------------------------------------------------------
# Bound formulas.

def bound_cima_matheson(a_mod: float) -> float:
    """(1 + 2|a|) / (1 - |a|) for |a| in [0, 1)."""
    if not 0.0 <= a_mod < 1.0:
        raise ValueError("a_mod must lie in [0, 1)")
    return (1.0 + 2.0 * a_mod) / (1.0 - a_mod)


# ---------------------------------------------------------------------------
# Composition lower bounds and the verifiers.

def composition_moments(mu: AtomicMeasure, phi: DiskSelfMap, count: int) -> np.ndarray:
    """g_m = sum_j c_j conj((P_phi z^m)(zeta_j)): the composed dual moments.

    These are the pairing coefficients of f o phi against monomials, so
    |sum_m conj(b_m) g_m| = |<f o phi, h>| for h with coefficients b.
    One evaluator call gives the rows of all atoms; conj(c_j) row_j are
    added in atom order, and the sum is conjugated once, which is exact.
    """
    limits = monomial_limit_evaluator(phi, count)
    rows = limits(np.array([pos.value for pos, _ in mu.atoms]))
    g = np.zeros(count, dtype=complex)
    for (_, w), row in zip(mu.atoms, rows):  # in atom order
        g += w.conjugate() * row
    return np.conjugate(g, out=g)


def composition_knorm_lower(
    mu: AtomicMeasure, phi: DiskSelfMap, degree_cap: int = 8
) -> tuple[float, DiskAlgebraPoly]:
    """Certified lower bound for the transform norm of (K_mu) o phi."""
    g = composition_moments(mu, phi, degree_cap + 1)
    value, b = _dual_search(g, degree_cap)
    return value, _witness_poly(b)


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    inputs: dict
    lower: float
    upper: float
    bound: float
    passed: bool
    witnesses: dict
    notes: tuple[str, ...] = ()

    def to_obj(self) -> dict:
        obj = {
            "claim": self.claim,
            "inputs": self.inputs,
            "lower": self.lower,
            "upper": self.upper,
            "bound": self.bound,
            "pass": self.passed,
            "witnesses": self.witnesses,
        }
        if self.notes:
            obj["notes"] = list(self.notes)
        return obj


def verify_lemma2(
    mu: AtomicMeasure,
    a,
    degree_cap: int = 8,
    tol: float = PASS_MARGIN,
) -> VerificationReport:
    """Check the Möbius composition bound: lower(f o lambda_a) <= (1+2|a|)/(1-|a|) * tv."""
    a_pt = a if isinstance(a, DiskPoint) else DiskPoint(complex(a))
    phi = MobiusSelfMap(a_pt)
    lower, witness = composition_knorm_lower(mu, phi, degree_cap)
    upper = tv_norm(mu)
    bound = bound_cima_matheson(abs(a_pt.value))
    passed = lower <= bound * upper + tol
    return VerificationReport(
        claim=f"composed-with-mobius norm bound at |a| = {abs(a_pt.value):.6g}",
        inputs={"measure": measure_to_obj(mu), "a": [a_pt.value.real, a_pt.value.imag]},
        lower=lower,
        upper=upper,
        bound=bound,
        passed=passed,
        witnesses={"h": poly_to_obj(witness), "ratio_to_ceiling": lower / (bound * upper)},
    )


def verify_lemma1(
    mu: AtomicMeasure,
    psi: DiskSelfMap,
    degree_cap: int = 8,
    tol: float = PASS_MARGIN,
    base_point_tol: float = DEFAULT_TOLERANCES["base_point"],
) -> VerificationReport:
    """Check the base-point-fixing contraction: lower(f o psi) <= tv.

    Requires |psi(0)| <= ``base_point_tol``.
    """
    psi0 = abs(psi.at_zero())
    if psi0 > base_point_tol:
        raise PreconditionError(f"precondition psi(0)=0 violated: |psi(0)| = {psi0:.3g}")
    lower, witness = composition_knorm_lower(mu, psi, degree_cap)
    upper = tv_norm(mu)
    passed = lower <= upper + tol
    return VerificationReport(
        claim="composition with a base-point-fixing self-map does not increase the norm",
        inputs={"measure": measure_to_obj(mu), "psi": self_map_to_obj(psi)},
        lower=lower,
        upper=upper,
        bound=1.0,
        passed=passed,
        witnesses={"h": poly_to_obj(witness)},
        notes=(f"route: {limit_route(psi)}",),
    )


def verify_eq1(
    mu: AtomicMeasure,
    phi: DiskSelfMap,
    degree_cap: int = 8,
    tol: float = PASS_MARGIN,
    residual_tol: float = DEFAULT_TOLERANCES["factorize_residual"],
    base_point_tol: float = DEFAULT_TOLERANCES["base_point"],
) -> VerificationReport:
    """Run the full pipeline: factorize phi, check the Möbius step, then the
    end-to-end bound lower(f o phi) <= (1 + 2|phi(0)|)/(1 - |phi(0)|) * tv.

    The factorization must reconstruct phi to ``residual_tol`` with
    |psi(0)| <= ``base_point_tol``.
    """
    base, psi = schwarz_factorize(phi)
    residual = factorization_residual(phi, base, psi)
    psi0 = abs(psi.at_zero())
    mobius_step = verify_lemma2(mu, base, degree_cap, tol)
    if isinstance(phi, MobiusSelfMap):
        # phi is lambda_a with a = phi(0): the Möbius step solved this problem.
        lower, witness_obj = mobius_step.lower, mobius_step.witnesses["h"]
    else:
        lower, witness = composition_knorm_lower(mu, phi, degree_cap)
        witness_obj = poly_to_obj(witness)
    upper = tv_norm(mu)
    bound = bound_cima_matheson(abs(base.value))
    passed = (
        mobius_step.passed
        and lower <= bound * upper + tol
        and residual <= residual_tol
        and psi0 <= base_point_tol
    )
    notes = [f"route: {limit_route(phi)}"]
    if phi.sup_bound >= 1.0 - 1e-12 and limit_route(phi) == "quadrature-sweep":
        notes.append("boundary-contact: limit not guaranteed")
    return VerificationReport(
        claim=f"composition norm bound at |phi(0)| = {abs(base.value):.6g}",
        inputs={"measure": measure_to_obj(mu), "phi": self_map_to_obj(phi)},
        lower=lower,
        upper=upper,
        bound=bound,
        passed=passed,
        witnesses={
            "h": witness_obj,
            "factorization": {
                "a": [base.value.real, base.value.imag],
                "psi_at_zero": psi0,
                "reconstruction_residual": residual,
            },
            "mobius_step": mobius_step.to_obj(),
        },
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Sharpness scan: how close does the extremal measure get to the ceiling?

@dataclass(frozen=True)
class ScanRow:
    """One scan row: the certified ratio lower(f o lambda_a) / tv(mu) that
    the unit point mass at 1 reaches, against the ceiling ``bound``."""

    a: float
    ratio: float
    bound: float

    @property
    def margin(self) -> float:
        return self.bound - self.ratio


def _scan_row(a: float, degree_cap: int) -> ScanRow:
    mu = point_mass(0.0)
    phi = MobiusSelfMap(DiskPoint(complex(a)))
    lower, _ = composition_knorm_lower(mu, phi, degree_cap)
    # tv(mu) = 1, so the certified lower bound is the ratio itself.
    return ScanRow(a=a, ratio=lower, bound=bound_cima_matheson(a))


def sharpness_scan(a_values, degree_cap: int = 6) -> list[ScanRow]:
    """Certify how much of the ceiling (1 + 2a)/(1 - a) the extremal measure
    reaches for each real a in [0, 0.95].

    Each row evaluates the unit point mass at zeta = 1 (= a/|a|) under
    lambda_a and certifies its ratio lower(f o lambda_a) / tv with one dual
    search.  Rows record achieved ratios only; nothing asserts that the
    ceiling is reached, and no ratio can exceed bound + rounding because
    every lower bound is certified.

    Why no other measure is tried: by the F. and M. Riesz theorem the unit
    atom at zeta has composed norm |a|/|1 - conj(zeta) a| +
    (1 - |a|^2)/|1 - conj(zeta) a|^2, which at zeta = 1 equals the ceiling,
    and ||f o lambda_a|| <= sum_j |c_j| ||K_{zeta_j} o lambda_a|| for
    f = sum_j c_j K_{zeta_j}, so no measure has a larger ratio.  The same
    holds for the moments the dual search pairs against, the proxy
    max_m |g_m| / tv: |P 1 (zeta)| = 1/|1 - zeta a| <= 1/(1 - a) and
    |P z^m (zeta)| = (1 - a^2)/|1 - zeta a|^2 <= (1 + a)/(1 - a), both
    attained at zeta = 1, while |g_m| <= sum_j |c_j| |k_m(zeta_j)| means a
    mixture cannot beat its best atom.  A search over multi-atom measures
    that starts from this atom therefore never leaves it.
    """
    rows = []
    for a in a_values:
        if not 0.0 <= a <= 0.95:
            raise ValueError("scan values must lie in [0, 0.95]")
        rows.append(_scan_row(float(a), degree_cap))
    return rows
