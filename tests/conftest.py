import math

import hypothesis
import mpmath
import numpy as np

from cstrans.circle import TWO_PI, circle_angles
from cstrans.disk_algebra import (
    DiskAlgebraPoly,
    certified_sup,
    circle_samples,
    default_sample_count,
    horner,
    poly_eval,
)
from cstrans.measures import AtomicMeasure, atomic_measure
from cstrans.norm_engine import (
    _BARRIER_ROUNDS,
    _BARRIER_START,
    _BARRIER_STEP,
    _DUAL_GAP,
    _MIN_STEP,
    _NEWTON_STEPS,
    _NEWTON_TOL,
    _SLACK_KEPT,
    _monomial_is_optimal,
)

hypothesis.settings.register_profile(
    "ci", deadline=None, derandomize=True, max_examples=60
)
hypothesis.settings.load_profile("ci")


def sample_unit_ball(degree: int, seed: int) -> DiskAlgebraPoly:
    """A random polynomial scaled into the certified unit ball.

    Coefficients are drawn uniformly from the complex square
    [-1,1] x [-1,1] (deterministically in ``seed``) and divided by the
    certified sup-norm of the draw, so the result's certificate is <= 1.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, degree + 1) + 1j * rng.uniform(-1.0, 1.0, degree + 1)
    n = default_sample_count(degree)
    scale = certified_sup(coeffs, n)
    if scale == 0.0:  # zero draw has probability zero but stay defensive
        coeffs[0] = 1.0
        scale = 1.0
    scaled = coeffs / scale
    # Rescaling by a sound certificate keeps the true sup <= 1, so 1.0 is
    # itself a sound certificate; take the smaller of the two.
    cert = min(certified_sup(scaled, n), 1.0)
    return DiskAlgebraPoly(tuple(scaled), cert)


def sampled_peak_40(row, sample_count: int) -> mpmath.mpf:
    """max_k |h(t_k)| over t_k = exp(2 pi i k/N), in mpmath at 40 digits.

    A float Horner pass picks the candidate nodes: every node whose float
    modulus is within 1e-11 sum |c_k| of the float peak, a margin far above
    the float pass's rounding.  Only those are evaluated at 40 digits.
    """
    row = np.asarray(row, dtype=complex)
    if not row.any():
        return mpmath.mpf(0)
    approx = np.abs(horner(row, np.exp(1j * circle_angles(sample_count))))
    candidates = np.flatnonzero(approx >= approx.max() - 1e-11 * np.abs(row).sum())
    with mpmath.workdps(40):
        coeffs = [mpmath.mpc(c) for c in row[::-1]]  # exact conversions
        return max(
            abs(mpmath.polyval(coeffs, mpmath.expjpi(mpmath.mpf(2 * int(k)) / sample_count)))
            for k in candidates
        )


def pairing(mu: AtomicMeasure, h: DiskAlgebraPoly) -> complex:
    """<K_mu, h> = sum_j c_j conj(h(zeta_j)): the exact radial limit."""
    return complex(np.sum(mu.weights * np.conjugate(poly_eval(h, mu.positions))))


def cauchy_eval(mu: AtomicMeasure, z):
    """Evaluate the Cauchy transform of mu at z (scalar or array), |z| < 1 strictly."""
    if np.max(np.abs(z)) >= 1.0:
        raise ValueError("Cauchy transforms are evaluated strictly inside the disk")
    zeta_bar = np.conjugate(mu.positions)
    w = mu.weights
    zz = np.asarray(z)
    vals = np.sum(w / (1.0 - np.multiply.outer(zz, zeta_bar)), axis=-1)
    return complex(vals) if np.ndim(z) == 0 else vals


def bound_bourdon_cima(a_mod: float) -> float:
    """(2 + 2 sqrt 2) / (1 - |a|) for |a| in [0, 1)."""
    if not 0.0 <= a_mod < 1.0:
        raise ValueError("a_mod must lie in [0, 1)")
    return (2.0 + 2.0 * math.sqrt(2.0)) / (1.0 - a_mod)


def monomial_pushforward(mu: AtomicMeasure, n: int) -> AtomicMeasure:
    """The measure nu with K_nu(z) = K_mu(z^n).

    Each atom (zeta, c) spreads over the n-th roots of zeta with weight
    c/n, so the total variation is preserved exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return mu
    pairs = []
    for pos, w in mu.atoms:
        for m in range(n):
            pairs.append(((pos.angle + TWO_PI * m) / n, w / n))
    return atomic_measure(pairs)


# A plain-step barrier solve of the grid problem that ``norm_engine._barrier``
# solves: it starts at t = n/||g||, takes uncapped Armijo steps that
# re-evaluate F at each trial, and makes three FFT calls a step.  It is the
# oracle that the tests hold the barrier's certified values against.
def reference_barrier(g: np.ndarray, degree_cap: int) -> np.ndarray:
    """Near-optimal b for max Re <b, g> subject to |h_b(t_k)| <= 1.

    A path-following log-barrier method (Boyd and Vandenberghe, *Convex
    Optimization*, 2004, sections 11.3-11.5) on the grid t_k = exp(2 pi i
    k/n), n = 2 * ``default_sample_count``: from b = 0, Newton's method with
    a backtracking line search minimises

        F_t(b) = -t Re <b, g> - sum_k log s_k,   s_k = 1 - |h_b(t_k)|^2,

    over the real and imaginary parts of b, and t grows by ``_BARRIER_STEP``
    per round.  The minimiser at t is within n/t of the grid optimum (one
    dual variable per node), so the solve stops once 2n/t <= ``_DUAL_GAP``
    Re <b, g>, the factor 2 leaving room for the approximate centring.  The
    grid is twice the certificate's default because |h_b| overshoots
    between nodes; ``_tight_value`` certifies b on a grid four times finer,
    where its second-order bound charges at most a relative 9.4e-6 for the
    overshoot it samples.

    Every product is an FFT and Z = [t_k^m] is never formed: h_b = n
    ifft(b), the gradient is 2 fft(h/s)[m] - t g_m, and with q = 2/s^2 the
    Hessian's quadratic form is delta^H T delta + Re(delta^T H delta), T
    Toeplitz with T_ij = n ifft(q)[j - i] and H Hankel with H_ij = n
    ifft(q conj(h)^2)[i + j], that is the real block matrix
    [[Re(T + H), -Im(T + H)], [Im(T - H), Re(T - H)]] on (Re delta, Im
    delta); both lag sequences come from one ifft of the stacked pair, and
    the slack s of an accepted line-search point serves the next step.
    The only dense work is one real 2(d+1)-square solve per step,
    and g is first scaled to max |g_m| = 1, which leaves the maximiser
    unchanged.  Each iterate is strictly feasible on the grid; a
    singular or non-finite solve, a non-finite objective or a failed line
    search returns the last one, and both the rounds and the Newton steps
    per round are bounded.
    """
    w = g.size
    b = np.zeros(w, dtype=complex)
    scale = float(np.abs(g).max())
    if not 0.0 < scale < np.inf:
        return b
    g = g / scale
    n = 2 * default_sample_count(degree_cap)
    m = np.arange(w)
    toeplitz = (m[None, :] - m[:, None]) % n  # j - i as an index into the n lags
    hankel = m[None, :] + m[:, None]  # i + j < n
    hess = np.empty((2 * w, 2 * w))
    h = np.zeros(n, dtype=complex)  # h_b on the grid

    def objective(b: np.ndarray, h: np.ndarray, t: float) -> tuple[float, np.ndarray]:
        # F_t(b), and the slack s that the next Newton step reuses
        s = 1.0 - (h.real * h.real + h.imag * h.imag)
        if not s.min() > 0.0:
            return np.inf, s
        return -t * float(np.vdot(b, g).real) - float(np.log(s).sum()), s

    t = n / float(np.linalg.norm(g))  # at least n / sqrt(d + 1)
    with np.errstate(all="ignore"):
        for _ in range(_BARRIER_ROUNDS):
            value, s = objective(b, h, t)
            for _ in range(_NEWTON_STEPS):
                if not np.isfinite(value):
                    return b
                grad = 2.0 * np.fft.fft(h / s)[:w] - t * g
                q = 2.0 / (s * s)
                lags = n * np.fft.ifft(np.stack((q, q * np.conjugate(h) ** 2)))
                tp, hk = lags[0][toeplitz], lags[1][hankel]
                hess[:w, :w] = tp.real + hk.real
                hess[:w, w:] = -tp.imag - hk.imag
                hess[w:, :w] = tp.imag - hk.imag
                hess[w:, w:] = tp.real - hk.real
                r = np.concatenate((grad.real, grad.imag))
                try:
                    p = np.linalg.solve(hess, -r)
                except np.linalg.LinAlgError:
                    return b
                decrement = -float(r @ p)  # squared Newton decrement
                if not np.isfinite(decrement):
                    return b
                if decrement <= 2.0 * _NEWTON_TOL:
                    break
                step = p[:w] + 1j * p[w:]
                dh = n * np.fft.ifft(step, n)
                tau, slope = 1.0, 0.25 * decrement  # Armijo: F falls by tau * slope
                while True:
                    trial_b, trial_h = b + tau * step, h + tau * dh
                    trial, trial_s = objective(trial_b, trial_h, t)
                    if not trial > value - tau * slope:
                        break
                    tau *= 0.5
                    if tau < _MIN_STEP:
                        return b
                b, h, value, s = trial_b, trial_h, trial, trial_s
            if 2.0 * n <= _DUAL_GAP * t * float(np.vdot(b, g).real):
                break
            t *= _BARRIER_STEP
    return b


# The dual search with one grid: every barrier round on 2 *
# ``default_sample_count`` nodes, from t = 100 n/||g|| with capped steps and
# the stop test 2n/t <= ``_DUAL_GAP`` Re <b, g> after every round, centred or
# not, and the solved witness certified on that same grid.  The tests hold
# ``_dual_search`` to its values with no tolerance.
def single_grid_barrier(g: np.ndarray, degree_cap: int) -> np.ndarray:
    """Near-optimal b for max Re <b, g> subject to |h_b(t_k)| <= 1 on the
    2 * ``default_sample_count`` grid, every round on that grid."""
    w = g.size
    b = np.zeros(w, dtype=complex)
    scale = float(np.abs(g).max())
    if not 0.0 < scale < np.inf:
        return b
    g = g / scale
    n = 2 * default_sample_count(degree_cap)
    # The Hessian's gathers, laid out as in ``norm_engine._centre``.
    m = np.arange(2 * w) // 2
    imag = np.arange(2 * w) % 2 == 1
    part = imag[:, None] ^ imag[None, :]
    toeplitz = 2 * n + 2 * ((m[:, None] - m[None, :]) % n) + part
    hankel = 4 * n + 2 * (m[:, None] + m[None, :]) + part
    toeplitz_scale = 2.0 - 4.0 * (~imag[:, None] & imag[None, :])
    hankel_scale = 2.0 - 4.0 * (imag[:, None] & imag[None, :])
    gf = g.view(float)
    rows = np.zeros((3, n), dtype=complex)  # h/s, 1/s^2 and (h/s)^2
    h = np.zeros(n, dtype=complex)  # h_b on the grid
    s = np.ones(n)  # its slack 1 - |h|^2
    logsum = 0.0  # sum log s
    t = _BARRIER_START * n / float(np.linalg.norm(g))  # at least 100 n / sqrt(d + 1)
    with np.errstate(all="ignore"):
        for _ in range(_BARRIER_ROUNDS):
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
                    return b
                decrement = -float(r @ p)  # squared Newton decrement
                if not np.isfinite(decrement):
                    return b
                if decrement <= 2.0 * _NEWTON_TOL:
                    break
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
                        return b
                next_h = h + tau * dh
                next_s = 1.0 - (next_h * np.conjugate(next_h)).real
                if not next_s.min() > 0.0:
                    return b
                b, h, s, logsum = b + tau * step, next_h, next_s, trial_log
            if 2.0 * n <= _DUAL_GAP * t * float(np.vdot(b, g).real):
                break
            t *= _BARRIER_STEP
    return b


def single_grid_value(g: np.ndarray, degree_cap: int) -> float:
    """The certified value of the one-grid dual search: the best monomial,
    or the one-grid solve certified on its own grid if it beats that."""
    moduli = np.abs(g)
    m = int(np.argmax(moduli))
    best = float(moduli[m])
    if _monomial_is_optimal(g, m):
        return best
    b = single_grid_barrier(g, degree_cap)
    cert = certified_sup(b, 2 * default_sample_count(degree_cap))
    value = 0.0 if cert == 0.0 else float(abs(np.vdot(b, g)) / cert)
    return value if value > best * (1 + 1e-15) else best
