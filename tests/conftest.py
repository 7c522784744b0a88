import math

import hypothesis
import numpy as np

from cstrans.circle import TWO_PI, circle_angles
from cstrans.disk_algebra import DiskAlgebraPoly, certified_sup, default_sample_count, horner, poly_eval
from cstrans.measures import AtomicMeasure, atomic_measure

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


def sampled_bound_oracle(row, sample_count: int) -> float:
    """The sampled peak of one coefficient row divided by
    sqrt(1 - (d pi/N)^2 / 2), with d read off its last nonzero coefficient."""
    nonzero = np.flatnonzero(row)
    d = int(nonzero[-1]) if nonzero.size else 0
    peak = float(np.max(np.abs(horner(row, np.exp(1j * circle_angles(sample_count))))))
    return peak / math.sqrt(1.0 - 0.5 * (d * math.pi / sample_count) ** 2)


def certified_sup_oracle(row) -> float:
    """The smaller of the sampled bound at max(256, 64 d) samples and sum |c_k|."""
    nonzero = np.flatnonzero(row)
    d = int(nonzero[-1]) if nonzero.size else 0
    return min(sampled_bound_oracle(row, max(256, 64 * d)), float(np.sum(np.abs(row))))


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
