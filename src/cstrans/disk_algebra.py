"""Polynomial test functions with certified boundary sup-norms.

The dual pairing in ``norm_engine`` ranges over the unit ball of the disk
algebra; polynomials are dense there and admit a cheap rigorous sup-norm
certificate from N equispaced samples t_k = exp(2 pi i k/N).  For h of
degree d, T(theta) = |h(e^{i theta})|^2 is a nonnegative trigonometric
polynomial of degree d with sup T = sup|h|^2, and Bernstein's inequality
applied twice gives |T''| <= d^2 sup T on the circle (Borwein and
Erdélyi, *Polynomials and Polynomial Inequalities*, Springer 1995,
chapter 5).  T attains its maximum at some theta*, where T'(theta*) = 0,
and the nearest node lies within pi/N of theta*, so Taylor's theorem gives

    max_k T(theta_k) >= sup T (1 - d^2 pi^2 / (2 N^2)).

Dividing the sampled peak of |h| by sqrt(1 - (d pi/N)^2 / 2) therefore
bounds sup|h| from above; the loss is quadratic in d pi/N.  The rounding
of the samples, all from one inverse FFT (``circle_samples``), is not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import require_closed_disk

# Automated searches never go past this degree; certification cost grows
# linearly while pairing suprema against smooth kernels gain little.
SEARCH_DEGREE_CAP = 64


def _as_coeff_array(coeffs) -> np.ndarray:
    """``coeffs`` as a 1-d complex array; arrays skip the ``list`` round trip."""
    arr = np.asarray(coeffs if isinstance(coeffs, np.ndarray) else list(coeffs), dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coeffs must be a nonempty 1-d sequence")
    return arr


def _degree(arr: np.ndarray) -> int:
    """The index of the last nonzero coefficient (0 for the zero polynomial)."""
    nonzero = np.flatnonzero(arr)
    return int(nonzero[-1]) if nonzero.size else 0


def poly_degree(coeffs) -> int:
    """Degree after trimming trailing zero coefficients (0 for the zero poly)."""
    return _degree(_as_coeff_array(coeffs))


def default_sample_count(degree: int) -> int:
    return max(256, 64 * degree)


def coefficient_sum_bound(coeffs) -> float:
    """Crude but exact upper bound sum |c_k| >= sup |h| on the circle."""
    return float(np.sum(np.abs(_as_coeff_array(coeffs))))


def horner(coeffs, z):
    """Horner evaluation with no checks; ``coeffs`` lowest degree first.

    Returns a complex for scalar ``z`` and an array otherwise.
    """
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in coeffs[::-1]:
        acc = acc * z + c
    return complex(acc) if np.ndim(z) == 0 else acc


def poly_eval(coeffs_or_poly, z):
    """Horner evaluation on the closed disk (scalar or array argument)."""
    coeffs = (
        coeffs_or_poly.coeffs
        if isinstance(coeffs_or_poly, DiskAlgebraPoly)
        else coeffs_or_poly
    )
    arr = _as_coeff_array(coeffs)
    require_closed_disk(z)
    return horner(arr, z)


def circle_samples(coeffs, sample_count: int) -> np.ndarray:
    """h(exp(2 pi i k/N)), k < N, by one unnormalised inverse FFT of at most N coeffs."""
    return np.fft.ifft(coeffs, sample_count, norm="forward")


def certify_sup_norm(coeffs, sample_count: int) -> float:
    """Certified upper bound for sup |h| on the circle from equispaced samples.

    Returns max_k |h(t_k)| / sqrt(1 - (d pi/N)^2 / 2), which dominates
    sup |h| because the squared modulus, a nonnegative trigonometric
    polynomial of degree d, falls by at most a factor 1 - (d pi/N)^2 / 2
    from its maximum to the nearest node (the module docstring has the
    proof).  The bound needs N > pi d / sqrt(2); the check asks for N > pi d.
    """
    arr = _as_coeff_array(coeffs)
    d = _degree(arr)
    if sample_count <= math.pi * d:
        raise ValueError(f"sample_count {sample_count} too small for degree {d}")
    if not arr.any():
        return 0.0
    peak = float(np.abs(circle_samples(arr[: d + 1], sample_count)).max())
    return peak / math.sqrt(1.0 - 0.5 * (d * math.pi / sample_count) ** 2)


def certified_sup(coeffs, sample_count: int | None = None) -> float:
    """The smaller of the two sound sup-norm bounds: sampled and coefficient sum.

    ``sample_count`` defaults to ``default_sample_count`` of the degree.
    """
    arr = _as_coeff_array(coeffs)
    if sample_count is None:
        sample_count = default_sample_count(_degree(arr))
    return min(certify_sup_norm(arr, sample_count), float(np.abs(arr).sum()))


@dataclass(frozen=True)
class DiskAlgebraPoly:
    """A polynomial together with a certified upper bound for its sup-norm.

    ``certified_sup`` always dominates the true boundary sup-norm and never
    exceeds the coefficient-sum bound (the constructor's certificate is the
    smaller of the Bernstein-corrected sample maximum and the coefficient
    sum, both of which are sound).
    """

    coeffs: tuple[complex, ...]
    certified_sup: float

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "certified_sup", float(self.certified_sup))
        if not coeffs:
            raise ValueError("empty coefficient list")
        if self.certified_sup < 0:
            raise ValueError("certified_sup must be nonnegative")
        if self.certified_sup > coefficient_sum_bound(coeffs) * (1 + 1e-12):
            raise ValueError("certified_sup exceeds the coefficient-sum bound")

    @property
    def degree(self) -> int:
        return poly_degree(self.coeffs)

    def __call__(self, z):
        return poly_eval(self.coeffs, z)


def make_poly(coeffs) -> DiskAlgebraPoly:
    """Certify and wrap raw coefficients."""
    arr = _as_coeff_array(coeffs)
    return DiskAlgebraPoly(tuple(arr), certified_sup(arr))


def monomial(m: int) -> DiskAlgebraPoly:
    """z^m with exact certificate 1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    coeffs = (0.0 + 0.0j,) * m + (1.0 + 0.0j,)
    return DiskAlgebraPoly(coeffs, 1.0)


def poly_to_obj(h: DiskAlgebraPoly) -> dict:
    return {
        "coeffs": [[float(c.real), float(c.imag)] for c in h.coeffs],
        "certified_sup": float(h.certified_sup),
    }
