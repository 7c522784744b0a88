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
bounds sup|h| from above; the loss is quadratic in d pi/N.  Horner's
rounding in the samples is not counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circle import circle_angles, require_closed_disk

# Automated searches never go past this degree; certification cost grows
# linearly while pairing suprema against smooth kernels gain little.
SEARCH_DEGREE_CAP = 64


def _as_coeff_array(coeffs, max_ndim: int = 1) -> np.ndarray:
    """``coeffs`` as a complex array: one row, or a stack of rows where
    ``max_ndim`` is 2.  Arrays skip the ``list`` round trip."""
    arr = np.asarray(coeffs if isinstance(coeffs, np.ndarray) else list(coeffs), dtype=complex)
    if not 1 <= arr.ndim <= max_ndim or arr.size == 0:
        shape = "1-d sequence" if max_ndim == 1 else "1-d or 2-d array"
        raise ValueError(f"coeffs must be a nonempty {shape}")
    return arr


def _degrees(arr: np.ndarray):
    """The index of the last nonzero coefficient (0 for the zero polynomial):
    an int for one row, an array with one per row for a stack."""
    if arr.ndim == 1:
        nonzero = np.flatnonzero(arr)
        return int(nonzero[-1]) if nonzero.size else 0
    return ((arr != 0) * np.arange(arr.shape[-1])).max(-1)


def poly_degree(coeffs) -> int:
    """Degree after trimming trailing zero coefficients (0 for the zero poly)."""
    return _degrees(_as_coeff_array(coeffs))


def default_sample_count(degree: int) -> int:
    return max(256, 64 * degree)


def coefficient_sum_bound(coeffs) -> float:
    """Crude but exact upper bound sum |c_k| >= sup |h| on the circle."""
    return float(np.sum(np.abs(_as_coeff_array(coeffs))))


def horner(coeffs, z):
    """Horner evaluation with no checks; ``coeffs`` lowest degree first.

    Returns a complex for scalar ``z`` and an array otherwise.  A 2-d array
    of ``coeffs`` is a stack of rows and gives one row of values per row.
    """
    if getattr(coeffs, "ndim", 1) == 2:
        coeffs = coeffs.T[:, :, None]
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


@lru_cache(maxsize=16)
def _circle_nodes(sample_count: int) -> np.ndarray:
    nodes = np.exp(1j * circle_angles(sample_count))
    nodes.setflags(write=False)
    return nodes


def _bernstein_factor(degree: int, sample_count: int) -> float:
    return math.sqrt(1.0 - 0.5 * (degree * math.pi / sample_count) ** 2)


def certify_sup_norm(coeffs, sample_count: int) -> float | np.ndarray:
    """Certified upper bound for sup |h| on the circle from equispaced samples.

    Returns max_k |h(t_k)| / sqrt(1 - (d pi/N)^2 / 2), which dominates
    sup |h| because the squared modulus, a nonnegative trigonometric
    polynomial of degree d, falls by at most a factor 1 - (d pi/N)^2 / 2
    from its maximum to the nearest node (the module docstring has the
    proof).  The bound needs N > pi d / sqrt(2); the check asks for N > pi d.

    ``coeffs`` may also be a 2-d stack of coefficient rows.  One Horner
    pass then samples every row, each row's bound uses that row's own
    degree d, and the result is an array of bounds, each bit for bit the
    row's own certificate.  The check applies to the largest degree.
    """
    arr = _as_coeff_array(coeffs, max_ndim=2)
    degs = _degrees(arr)
    d = degs if arr.ndim == 1 else int(degs.max())
    if sample_count <= math.pi * d:
        raise ValueError(f"sample_count {sample_count} too small for degree {d}")
    if not arr.any():
        return 0.0 if arr.ndim == 1 else np.zeros(arr.shape[0])
    peaks = np.abs(horner(arr, _circle_nodes(sample_count))).max(-1)
    if arr.ndim == 1:
        return float(peaks) / _bernstein_factor(d, sample_count)
    return peaks / np.array([_bernstein_factor(k, sample_count) for k in degs.tolist()])


def certified_sup(coeffs, sample_count: int | None = None) -> float | np.ndarray:
    """The smaller of the two sound sup-norm bounds: sampled and coefficient sum.

    ``sample_count`` defaults to ``default_sample_count`` of the degree.
    A 2-d stack of coefficient rows gives an array of bounds, each bit for
    bit the row's own; rows that share a sample count share one
    ``certify_sup_norm`` call.
    """
    arr = _as_coeff_array(coeffs, max_ndim=2)
    sums = np.abs(arr).sum(-1)
    if sample_count is not None:
        sampled = certify_sup_norm(arr, sample_count)
    elif arr.ndim == 1:
        sampled = certify_sup_norm(arr, default_sample_count(_degrees(arr)))
    else:
        counts = np.array([default_sample_count(d) for d in _degrees(arr).tolist()])
        sampled = np.empty(arr.shape[0])
        for n in set(counts.tolist()):
            rows = counts == n
            sampled[rows] = certify_sup_norm(arr[rows], n)
    return min(sampled, float(sums)) if arr.ndim == 1 else np.minimum(sampled, sums)


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
