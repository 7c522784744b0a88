"""Primitives on the unit circle and disk.

Points of the open disk and the circle, the Möbius involutions
``lambda_a(z) = (a - z)/(1 - conj(a) z)``, and the equispaced quadrature
grid that discretizes the normalized arc-length measure ``dm``.  The grid
rule is the periodic trapezoid rule, which is spectrally accurate for
integrands analytic in an annulus around the circle: on s < |t| < 1/s its
error falls like s^N, so grids are doubled until two successive values
agree.  A caller picks the contour that makes s small; ``kernel_op``
samples on shifted circles, where s = r/rho.  The rule nests: the N nodes
of a grid are the even nodes of the 2N grid, so each doubling evaluates the
integrand only at the N new midpoints and averages the two rules,
T_2N = (T_N + M_N)/2 (Trefethen and Weideman, SIAM Review 56, 2014).

The readers of JSON number literals live here too, so that every loader
can share them.  Everything in this module is an immutable value or a pure
function; all objects are safe to share between threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

# Strict interiority: |z| >= 1 - DISK_EDGE_TOL is rejected as a disk point.
DISK_EDGE_TOL = 1e-15

# Closed-disk membership checks allow this much rounding slop.
CLOSED_DISK_TOL = 1e-12

DEFAULT_GRID_SIZE = 512
MAX_GRID_SIZE = 1 << 16
GRID_STABILITY_TOL = 1e-12


class NonConvergenceError(RuntimeError):
    """A grid refinement or radial limit failed to stabilize within budget."""


@dataclass(frozen=True)
class DiskPoint:
    """A point strictly inside the open unit disk."""

    value: complex

    def __post_init__(self) -> None:
        v = complex(self.value)
        object.__setattr__(self, "value", v)
        if not abs(v) < 1.0 - DISK_EDGE_TOL:  # also rejects NaN
            raise ValueError(f"not strictly inside the unit disk: {v!r}")


@dataclass(frozen=True)
class CirclePoint:
    """The point exp(i*angle) on the unit circle, angle normalized to [0, 2pi)."""

    angle: float

    def __post_init__(self) -> None:
        a = math.fmod(float(self.angle), TWO_PI)
        if a < 0.0:
            a += TWO_PI
        if a >= TWO_PI:  # fmod can land exactly on 2pi after the shift
            a = 0.0
        object.__setattr__(self, "angle", a)

    @cached_property
    def value(self) -> complex:
        return cmath.exp(1j * self.angle)


def complex_from_obj(obj) -> complex:
    """A finite complex number from a JSON number or ``[re, im]`` pair.

    Raises ValueError for anything else, booleans and strings included.
    """
    parts = obj if isinstance(obj, (list, tuple)) and len(obj) == 2 else (obj, 0.0)
    if any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in parts):
        raise ValueError(f"expected a number or [re, im] pair, got {obj!r}")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except OverflowError:  # an integer literal beyond the float range
        z = cmath.inf
    if not cmath.isfinite(z):
        raise ValueError(f"expected finite numbers, got {obj!r}")
    return z


def real_from_obj(obj) -> float:
    """A finite real number from a JSON number, by ``complex_from_obj``'s rule."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValueError(f"expected a number, got {obj!r}")
    return complex_from_obj(obj).real


def require_closed_disk(z) -> None:
    """Raise ValueError unless every |z| <= 1 + ``CLOSED_DISK_TOL``."""
    if np.max(np.abs(z)) > 1.0 + CLOSED_DISK_TOL:
        raise ValueError("argument lies outside the closed unit disk")


def mobius_lambda(a, z, scale=None):
    """``lambda_a(z) = (a - z)/(1 - conj(a) z)`` with no checks, scalar or array ``z``.

    A ``scale`` multiplies the numerator before the division, as the
    residue formula evaluates its pole ``r lambda_a(zeta)``.
    """
    denom = 1.0 - np.conjugate(a) * z
    # One expression, so numpy divides into the numerator's temporary array.
    return (a - z if scale is None else scale * (a - z)) / denom


def mobius_eval(a: DiskPoint, z):
    """Evaluate lambda_a at ``z`` (scalar or array) with |z| <= 1.

    Maps the open disk onto itself and the circle onto itself; the
    denominator cannot vanish for |a| < 1, |z| <= 1, so a vanishing
    denominator signals corrupted inputs rather than a user error.
    """
    require_closed_disk(z)
    denom = 1.0 - np.conjugate(a.value) * z
    if np.min(np.abs(denom)) < 1e-15:
        raise ArithmeticError("Möbius denominator vanished on the closed disk")
    return (a.value - z) / denom


@dataclass(frozen=True)
class QuadratureGrid:
    """N equispaced circle nodes t_k = exp(2 pi i k / N), each with weight 1/N.

    With ``midpoints``, the N nodes exp(2 pi i (2k+1) / (2N)) halfway
    between those instead: the odd nodes of the 2N grid.  The node array
    is read-only.
    """

    node_count: int
    midpoints: bool = False

    def __post_init__(self) -> None:
        n = int(self.node_count)
        object.__setattr__(self, "node_count", n)
        if n < 1:
            raise ValueError("node_count must be a positive integer")

    @cached_property
    def nodes(self) -> np.ndarray:
        n = self.node_count
        # The same expression as the 2N grid's, so its odd nodes match bit for bit.
        k, count = (np.arange(1, 2 * n, 2), 2 * n) if self.midpoints else (np.arange(n), n)
        nodes = np.exp(2j * np.pi * k / count)
        nodes.setflags(write=False)
        return nodes

    @property
    def weight(self) -> float:
        return 1.0 / self.node_count


def grid_integrate(grid: QuadratureGrid, samples) -> complex:
    """Mean of the samples: the trapezoid rule for integrals against dm."""
    samples = np.asarray(samples)
    if samples.shape != (grid.node_count,):
        raise ValueError(
            f"expected {grid.node_count} samples, got shape {samples.shape}"
        )
    return complex(np.mean(samples))


@lru_cache(maxsize=8)
def _refinement_grid(node_count: int, midpoints: bool) -> QuadratureGrid:
    """The grids ``refine_until_stable`` evaluates, each built once per process:
    the ``DEFAULT_GRID_SIZE`` grid and one midpoint grid per doubling, 8 in all."""
    return QuadratureGrid(node_count, midpoints)


def refine_until_stable(evaluate: Callable[[QuadratureGrid], complex]) -> tuple[complex, int]:
    """Double the grid from ``DEFAULT_GRID_SIZE`` nodes until two successive
    values differ by less than ``GRID_STABILITY_TOL``.

    Each doubling calls ``evaluate`` only on the N midpoints of the current
    N-node grid and averages the two rules, T_2N = (T_N + M_N)/2, so a
    refinement that stops at N nodes evaluates N nodes in all.  Returns the
    stabilized value and the node count that achieved it.  Raises
    NonConvergenceError when ``MAX_GRID_SIZE`` is reached, which happens
    for integrands whose analyticity annulus is too thin for it.
    """
    n = DEFAULT_GRID_SIZE
    prev = evaluate(_refinement_grid(n, False))
    while n <= MAX_GRID_SIZE // 2:
        cur = (prev + evaluate(_refinement_grid(n, True))) / 2
        n *= 2
        if abs(cur - prev) < GRID_STABILITY_TOL:
            return cur, n
        prev = cur
    raise NonConvergenceError(
        f"quadrature did not stabilize to {GRID_STABILITY_TOL:g} within {MAX_GRID_SIZE} nodes"
    )


def circle_angles(count: int) -> np.ndarray:
    """``count`` equispaced angles in [0, 2pi), starting at 0."""
    if count < 1:
        raise ValueError("count must be positive")
    return TWO_PI * np.arange(count) / count


def disk_grid(radial: int = 16, angular: int = 16, max_radius: float = 0.999) -> np.ndarray:
    """A polar test grid in the open disk, radii up to ``max_radius``."""
    radii = np.linspace(max_radius / radial, max_radius, radial)
    angles = circle_angles(angular)
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
