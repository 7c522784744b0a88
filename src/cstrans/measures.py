"""Finitely atomic measures on the circle and their Cauchy transforms.

An atomic measure is a finite list of (circle point, complex weight)
pairs.  Its Cauchy transform ``f(z) = sum_j c_j / (1 - conj(zeta_j) z)``
is analytic on the open disk, with Taylor coefficients the measure's
moments (``taylor_coeffs``), and the total variation ``sum_j |c_j|`` is
an upper bound for the transform norm taken over all representing
measures (the matching lower bound comes from the dual pairing in
``norm_engine``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .circle import TWO_PI, CirclePoint, real_from_obj

# Atoms closer than this (angularly, on the circle) are merged at construction.
ATOM_MERGE_TOL = 1e-12

# Taylor coefficient requests beyond this serve no test and are refused.
MAX_TAYLOR_COUNT = 1 << 12


def _circular_gap(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


@dataclass(frozen=True)
class AtomicMeasure:
    """A nonzero finitely atomic measure on the unit circle.

    Construction sorts atoms by angle, merges atoms closer than
    ATOM_MERGE_TOL (summing their weights), and drops atoms whose merged
    weight vanished.  The result always has pairwise distinct positions
    and positive total variation.
    """

    atoms: tuple[tuple[CirclePoint, complex], ...]

    def __post_init__(self) -> None:
        cleaned: list[tuple[CirclePoint, complex]] = []
        for pos, w in sorted(self.atoms, key=lambda item: item[0].angle):
            w = complex(w)
            if cleaned and _circular_gap(cleaned[-1][0].angle, pos.angle) < ATOM_MERGE_TOL:
                cleaned[-1] = (cleaned[-1][0], cleaned[-1][1] + w)
            else:
                cleaned.append((pos, w))
        # The circle wraps: first and last entries may also collide.
        if len(cleaned) > 1 and _circular_gap(cleaned[0][0].angle, cleaned[-1][0].angle) < ATOM_MERGE_TOL:
            cleaned[0] = (cleaned[0][0], cleaned[0][1] + cleaned[-1][1])
            cleaned.pop()
        cleaned = [(p, w) for p, w in cleaned if w != 0]
        if not cleaned:
            raise ValueError("measure has no atoms with nonzero weight")
        object.__setattr__(self, "atoms", tuple(cleaned))

    @property
    def positions(self) -> np.ndarray:
        return np.array([p.value for p, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])


def atomic_measure(pairs: Iterable[tuple[float, complex]]) -> AtomicMeasure:
    """Build a measure from (angle, weight) pairs."""
    return AtomicMeasure(tuple((CirclePoint(a), complex(w)) for a, w in pairs))


def point_mass(angle: float, weight: complex = 1.0) -> AtomicMeasure:
    return atomic_measure([(angle, weight)])


def tv_norm(mu: AtomicMeasure) -> float:
    """Total variation sum |c_j|; an upper bound for the transform norm."""
    return float(np.sum(np.abs(mu.weights)))


def taylor_coeffs(mu: AtomicMeasure, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of the Cauchy transform of mu:
    hat(mu)(k) = sum_j c_j conj(zeta_j)^k.

    These are exact moments of the measure; the transform equals
    ``sum_k hat(mu)(k) z^k`` with a geometric tail controlled by tv_norm.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > MAX_TAYLOR_COUNT:
        raise ValueError(f"count capped at {MAX_TAYLOR_COUNT}")
    zeta_bar = np.conjugate(mu.positions)
    powers = zeta_bar[:, None] ** np.arange(count)[None, :]
    return mu.weights @ powers


# JSON literal: array of {"angle": <radians>, "re": <re>, "im": <im>}.

def measure_to_obj(mu: AtomicMeasure) -> list[dict]:
    return [
        {"angle": float(p.angle), "re": float(w.real), "im": float(w.imag)}
        for p, w in mu.atoms
    ]


def measure_from_obj(obj: Sequence, where: str = "measure") -> AtomicMeasure:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ValueError(f"{where}: expected a nonempty array of atoms")
    pairs = []
    for i, atom in enumerate(obj):
        if not isinstance(atom, dict):
            raise ValueError(f"{where}[{i}]: expected an atom object")
        try:
            angle = real_from_obj(atom["angle"])
            re, im = real_from_obj(atom.get("re", 0.0)), real_from_obj(atom.get("im", 0.0))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{where}[{i}]: bad atom fields ({exc})") from exc
        pairs.append((angle, complex(re, im)))
    return atomic_measure(pairs)
