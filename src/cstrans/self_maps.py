"""Analytic self-maps of the disk and their base-point factorization.

Supported shapes: polynomials (validated at construction by a certified
boundary sup-norm <= 1), finite Blaschke products, Möbius involutions,
and Möbius-precomposed compositions.  Every map phi with |phi(0)| < 1
factors as phi = lambda_a o psi with a = phi(0) and psi(0) = 0; psi is
kept as the symbolic composition lambda_a o phi (re-expanding a Möbius of
a polynomial would leave the polynomial class), and the involution
property makes the reconstruction exact up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import (
    DiskPoint,
    complex_from_obj,
    disk_grid,
    mobius_eval,
    mobius_lambda,
    require_closed_disk,
)
from .disk_algebra import certified_sup, horner

# Construction accepts certificates this far above 1 (pure rounding slop).
SUP_BOUND_SLACK = 1e-12


class DiskSelfMap:
    """Base for analytic maps of the closed disk into itself."""

    kind: str = ""
    sup_bound: float = 1.0

    def eval_inner(self, z):
        raise NotImplementedError

    def at_zero(self) -> complex:
        return complex(self.eval_inner(0j))


def self_map_eval(phi: DiskSelfMap, z):
    """Evaluate phi on the closed disk (scalar or array)."""
    require_closed_disk(z)
    return phi.eval_inner(z)


@dataclass(frozen=True)
class PolynomialMap(DiskSelfMap):
    """A polynomial self-map; construction certifies sup |p| <= 1 on the circle."""

    coeffs: tuple[complex, ...]
    sup_bound: float = field(init=False)

    kind = "polynomial"

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise ValueError("empty coefficient list")
        cert = certified_sup(coeffs)
        if not cert <= 1.0 + SUP_BOUND_SLACK:  # also rejects NaN
            raise ValueError(
                f"polynomial is not certified as a self-map: sup bound {cert:.6g} > 1"
            )
        object.__setattr__(self, "sup_bound", min(cert, 1.0))

    def eval_inner(self, z):
        return horner(self.coeffs, z)


@dataclass(frozen=True)
class BlaschkeMap(DiskSelfMap):
    """rotation * prod_i lambda_{z_i}(z): a finite Blaschke product, |B| = 1 on the circle."""

    zeros: tuple[DiskPoint, ...]
    rotation: complex = 1.0 + 0.0j

    kind = "blaschke"
    sup_bound = 1.0

    def __post_init__(self) -> None:
        if not self.zeros:
            raise ValueError("a Blaschke product needs at least one zero")
        rot = complex(self.rotation)
        if abs(abs(rot) - 1.0) > 1e-12:
            raise ValueError("rotation must be unimodular")
        object.__setattr__(self, "rotation", rot / abs(rot))

    def eval_inner(self, z):
        acc = np.full_like(np.asarray(z, dtype=complex), self.rotation)
        for zero in self.zeros:
            acc *= mobius_lambda(zero.value, z)
        return complex(acc) if np.ndim(z) == 0 else acc


@dataclass(frozen=True)
class MobiusSelfMap(DiskSelfMap):
    """The involution lambda_a viewed as a self-map."""

    a: DiskPoint

    kind = "mobius"
    sup_bound = 1.0

    def eval_inner(self, z):
        return mobius_eval(self.a, z)


@dataclass(frozen=True)
class ComposedMap(DiskSelfMap):
    """z -> lambda_a(inner(z)), a = ``outer_a``: a Möbius map after an inner self-map."""

    outer_a: DiskPoint
    inner: DiskSelfMap
    sup_bound: float = field(init=False)

    kind = "composed"

    def __post_init__(self) -> None:
        # Möbius maps pull |w| <= s to at most (|a| + s)/(1 + |a| s).
        a = abs(self.outer_a.value)
        s = self.inner.sup_bound
        object.__setattr__(self, "sup_bound", (a + s) / (1.0 + a * s))

    def eval_inner(self, z):
        return mobius_eval(self.outer_a, self.inner.eval_inner(z))


def schwarz_factorize(phi: DiskSelfMap) -> tuple[DiskPoint, ComposedMap]:
    """Split phi = lambda_a o psi with a = phi(0) and psi(0) = 0.

    psi = lambda_a o phi, which fixes 0 because lambda_a(a) = 0; applying
    lambda_a again reconstructs phi since lambda_a is an involution.
    Degenerate maps with |phi(0)| essentially on the circle are rejected
    (the norm bound diverges there).
    """
    a = phi.at_zero()
    if abs(a) >= 1.0 - 1e-15:
        raise ValueError(f"|phi(0)| = {abs(a):.17g} is too close to the circle")
    base = DiskPoint(a)
    psi = ComposedMap(base, phi)
    return base, psi


def factorization_residual(
    phi: DiskSelfMap, a: DiskPoint, psi: DiskSelfMap, points: np.ndarray | None = None
) -> float:
    """max |phi(z) - lambda_a(psi(z))| over a disk grid (16 radii x 16 angles)."""
    pts = disk_grid() if points is None else points
    recon = mobius_eval(a, self_map_eval(psi, pts))
    return float(np.max(np.abs(self_map_eval(phi, pts) - recon)))


# JSON literals, discriminated by "kind".

def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def self_map_to_obj(phi: DiskSelfMap) -> dict:
    if isinstance(phi, PolynomialMap):
        return {"kind": "polynomial", "coeffs": [_pair(c) for c in phi.coeffs]}
    if isinstance(phi, BlaschkeMap):
        return {
            "kind": "blaschke",
            "zeros": [_pair(z.value) for z in phi.zeros],
            "rotation": _pair(phi.rotation),
        }
    if isinstance(phi, MobiusSelfMap):
        return {"kind": "mobius", "a": _pair(phi.a.value)}
    if isinstance(phi, ComposedMap):
        return {
            "kind": "composed",
            "outer_a": _pair(phi.outer_a.value),
            "inner": self_map_to_obj(phi.inner),
        }
    raise TypeError(f"unknown self-map type: {type(phi)!r}")


def self_map_from_obj(obj: dict, where: str = "self_map") -> DiskSelfMap:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"{where}: expected an object with a 'kind' discriminator")
    kind = obj["kind"]
    try:
        if kind == "polynomial":
            return PolynomialMap(tuple(complex_from_obj(c) for c in obj["coeffs"]))
        if kind == "blaschke":
            zeros = tuple(DiskPoint(complex_from_obj(z)) for z in obj["zeros"])
            return BlaschkeMap(zeros, complex_from_obj(obj.get("rotation", 1.0)))
        if kind == "mobius":
            return MobiusSelfMap(DiskPoint(complex_from_obj(obj["a"])))
        if kind == "composed":
            inner = self_map_from_obj(obj["inner"], where=f"{where}.inner")
            return ComposedMap(DiskPoint(complex_from_obj(obj["outer_a"])), inner)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{where}: bad '{kind}' literal ({exc})") from exc
    raise ValueError(f"{where}: unknown kind {kind!r}")
