"""The kernel operator h -> lim_{r->1} integral of h(t) / (1 - zeta * conj(phi(r t))) dm(t).

Three evaluation routes, cross-checked against each other in the tests:

* quadrature (``p_phi_at``): the trapezoid rule on shifted circles, with h
  sampled at rho t and phi at (r/rho) t, rho = 2^(1/max(1, deg h)),
  ``_CHUNK`` nodes at a time, doubling the grid until stable.  The value is
  the integral's, and the rule's error falls like (r/rho)^N instead of the
  unit circle's r^N, so for h of degree up to 64 the doubling stops by
  8192 nodes, mostly at 1024, even at r = 1 - 2^-20.  Each doubling
  samples only the new midpoints and averages the two rules.  Valid for
  any map at r < 1.  Each call checks r and zeta once; the nodes (r/rho) t
  then lie in the disk, so no chunk runs the closed-disk check of
  ``self_map_eval`` (Möbius layers keep ``mobius_eval``'s), and h goes
  through ``horner``, since rho t lies outside the closed disk that
  ``poly_eval`` accepts.
* residue closed form (``p_lambda_closed_form``): for phi = lambda_a the
  integrand is rational in t with one pole at 0 and one at
  r (a - zeta)/(1 - zeta conj(a)) inside the circle, giving

      -a h(0)/(zeta - a) + h(r lambda_a(zeta)) (1 - |a|^2)/|1 - zeta conj(a)|^2,

  exact for every r and continuous at r = 1.
* power-series division (``p_phi_exact_at``): for phi = rot * lambda_c o p
  with a polynomial core p, Cauchy's formula gives the integral for
  h = z^m as r^m conj(F_m), where F_m is the m-th Taylor coefficient of
  F = 1/(1 - conj(zeta) phi) (Cima, Matheson and Ross, *The Cauchy
  Transform*, AMS 2006).  So the value is exact at every r <= 1, r = 1
  included, even for maps whose boundary modulus reaches 1 (e.g. z^2):
  no limit and no truncation is involved.  F = N/D is a quotient of two
  polynomials in p, and the forward recurrence of power-series division
  gives its coefficients.  D vanishes only where |phi| = 1, so its roots
  lie on or outside the circle, and those on it are simple, because a
  self-map has a nonzero angular derivative wherever it touches the
  circle; so rounding errors do not grow exponentially.

Maps built from Möbius pieces and polynomials are normalized to the form
rot * lambda_c o core, which routes every such map to an exact evaluation.
Radial limits of anything else (multi-zero Blaschke products and maps
composed over them) are chased by a radial sweep over the fixed radii
r = 1 - 2^-k, k = 4..24, that stops once two successive quadrature values
agree to 1e-9 and reports non-convergence rather than extrapolating.  It
converges only where the value barely depends on r, as for h = 1, whose
value is 1/(1 - zeta conj(phi(0))) at every r by the mean value property.
The value of z^m is r^m times its limit, so successive radii differ by
about m 2^-k times the limit, and the sweep reports that it did not
stabilize by r = 1 - 2^-24; if a quadrature grid gives out first, the error
names that radius instead.

``monomial_limit_evaluator`` gives the radial limits of the monomials at
many boundary points: one row per point, the closed form's powers from one
cumprod and the series' coefficients from one recurrence per point.  No
route calls a threaded BLAS product, so a run uses one CPU whatever
OpenBLAS's thread count.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .circle import (
    CirclePoint,
    DiskPoint,
    NonConvergenceError,
    QuadratureGrid,
    grid_integrate,
    mobius_lambda,
    refine_until_stable,
)
from .disk_algebra import DiskAlgebraPoly, horner, monomial, poly_eval
from .self_maps import (
    BlaschkeMap,
    ComposedMap,
    DiskSelfMap,
    MobiusSelfMap,
    PolynomialMap,
)

# Quadrature forms the integrand this many nodes at a time, so a large
# grid's evaluation holds a few arrays of this size, not of the grid's.
_CHUNK = 4096
# The radial sweep's radii 1 - 2^-k, k = 4.._SWEEP_K_MAX, and the change
# between successive radii at which it stops.
_SWEEP_K_MAX = 24
_SWEEP_RADII = {k: 1.0 - 2.0 ** (-k) for k in range(4, _SWEEP_K_MAX + 1)}
_SWEEP_TOL = 1e-9


def _as_unimodular(zeta) -> complex:
    z = zeta.value if isinstance(zeta, CirclePoint) else complex(zeta)
    if abs(abs(z) - 1.0) > 1e-9:
        raise ValueError(f"zeta must lie on the unit circle, got {z!r}")
    return z


def _as_disk_value(a) -> complex:
    v = a.value if isinstance(a, DiskPoint) else complex(a)
    if abs(v) >= 1.0:
        raise ValueError(f"a must lie in the open unit disk, got {v!r}")
    return v


def p_lambda_closed_form(a, h: DiskAlgebraPoly, zeta, r: float = 1.0) -> complex:
    """Residue evaluation of the kernel integral for phi = lambda_a.

    Exact for each 0 < r <= 1; the two terms are the residues at t = 0 and
    at the interior pole t = r lambda_a(zeta).
    """
    av = _as_disk_value(a)
    zv = _as_unimodular(zeta)
    if not 0.0 < r <= 1.0:
        raise ValueError("r must lie in (0, 1]")
    pole_term = poly_eval(h, mobius_lambda(av, zv, r)) * (1.0 - abs(av) ** 2)
    pole_term /= abs(1.0 - zv * np.conjugate(av)) ** 2
    return complex(-av * h.coeffs[0] / (zv - av) + pole_term)


def p_phi_at(
    phi: DiskSelfMap, h: DiskAlgebraPoly, zeta, r: float, grid: QuadratureGrid
) -> complex:
    """Single-grid quadrature of h(t) / (1 - zeta conj(phi(r t))) against dm,
    on shifted circles: the mean over the nodes t of
    h(rho t) / (1 - zeta conj(phi((r/rho) t))), rho = 2^(1/max(1, deg h)).

    Both integrals equal sum_j h_j conj(K_j), K = 1/(1 - conj(zeta) phi(r u)),
    by Parseval, since K is analytic near the closed disk.  For N > deg h the
    rule's error is the aliased Laurent terms t^-m, m >= N, which decay
    like (r/rho)^N here instead of r^N.  rho^j <= 2 for j <= deg h, and
    |K| on |u| = 1/rho is at most its maximum on the circle, so rounding
    does not grow.
    """
    zv = _as_unimodular(zeta)
    if not 0.0 < r < 1.0:
        raise ValueError("quadrature of the kernel requires 0 < r < 1")
    rho = 2.0 ** (1.0 / max(1, h.degree))
    t = grid.nodes
    samples = np.empty_like(t)
    for lo in range(0, t.size, _CHUNK):
        part = t[lo : lo + _CHUNK]
        denom = 1.0 - zv * np.conjugate(phi.eval_inner(r / rho * part))
        samples[lo : lo + _CHUNK] = horner(h.coeffs, rho * part) / denom
    return grid_integrate(grid, samples)


def p_phi_at_stable(phi: DiskSelfMap, h: DiskAlgebraPoly, zeta, r: float) -> complex:
    """Quadrature with the grid-doubling policy; raises on non-convergence."""
    value, _ = refine_until_stable(partial(p_phi_at, phi, h, zeta, r))
    return value


# ---------------------------------------------------------------------------
# Normal form rot * lambda_c o core for maps built from Möbius pieces and
# polynomials.  core=None means the identity; c=None means no Möbius layer.

class _ChainForm(NamedTuple):
    rot: complex
    c: complex | None
    core: tuple[complex, ...] | None


def _combine_automorphisms(a: complex, rot_i: complex, c_i: complex) -> tuple[complex, complex]:
    """lambda_a o (rot_i * lambda_{c_i}) as a rotated involution (rot, c)."""

    c = mobius_lambda(c_i, a * np.conjugate(rot_i))
    z0 = 0.0 if abs(c) > 0.25 else 0.5
    num = mobius_lambda(a, rot_i * mobius_lambda(c_i, z0))
    rot = num / mobius_lambda(c, z0)
    return complex(rot / abs(rot)), complex(c)


def _normalize(phi: DiskSelfMap) -> _ChainForm | None:
    if isinstance(phi, MobiusSelfMap):
        return _ChainForm(1.0 + 0.0j, phi.a.value, None)
    if isinstance(phi, PolynomialMap):
        return _ChainForm(1.0 + 0.0j, None, phi.coeffs)
    if isinstance(phi, BlaschkeMap):
        if len(phi.zeros) == 1:
            return _ChainForm(phi.rotation, phi.zeros[0].value, None)
        return None
    if isinstance(phi, ComposedMap):
        inner = _normalize(phi.inner)
        if inner is None:
            return None
        a = phi.outer_a.value
        if inner.core is not None and inner.c is None:
            # lambda_a o (rot * poly): fold the rotation into the polynomial.
            core = tuple(inner.rot * c for c in inner.core)
            return _ChainForm(1.0 + 0.0j, a, core)
        if inner.c is not None:
            rot, c = _combine_automorphisms(a, inner.rot, inner.c)
            return _ChainForm(rot, c, inner.core)
        return None
    return None


def limit_route(phi: DiskSelfMap) -> str:
    """Which radial-limit route a map gets: closed-form, series, or sweep."""
    nf = _normalize(phi)
    if nf is None:
        return "quadrature-sweep"
    return "closed-form" if nf.core is None else "series"


def _taylor_values(nf: _ChainForm, count: int, zetas: np.ndarray) -> np.ndarray:
    """The kernel values at r = 1 of the monomials 1, z, ..., z^(count-1) for
    a polynomial core p, one row per boundary point.

    With w = conj(zeta) rot, row m is conj(F_m), the Taylor coefficient of
    1/(1 - w lambda_c(p)) = N/D with N = 1 - conj(c) p and
    D = (1 - w c) + (w - conj(c)) p, or N = 1 and D = 1 - w p with no
    Möbius layer.  The forward recurrence
    F_m = (N_m - sum_{j>=1} D_j F_{m-j}) / D_0 gives them exactly up to
    rounding.  As in ``_closed_form_values``, the scalars go point by
    point; zero taps of D are skipped.
    """
    core, c, rot = nf.core, nf.c, nf.rot
    rows = []
    for zeta in zetas.tolist():
        w = zeta.conjugate() * rot
        if c is None:
            num = [1.0]
            den = [-w * a for a in core]
            den[0] += 1.0
        else:
            c_bar = c.conjugate()
            num = [-c_bar * a for a in core]
            num[0] += 1.0
            den = [(w - c_bar) * a for a in core]
            den[0] += 1.0 - w * c
        d0 = den[0]
        taps = [(j, d) for j, d in enumerate(den) if j and d]
        f = []
        for m in range(count):
            acc = num[m] if m < len(num) else 0.0
            for j, d in taps:
                if j > m:
                    break
                acc -= d * f[m - j]
            f.append(acc / d0)
        rows.append(f)
    return np.conjugate(np.array(rows, dtype=complex).reshape(-1, count))


def _closed_form_values(nf: _ChainForm, count: int, zetas: np.ndarray) -> np.ndarray:
    """The residue closed form at r = 1 for the monomials 1, z, ..., z^(count-1),
    one row per boundary point.

    Row m is base w^m, plus -c/(zeta - c) at m = 0, with w = lambda_c(zeta)
    and base = (1 - |c|^2)/|1 - zeta conj(c)|^2, zeta taken off the
    rotation.  The scalars go point by point, which at the atom counts of
    a measure costs less than array operations; the powers of all points
    come from one cumprod.
    """
    c, rot_c = nf.c, nf.rot.conjugate()
    # Python rounds complex products as numpy does but divides with other
    # rounding, so the divisions stay numpy's (through c_np here and inside
    # mobius_lambda), like every other division in this module.
    c_np = np.complex128(c)
    scale = 1.0 - abs(c) ** 2
    scalars = []
    for zeta in zetas.tolist():
        zeta_eff = zeta * rot_c
        base = scale / abs(1.0 - zeta_eff * c.conjugate()) ** 2
        scalars.append((base - c / (zeta_eff - c_np), base, mobius_lambda(c, zeta_eff)))
    scalars = np.array(scalars, dtype=complex)
    # Each row: [base - c/(zeta - c), w, w, ..., w].
    vals = scalars.repeat([1, 0, count - 1], 1)
    powers = vals[:, 1:]
    np.multiply.accumulate(powers, 1, None, powers)  # cumprod along each row, in place
    powers *= scalars[:, 1:2]
    return vals


def p_phi_exact_at(phi: DiskSelfMap, h: DiskAlgebraPoly, zeta, r: float = 1.0) -> complex:
    """Exact kernel value at radius r (including r = 1) for normalizable maps.

    A polynomial core gives sum_m h_m r^m conj(F_m), with F_m the Taylor
    coefficients of the module docstring's division, exact up to rounding.
    Raises ValueError for maps with no closed-form or series route.
    """
    nf = _normalize(phi)
    if nf is None:
        raise ValueError("map has no exact evaluation route")
    zv = _as_unimodular(zeta)
    if not 0.0 < r <= 1.0:
        raise ValueError("r must lie in (0, 1]")
    if nf.core is None:
        return p_lambda_closed_form(nf.c, h, zv * np.conjugate(nf.rot), r)
    b = np.asarray(h.coeffs, dtype=complex)
    # By Cauchy's formula the integral of conj(t^m) F(r t) is r^m F_m.
    return complex((b * r ** np.arange(b.size)) @ _taylor_values(nf, b.size, np.array([zv]))[0])


def _radial_sweep(phi, h, zeta) -> complex:
    contact = " (boundary-contact map: limit not guaranteed)" if phi.sup_bound >= 1.0 - 1e-12 else ""
    prev = None
    for k, r in _SWEEP_RADII.items():
        try:
            value = p_phi_at_stable(phi, h, zeta, r)
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"radial sweep did not stabilize: its quadrature gave out at r = 1 - 2^-{k}{contact}"
            ) from exc
        if prev is not None and abs(value - prev) < _SWEEP_TOL:
            return value
        prev = value
    raise NonConvergenceError(
        f"radial sweep did not stabilize to {_SWEEP_TOL:g} by r = 1 - 2^-{_SWEEP_K_MAX}{contact}"
    )


def p_phi_radial_limit(phi: DiskSelfMap, h: DiskAlgebraPoly, zeta) -> complex:
    """The r -> 1 limit of the kernel integral at a boundary point zeta.

    Maps in the Möbius orbit use the residue closed form at r = 1;
    polynomial-core maps use the Taylor coefficients of the power-series
    division, which are the values at r = 1 themselves.  Everything else
    is chased by a radial sweep and reported honestly as non-convergent
    when stabilization fails.
    """
    if _normalize(phi) is not None:
        return p_phi_exact_at(phi, h, zeta, 1.0)
    return _radial_sweep(phi, h, zeta)


def monomial_limit_evaluator(phi: DiskSelfMap, count: int) -> Callable[[np.ndarray], np.ndarray]:
    """Radial-limit kernel values of the monomials 1, z, ..., z^(count-1),
    as a function of an array of unimodular points that returns one row
    per point.

    The normal form depends on the map alone and is computed once, here,
    so many boundary points share it.  On the series route row m is
    conj(F_m), the Taylor coefficient of the module docstring's division,
    exact up to rounding.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    nf = _normalize(phi)
    if nf is None:

        def swept(zetas: np.ndarray) -> np.ndarray:
            return np.array([[_radial_sweep(phi, monomial(m), zv) for m in range(count)]
                             for zv in zetas.tolist()])

        return swept
    if nf.core is None:
        return partial(_closed_form_values, nf, count)
    return partial(_taylor_values, nf, count)


def monomial_radial_limits(phi: DiskSelfMap, count: int, zeta) -> np.ndarray:
    """Radial-limit kernel values for the monomials 1, z, ..., z^(count-1) at zeta."""
    zv = _as_unimodular(zeta)
    # The row as an array of its own: a caller that keeps it does not keep
    # the one-row 2-d result behind a view as well.
    return monomial_limit_evaluator(phi, count)(np.array([zv]))[0].copy()
