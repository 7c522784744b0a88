"""The kernel operator h -> lim_{r->1} integral of h(t) / (1 - zeta * conj(phi(r t))) dm(t).

Three evaluation routes, cross-checked against each other in the tests:

* quadrature (``p_phi_at``): sample the integrand on an equispaced grid and
  average, doubling the grid until stable.  Each doubling samples only the
  new midpoints and averages the two rules.  Valid for any map at r < 1.
* residue closed form (``p_lambda_closed_form``): for phi = lambda_a the
  integrand is rational in t with one pole at 0 and one at
  r (a - zeta)/(1 - zeta conj(a)) inside the circle, giving

      -a h(0)/(zeta - a) + h(r lambda_a(zeta)) (1 - |a|^2)/|1 - zeta conj(a)|^2,

  exact for every r and continuous at r = 1.
* geometric-moment series (``p_phi_exact_at``): for a polynomial core p,
  expanding the kernel in powers of conj(p(r t)) turns the integral into
  sum_k zeta^k T_k(r) with T_k(r) = integral of h(t) conj(p(r t)^k) dm(t),
  computable exactly from truncated coefficient convolutions.  Cauchy
  estimates on a circle of radius rho < 1 give |T_k| <= C(rho) s(rho)^k
  with a certifiable s(rho) < 1, so the truncation error is rigorously
  bounded and the series remains valid at r = 1 even for maps whose
  boundary modulus reaches 1 (e.g. z^2).  One stacked certificate bounds
  s(rho) for every radius of the ladder at once.

Maps built from Möbius pieces and polynomials are normalized to the form
rot * lambda_c o core, which routes every such map to an exact evaluation.
Radial limits of anything else (multi-zero Blaschke products and maps
composed over them) are chased by a radial sweep over the fixed radii
r = 1 - 2^-k, k = 4..24, that stops once two successive quadrature values
agree to 1e-9 and reports non-convergence rather than extrapolating, naming
the radius where a quadrature grid gave out if one did.  It converges only
where the value does not depend on r, as for h = 1, whose value is
1/(1 - zeta conj(phi(0))) at every r by the mean value property.

``monomial_limit_evaluator`` gives the radial limits of the monomials at
many boundary points: one row per point, the closed form's powers from one
cumprod and the series' sums from one ``einsum``.  No route calls a
threaded BLAS product, so a run uses one CPU whatever OpenBLAS's thread
count.
"""

from __future__ import annotations

import math
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
from .disk_algebra import DiskAlgebraPoly, certified_sup, monomial, poly_eval
from .self_maps import (
    BlaschkeMap,
    ComposedMap,
    DiskSelfMap,
    MobiusSelfMap,
    PolynomialMap,
    self_map_eval,
)

SERIES_TAIL_TOL = 1e-12
SERIES_ORDER_CAP = 8192
_RHO_LADDER = (0.9, 0.85, 0.8, 0.7, 0.6, 0.5, 0.35)
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
    """Single-grid quadrature of h(t) / (1 - zeta conj(phi(r t))) against dm."""
    zv = _as_unimodular(zeta)
    if not 0.0 < r < 1.0:
        raise ValueError("quadrature of the kernel requires 0 < r < 1")
    t = grid.nodes
    denom = 1.0 - zv * np.conjugate(self_map_eval(phi, r * t))
    return grid_integrate(grid, poly_eval(h, t) / denom)


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


def _series_order(
    core: np.ndarray, r: float, b_abs: np.ndarray, mob_abs: float
) -> tuple[int, float] | None:
    """Truncation order with a certified geometric tail bound.

    Picks rho < 1 with a certified s = sup_{|w| = rho} |core(r w)| < 1 and
    returns the smallest k with (prefactor) * C(rho) * s^(k+1)/(1-s) below
    ``SERIES_TAIL_TOL``, where C(rho) = sum_m |b_m| rho^-m dominates the
    Cauchy coefficient weights.  Returns None when no ladder radius
    certifies convergence.
    """
    degs = np.arange(core.size)
    best: tuple[int, float] | None = None
    prefactor = (1.0 + mob_abs) / (1.0 - mob_abs) if mob_abs > 0 else 1.0
    # One stacked certificate for the whole ladder: row i holds core(r rho_i w).
    sups = certified_sup(core * (r * np.array(_RHO_LADDER)[:, None]) ** degs)
    for rho, s in zip(_RHO_LADDER, sups.tolist()):
        if s >= 0.999:
            continue
        big_c = float(np.sum(b_abs * rho ** (-np.arange(b_abs.size))))
        if s == 0.0:
            return 1, rho
        k = math.ceil(math.log(SERIES_TAIL_TOL * (1.0 - s) / (prefactor * big_c)) / math.log(s))
        k = max(k, 1)
        if k <= SERIES_ORDER_CAP and (best is None or k < best[0]):
            best = (k, rho)
    return best


def _power_moment_table(core_r: np.ndarray, m_cap: int, k_max: int) -> np.ndarray:
    """Rows k = 0..k_max: coefficients of core_r(z)^k, truncated to degree m_cap."""
    width = m_cap + 1
    table = np.zeros((k_max + 1, width), dtype=complex)
    table[0, 0] = 1.0
    cur = np.array([1.0 + 0.0j])
    base = core_r[:width]
    for k in range(1, k_max + 1):
        cur = np.convolve(cur, base)[:width]
        table[k, : cur.size] = cur
    return table


def _series_table(nf: _ChainForm, r: float, b_abs: np.ndarray) -> np.ndarray:
    """Per map: conj of the rows k = 0..k_max+1 of core(r z)^k, truncated to
    ``b_abs.size`` coefficients, with k_max certified for weights ``b_abs``."""
    core = np.asarray(nf.core, dtype=complex)
    mob_abs = abs(nf.c) if nf.c is not None else 0.0
    order = _series_order(core, r, b_abs, mob_abs)
    if order is None:
        raise NonConvergenceError(
            "could not certify geometric decay for the moment series"
        )
    k_max, _ = order
    # At r = 1 the core stays as it is: a product with 1.0 can flip a zero's sign.
    core_r = core if r == 1.0 else core * r ** np.arange(core.size)
    return np.conjugate(_power_moment_table(core_r, b_abs.size - 1, k_max + 1))


def _powers(w: np.ndarray, count: int) -> np.ndarray:
    """Rows 1, w_i, ..., w_i^(count-1), one per entry of ``w``, from one cumprod."""
    out = w[:, None].repeat(count, 1)
    out[:, 0] = 1.0
    rest = out[:, 1:]
    np.multiply.accumulate(rest, 1, None, rest)  # cumprod along each row, in place
    return out


def _series_values(nf: _ChainForm, conj_table: np.ndarray, zetas: np.ndarray) -> np.ndarray:
    """The kernel values of the monomials from a ``_series_table``, one row
    per boundary point.  ``einsum`` forms the sums over k itself, not
    through a BLAS product, so no BLAS thread wakes for them."""
    k_max = conj_table.shape[0] - 2
    zeta_eff = zetas * np.conjugate(nf.rot)
    if nf.c is None:
        return np.einsum("pk,km->pm", _powers(zeta_eff, k_max + 1), conj_table[: k_max + 1])
    c = nf.c
    terms = conj_table[: k_max + 1] - c * conj_table[1 : k_max + 2]
    sums = np.einsum("pk,km->pm", _powers(mobius_lambda(c, zeta_eff), k_max + 1), terms)
    return sums / (1.0 - zeta_eff * np.conjugate(c))[:, None]


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
    # P_phi is linear in h; the truncation order is certified for h's own weights.
    return complex(b @ _series_values(nf, _series_table(nf, r, np.abs(b)), np.array([zv]))[0])


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
    polynomial-core maps use the certified moment series at r = 1 (the
    limit exists there with a provable geometric tail).  Everything else
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

    What depends on the map alone (the normal form, the series order and
    the coefficient table) is computed once, here, so many boundary points
    share it.  The closed-form and series routes evaluate all points in
    one pass; the sweep goes point by point.
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
    b_abs = np.zeros(count)
    b_abs[-1] = 1.0  # worst Cauchy weight among the monomials
    return partial(_series_values, nf, _series_table(nf, 1.0, b_abs))


def monomial_radial_limits(phi: DiskSelfMap, count: int, zeta) -> np.ndarray:
    """Radial-limit kernel values for the monomials 1, z, ..., z^(count-1) at zeta."""
    zv = _as_unimodular(zeta)
    return monomial_limit_evaluator(phi, count)(np.array([zv]))[0]
