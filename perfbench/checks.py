"""Correctness checks computed apart from cstrans.

Every value here comes from the benchmark's own arithmetic (Horner
evaluation, the Möbius involution, the bound formula, closed forms of the
kernel operator) on the JSON literals the benchmark generated, never from
cstrans objects.  A check raises ``CheckFailed`` with a message naming what
disagreed; callers treat that as an incorrect run.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Rounding slack for comparisons of certified quantities against exact ones.
REL_TOL = 1e-9
# Points on the circle for the benchmark's own sup-norm estimates.
DENSE_GRID = 8192


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Independent arithmetic.

def pair(p) -> complex:
    """A ``[re, im]`` pair (or a real number) as a complex number."""
    if isinstance(p, (int, float)):
        return complex(p)
    return complex(float(p[0]), float(p[1]))


def horner(coeffs, z):
    """sum_k coeffs[k] z^k, scalar or array ``z``."""
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in reversed(list(coeffs)):
        acc = acc * z + c
    return acc


def lam(a: complex, z):
    """The involution lambda_a(z) = (a - z)/(1 - conj(a) z)."""
    return (a - z) / (1.0 - np.conjugate(a) * z)


def map_eval(obj: dict, z):
    """Evaluate a self-map JSON literal at ``z``."""
    kind = obj["kind"]
    if kind == "polynomial":
        return horner([pair(c) for c in obj["coeffs"]], z)
    if kind == "mobius":
        return lam(pair(obj["a"]), z)
    if kind == "blaschke":
        acc = pair(obj.get("rotation", 1.0)) * np.ones_like(np.asarray(z, dtype=complex))
        for zero in obj["zeros"]:
            acc = acc * lam(pair(zero), z)
        return acc
    if kind == "composed":
        return lam(pair(obj["outer_a"]), map_eval(obj["inner"], z))
    raise CheckFailed(f"unknown self-map kind {kind!r}")


def map_at_zero(obj: dict) -> complex:
    return complex(map_eval(obj, 0j))


def ceiling(a_mod: float) -> float:
    """The paper's bound (1 + 2|phi(0)|)/(1 - |phi(0)|)."""
    return (1.0 + 2.0 * a_mod) / (1.0 - a_mod)


def measure_atoms(measure: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    zetas = np.array([cmath.exp(1j * float(atom["angle"])) for atom in measure])
    weights = np.array([complex(float(atom["re"]), float(atom["im"])) for atom in measure])
    return zetas, weights


def total_variation(measure: list[dict]) -> float:
    return float(np.sum(np.abs(measure_atoms(measure)[1])))


def mobius_point_norm(a: complex, zeta: complex) -> float:
    """||K_delta_zeta o lambda_a|| = |a|/|1 - conj(zeta) a| + (1 - |a|^2)/|1 - conj(zeta) a|^2.

    Exact by the F. and M. Riesz theorem: the Cauchy kernel of zeta composed
    with lambda_a is a constant plus one kernel, and no other representing
    measure has smaller total variation.
    """
    d = abs(1.0 - np.conjugate(zeta) * a)
    return abs(a) / d + (1.0 - abs(a) ** 2) / d**2


def p_lambda(a: complex, h, zeta: complex, r: float = 1.0) -> complex:
    """Residue form of P_{lambda_a} h (zeta) at radius r."""
    h = list(h)
    denom = 1.0 - zeta * np.conjugate(a)
    pole = complex(horner(h, r * (a - zeta) / denom)) * (1.0 - abs(a) ** 2) / abs(denom) ** 2
    return -a * h[0] / (zeta - a) + pole


def mobius_monomial_limits(a: complex, zeta: complex, count: int) -> np.ndarray:
    """P_{lambda_a} z^m (zeta) for m = 0..count-1."""
    denom = 1.0 - zeta * np.conjugate(a)
    w = (a - zeta) / denom
    vals = (1.0 - abs(a) ** 2) / abs(denom) ** 2 * w ** np.arange(count)
    vals = vals.astype(complex)
    vals[0] += -a / (zeta - a)
    return vals


def power_map_monomial_limits(n: int, zeta: complex, count: int) -> np.ndarray:
    """P_{z^n} z^m (zeta): zeta^(m/n) when n divides m, else 0."""
    vals = np.zeros(count, dtype=complex)
    for m in range(0, count, n):
        vals[m] = zeta ** (m // n)
    return vals


def p_phi_one(phi0: complex, zeta: complex) -> complex:
    """P_phi 1 (zeta) = 1/(1 - zeta conj(phi(0))), for every radius."""
    return 1.0 / (1.0 - zeta * np.conjugate(phi0))


def dense_sup(coeffs, n: int = DENSE_GRID) -> float:
    t = np.exp(2j * math.pi * np.arange(n) / n)
    return float(np.max(np.abs(horner(coeffs, t))))


def close(x: complex, y: complex, tol: float = REL_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


def all_close(xs, ys, tol: float = REL_TOL) -> bool:
    xs, ys = np.asarray(xs), np.asarray(ys)
    return xs.shape == ys.shape and bool(
        np.all(np.abs(xs - ys) <= tol * np.maximum(1.0, np.abs(ys)))
    )


# ---------------------------------------------------------------------------
# Checks on CLI reports.  Each returns the certified lower bounds of its
# report as shares of their ceilings (none for factorize and kernel-compare).

def check_witness(h_obj: dict) -> list[complex]:
    """sup|h| <= 1 on a dense grid for a certified unit-ball witness."""
    coeffs = [pair(c) for c in h_obj["coeffs"]]
    sup = dense_sup(coeffs)
    require(sup <= 1.0 + REL_TOL, f"witness sup {sup!r} exceeds 1")
    require(
        float(h_obj["certified_sup"]) <= 1.0 + REL_TOL,
        f"witness certificate {h_obj['certified_sup']!r} exceeds 1",
    )
    return coeffs


def check_composition(rep: dict, measure: list[dict], phi0: complex, point_mass_a=None) -> float:
    """A verify-bound or verify-lemma2 report for f = K_mu composed with phi."""
    require(rep["pass"] is True, f"verifier failed: {rep['claim']}")
    tv = total_variation(measure)
    bound = ceiling(abs(phi0))
    lower = float(rep["lower"])
    require(close(float(rep["upper"]), tv), f"upper {rep['upper']!r} != tv {tv!r}")
    require(close(float(rep["bound"]), bound), f"bound {rep['bound']!r} != {bound!r}")
    require(0.0 <= lower <= bound * tv * (1 + REL_TOL), f"lower {lower!r} above bound * tv")
    if point_mass_a is not None:
        zetas, weights = measure_atoms(measure)
        exact = abs(weights[0]) * mobius_point_norm(point_mass_a, zetas[0])
        require(lower <= exact * (1 + REL_TOL), f"lower {lower!r} above exact norm {exact!r}")
    check_witness(rep["witnesses"]["h"])
    return lower / (bound * tv)


def check_verify_bound(doc: dict, measure: list[dict], phi: dict) -> list[float]:
    rep = single_report(doc)
    phi0 = map_at_zero(phi)
    point_a = pair(phi["a"]) if len(measure) == 1 and phi["kind"] == "mobius" else None
    share = check_composition(rep, measure, phi0, point_a)
    fac = rep["witnesses"]["factorization"]
    require(close(pair(fac["a"]), phi0, 1e-12), f"factorization a {fac['a']!r} != phi(0)")
    step = rep["witnesses"]["mobius_step"]
    check_composition(step, measure, phi0, phi0 if len(measure) == 1 else None)
    return [share]


def check_verify_lemma2(doc: dict, measure: list[dict], a: complex) -> list[float]:
    rep = single_report(doc)
    return [check_composition(rep, measure, a, a if len(measure) == 1 else None)]


def check_verify_lemma1(doc: dict, measure: list[dict], psi: dict) -> list[float]:
    rep = single_report(doc)
    require(rep["pass"] is True, f"verifier failed: {rep['claim']}")
    require(abs(map_at_zero(psi)) <= 1e-12, "lemma 1 case with psi(0) != 0")
    tv = total_variation(measure)
    lower = float(rep["lower"])
    require(0.0 <= lower <= tv * (1 + REL_TOL), f"lower {lower!r} above tv {tv!r}")
    check_witness(rep["witnesses"]["h"])
    return [lower / tv]


def check_factorize(doc: dict, phi: dict) -> list[float]:
    rep = single_report(doc)
    require(rep["pass"] is True, f"factorization failed: {rep['claim']}")
    phi0 = map_at_zero(phi)
    require(close(pair(rep["a"]), phi0, 1e-12), f"a {rep['a']!r} != phi(0) {phi0!r}")
    psi = rep["psi"]
    require(abs(map_at_zero(psi)) <= 1e-12, "psi(0) != 0")
    z = 0.9 * np.exp(2j * math.pi * np.arange(64) / 64)
    recon = lam(phi0, map_eval(psi, z))
    require(all_close(recon, map_eval(phi, z), 1e-10), "lambda_a o psi != phi")
    return []


def check_kernel_compare(doc: dict, case: dict) -> list[float]:
    rep = single_report(doc)
    require(rep["pass"] is True, f"kernel-compare failed: {rep['claim']}")
    a = pair(case["a"])
    h = [pair(c) for c in case["h"]]
    zeta = cmath.exp(1j * float(case["zeta_angle"]))
    expect = p_lambda(a, h, zeta, float(case["r"]))
    got = complex(rep["re"], rep["im"])
    require(close(got, expect), f"closed form {got!r} != {expect!r}")
    quad = complex(rep["quad_re"], rep["quad_im"])
    require(close(quad, expect, 1e-8), f"quadrature {quad!r} != {expect!r}")
    return []


def check_norm_estimate(doc: dict, measure: list[dict]) -> list[float]:
    rep = single_report(doc)
    require(rep["pass"] is True, "norm bracket failed")
    tv = total_variation(measure)
    lower = float(rep["lower"])
    require(close(float(rep["upper"]), tv), f"upper {rep['upper']!r} != tv {tv!r}")
    require(0.0 <= lower <= tv * (1 + REL_TOL), f"lower {lower!r} above tv {tv!r}")
    coeffs = check_witness(rep["witnesses"]["h"])
    zetas, weights = measure_atoms(measure)
    paired = abs(np.sum(weights * np.conjugate(horner(coeffs, zetas))))
    require(paired >= lower * (1 - REL_TOL), f"witness pairs to {paired!r} < lower {lower!r}")
    return [lower / tv]


def check_scan(doc: dict, a_values: list[float]) -> list[float]:
    rep = single_report(doc)
    require(rep["pass"] is True, "sharpness scan failed")
    rows = rep["rows"]
    require(len(rows) == len(a_values), "scan row count differs from its grid")
    shares = []
    for a, row in zip(a_values, rows):
        bound = ceiling(a)
        ratio = float(row["ratio"])
        require(close(float(row["bound"]), bound), f"scan bound {row['bound']!r} != {bound!r}")
        require(0.0 < ratio <= bound * (1 + REL_TOL), f"scan ratio {ratio!r} outside (0, {bound!r}]")
        shares.append(ratio / bound)
    return shares


def single_report(doc: dict) -> dict:
    reports = doc.get("reports", [])
    require(len(reports) == 1, f"expected one report, got {len(reports)}")
    return reports[0]
