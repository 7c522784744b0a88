"""The four workloads: their inputs, operations and output checks.

Inputs come from the workload seed alone; the program only sees the
generated fixtures and arguments, and its own ``--seed`` stays at the CLI
default.  Every call into cstrans goes through a module attribute
(``cli.run``, ``kernel_op.monomial_radial_limits``), so the traced run can
swap those attributes for span-recording wrappers.

``standard``, ``deep`` and ``scan`` run through ``cli.run``, one fixture
file per case, as a batch user would.  ``kernel`` calls the kernel layer
directly, since no CLI command exposes composed moments.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from checks import CheckFailed, require

WORKLOADS = ("standard", "deep", "scan", "kernel")

# The failing kernel operations use these maps whatever the seed, so the
# share of failed operations is the same in every run.
KEPT_FAILING_BLASCHKE = (
    {"kind": "blaschke", "zeros": [[0.3, 0.0], [0.0, -0.4]], "rotation": [1.0, 0.0]},
    {"kind": "blaschke", "zeros": [[0.0, 0.5], [-0.2, 0.0]], "rotation": [1.0, 0.0]},
)


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` runs after the pass.

    ``check`` raises CheckFailed on a wrong output and returns the certified
    lower bounds as shares of their ceilings.  ``expect_error`` names the
    exception a kept-failing operation must raise.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[float]]
    expect_error: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[Op]


class CliError(RuntimeError):
    """``cli.run`` ended with exit code 2 (bad input or non-convergence)."""


# ---------------------------------------------------------------------------
# Inputs, all in JSON-literal form.  Each generated case is a fixed shape
# (drawn once from SHAPE_SEED) turned by a seeded angle: turning the circle
# changes every number the program sees but neither the work a case costs
# nor its exact norms, so runs on different seeds measure the same problem.
# ``deep`` scales instead of turning, and ``scan`` jitters its grid.

SHAPE_SEED = 20240611


def _rngs(seed: int, workload: str) -> tuple[np.random.Generator, np.random.Generator]:
    """(shape generator, turn generator) for a workload."""
    i = WORKLOADS.index(workload)
    return np.random.default_rng([SHAPE_SEED, i]), np.random.default_rng([seed, i])


def gen_measure(rng: np.random.Generator, atoms: int) -> list[dict]:
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, atoms))
    weights = rng.uniform(-1, 1, atoms) + 1j * rng.uniform(-1, 1, atoms)
    return [
        {"angle": float(t), "re": float(w.real), "im": float(w.imag)}
        for t, w in zip(angles, weights)
    ]


def gen_disk_point(rng: np.random.Generator, lo: float, hi: float) -> list[float]:
    return _turn([rng.uniform(lo, hi), 0.0], rng.uniform(0, 2 * math.pi))


def gen_polynomial(rng: np.random.Generator, degree: int, total: float) -> dict:
    """A polynomial self-map whose coefficient moduli sum to ``total`` < 1."""
    c = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
    c *= total / np.sum(np.abs(c))
    return {"kind": "polynomial", "coeffs": [[float(x.real), float(x.imag)] for x in c]}


def gen_composed(rng: np.random.Generator) -> dict:
    return {
        "kind": "composed",
        "outer_a": gen_disk_point(rng, 0.1, 0.6),
        "inner": gen_polynomial(rng, int(rng.integers(1, 4)), rng.uniform(0.4, 0.9)),
    }


def power_map(n: int) -> dict:
    return {"kind": "polynomial", "coeffs": [[0.0, 0.0]] * n + [[1.0, 0.0]]}


def _turn(p, theta: float) -> list[float]:
    z = complex(float(p[0]), float(p[1])) * complex(math.cos(theta), math.sin(theta))
    return [z.real, z.imag]


def turn_measure(measure: list[dict], theta: float) -> list[dict]:
    return [{**atom, "angle": (atom["angle"] + theta) % (2 * math.pi)} for atom in measure]


def turn_map(obj: dict, theta: float) -> dict:
    """e^{i theta} phi(e^{-i theta} z): phi seen after turning the circle by theta."""
    kind = obj["kind"]
    if kind == "mobius":
        return {"kind": "mobius", "a": _turn(obj["a"], theta)}
    if kind == "blaschke":
        return {"kind": "blaschke", "zeros": [_turn(z, theta) for z in obj["zeros"]],
                "rotation": _turn(obj["rotation"], theta * (1 - len(obj["zeros"])))}
    if kind == "polynomial":
        return {"kind": "polynomial",
                "coeffs": [_turn(c, theta * (1 - k)) for k, c in enumerate(obj["coeffs"])]}
    if kind == "composed":
        return {"kind": "composed", "outer_a": _turn(obj["outer_a"], theta),
                "inner": turn_map(obj["inner"], theta)}
    raise ValueError(f"unknown self-map kind {kind!r}")


def scale_measure(measure: list[dict], factor: float) -> list[dict]:
    return [{**atom, "re": atom["re"] * factor, "im": atom["im"] * factor} for atom in measure]


def turn_coeffs(coeffs, theta: float) -> np.ndarray:
    """h(e^{-i theta} z): coefficient k turned by -k theta."""
    c = np.asarray(coeffs, dtype=complex)
    return c * np.exp(-1j * theta * np.arange(c.size))


# ---------------------------------------------------------------------------
# CLI operations.

def _cli_op(cli, workdir: Path, index: int, command: str, case: dict,
            check: Callable[[dict], list[float]], measure=None, self_map=None,
            degree_cap: int = 8) -> Op:
    """``cli.run`` on a one-case fixture file whose indices point at slot 0."""
    case = dict(case)
    doc = {"measures": [], "self_maps": [], "cases": [case]}
    if measure is not None:
        doc["measures"], case["measure"] = [measure], 0
    if self_map is not None:
        doc["self_maps"], case["self_map"] = [self_map], 0
    path = workdir / f"{index:03d}-{command}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    config = cli.RunConfig(command, fixtures=str(path), degree_cap=degree_cap)

    def run() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(config)
        if code == 2:
            raise CliError(f"{command} on {path.name}: exit 2")
        return out.getvalue()

    def check_text(text: str) -> list[float]:
        report = json.loads(text)
        require(report["pass"] is True, f"{command} on {path.name}: a verification failed")
        return check(report)

    return Op(command, run, check_text)


def _verify_bound_op(cli, workdir, i, measure, phi, cap=8) -> Op:
    return _cli_op(cli, workdir, i, "verify-bound", {},
                   lambda d: checks.check_verify_bound(d, measure, phi), measure, phi, cap)


def _lemma2_op(cli, workdir, i, measure, a, cap=8) -> Op:
    return _cli_op(cli, workdir, i, "verify-lemma2", {"a": a},
                   lambda d: checks.check_verify_lemma2(d, measure, checks.pair(a)), measure,
                   degree_cap=cap)


def _lemma1_op(cli, workdir, i, measure, psi) -> Op:
    return _cli_op(cli, workdir, i, "verify-lemma1", {},
                   lambda d: checks.check_verify_lemma1(d, measure, psi), measure, psi)


def _factorize_op(cli, workdir, i, phi) -> Op:
    return _cli_op(cli, workdir, i, "factorize", {},
                   lambda d: checks.check_factorize(d, phi), self_map=phi)


def _kernel_compare_op(cli, workdir, i, case) -> Op:
    return _cli_op(cli, workdir, i, "kernel-compare", case,
                   lambda d: checks.check_kernel_compare(d, case))


def _norm_estimate_op(cli, workdir, i, measure, cap=8) -> Op:
    return _cli_op(cli, workdir, i, "norm-estimate", {"degree_cap": cap},
                   lambda d: checks.check_norm_estimate(d, measure), measure)


def _scan_op(cli, workdir, i, a_values, cap=6) -> Op:
    return _cli_op(cli, workdir, i, "sharpness-scan", {"a_values": a_values, "degree_cap": cap},
                   lambda d: checks.check_scan(d, a_values))


def _standard_fixture_ops(cli, fixtures_doc: dict, workdir: Path) -> list[Op]:
    """Every case of the built-in set, one operation each, in CLI order."""
    measures, maps, cases = (
        fixtures_doc["measures"], fixtures_doc["self_maps"], fixtures_doc["cases"]
    )
    ops: list[Op] = []
    for command in cli.COMMANDS:
        for case in cases.get(command, []):
            i = len(ops)
            mu = measures[case["measure"]] if "measure" in case else None
            phi = maps[case["self_map"]] if "self_map" in case else None
            if command == "verify-bound":
                ops.append(_verify_bound_op(cli, workdir, i, mu, phi))
            elif command == "verify-lemma2":
                ops.append(_lemma2_op(cli, workdir, i, mu, case["a"]))
            elif command == "verify-lemma1":
                ops.append(_lemma1_op(cli, workdir, i, mu, phi))
            elif command == "factorize":
                ops.append(_factorize_op(cli, workdir, i, phi))
            elif command == "kernel-compare":
                ops.append(_kernel_compare_op(cli, workdir, i, case))
            elif command == "norm-estimate":
                ops.append(_norm_estimate_op(cli, workdir, i, mu))
            elif command == "sharpness-scan":
                ops.append(_scan_op(cli, workdir, i, case["a_values"], case.get("degree_cap", 6)))
            else:
                raise CheckFailed(f"the benchmark has no check for command {command!r}")
    return ops


def build_standard(seed: int, workdir: Path, smoke: bool) -> Workload:
    from cstrans import cli, fixtures

    shape, turns = _rngs(seed, "standard")
    ops = [] if smoke else _standard_fixture_ops(cli, fixtures.standard_fixtures(), workdir)
    n = len(ops)
    # Two cases of the built-in shapes: a point mass under a Möbius map,
    # whose exact composed norm is known, and three atoms under a composed map.
    cases = [
        (gen_measure(shape, 1), {"kind": "mobius", "a": gen_disk_point(shape, 0.1, 0.75)}),
        (gen_measure(shape, 3), gen_composed(shape)),
    ]
    for i, (mu, phi) in enumerate(cases):
        theta = turns.uniform(0.0, 2 * math.pi)
        ops.append(_verify_bound_op(cli, workdir, n + i, turn_measure(mu, theta), turn_map(phi, theta)))
    return Workload(ops, _warmup_ops(cli, workdir))


def build_deep(seed: int, workdir: Path, smoke: bool) -> Workload:
    from cstrans import cli

    shape, scales = _rngs(seed, "deep")
    low, high = (3, 4) if smoke else (24, 32)
    # The seed scales each measure's weights by a factor in [1/2, 2].  The
    # dual search is scale-equivariant, so every seed costs the same search;
    # it is not rotation-equivariant (its step directions are 1, i, -1, -i),
    # so turning these cases would change the work from seed to seed.
    cases = [("norm-estimate", gen_measure(shape, 3), None, high),
             ("verify-lemma2", gen_measure(shape, 2), gen_disk_point(shape, 0.3, 0.7), low),
             ("verify-lemma2", gen_measure(shape, 3), gen_disk_point(shape, 0.3, 0.7), high)]
    ops = []
    for i, (command, mu, a, cap) in enumerate(cases):
        mu = scale_measure(mu, 2.0 ** scales.uniform(-1.0, 1.0))
        if command == "norm-estimate":
            ops.append(_norm_estimate_op(cli, workdir, i, mu, cap))
        else:
            ops.append(_lemma2_op(cli, workdir, i, mu, a, cap))
    return Workload(ops, _warmup_ops(cli, workdir))


def build_scan(seed: int, workdir: Path, smoke: bool) -> Workload:
    from cstrans import cli

    _, rng = _rngs(seed, "scan")
    rows = 3 if smoke else 40
    # One jittered point per cell of an even grid over [0, 0.95].
    grid = 0.95 * (np.arange(rows) + rng.uniform(0.0, 1.0, rows)) / rows
    ops = [_scan_op(cli, workdir, i, [float(a)], 2 if smoke else 6) for i, a in enumerate(grid)]
    return Workload(ops, _warmup_ops(cli, workdir))


def _warmup_ops(cli, workdir: Path) -> list[Op]:
    """Cheap calls through each CLI path, so lazy set-up is done before timing."""
    mu = [{"angle": 0.5, "re": 1.0, "im": 0.0}]
    mob = {"kind": "mobius", "a": [0.3, 0.1]}
    return [
        _factorize_op(cli, workdir, 900, mob),
        _kernel_compare_op(cli, workdir, 901, {"a": [0.3, 0.0], "h": [[1.0, 0.0]], "zeta_angle": 0.2, "r": 0.9}),
        _verify_bound_op(cli, workdir, 902, mu, mob, 0),
        _norm_estimate_op(cli, workdir, 903, mu, 0),
    ]


# ---------------------------------------------------------------------------
# The kernel workload: direct calls into kernel_op, circle and disk_algebra.

def check_limits(phi_obj: dict, zeta: complex, count: int, vals) -> None:
    """P_phi z^m (zeta) for m < count: finite, P_phi 1 right, and equal to
    the closed form wherever the benchmark has one."""
    vals = np.asarray(vals)
    require(vals.shape == (count,), f"expected {count} values, got shape {vals.shape}")
    require(bool(np.all(np.isfinite(vals))), "non-finite kernel value")
    expect = checks.p_phi_one(checks.map_at_zero(phi_obj), zeta)
    require(checks.close(complex(vals[0]), expect), f"P_phi 1 = {vals[0]!r}, expected {expect!r}")
    exact = _exact_limits(phi_obj, zeta, count)
    if exact is not None:
        require(checks.all_close(vals, exact, 1e-9), "kernel values differ from the closed form")


def _exact_limits(phi_obj: dict, zeta: complex, count: int):
    """Independent values of P_phi z^m (zeta), where the benchmark has a closed form."""
    if phi_obj["kind"] == "mobius":
        return checks.mobius_monomial_limits(checks.pair(phi_obj["a"]), zeta, count)
    if phi_obj["kind"] == "blaschke" and len(phi_obj["zeros"]) == 1:
        # rot * lambda_a: P_phi h (zeta) = P_{lambda_a} h (zeta conj(rot)).
        rot = checks.pair(phi_obj["rotation"])
        return checks.mobius_monomial_limits(
            checks.pair(phi_obj["zeros"][0]), zeta * np.conjugate(rot), count)
    if phi_obj["kind"] == "polynomial":
        coeffs = [checks.pair(c) for c in phi_obj["coeffs"]]
        nonzero = [k for k, c in enumerate(coeffs) if c != 0]
        if len(nonzero) == 1 and coeffs[nonzero[0]] == 1:
            return checks.power_map_monomial_limits(nonzero[0], zeta, count)
    if phi_obj["kind"] == "composed" and phi_obj["inner"]["kind"] == "polynomial":
        coeffs = [checks.pair(c) for c in phi_obj["inner"]["coeffs"]]
        if coeffs == [0, 1]:
            return checks.mobius_monomial_limits(checks.pair(phi_obj["outer_a"]), zeta, count)
    return None


def build_kernel(seed: int, workdir: Path, smoke: bool) -> Workload:
    from cstrans import circle, disk_algebra, kernel_op, measures, norm_engine, self_maps

    shape, turns = _rngs(seed, "kernel")
    # Operations per pass of each kind, in units of ``reps``; at full size
    # the two kept-failing calls take about an eighth of a pass.
    reps = 1 if smoke else 20
    ops: list[Op] = []

    def moments_op(mu_obj, phi_obj, count):
        mu = measures.measure_from_obj(mu_obj)
        phi = self_maps.self_map_from_obj(phi_obj)
        zetas, weights = checks.measure_atoms(mu_obj)
        phi0 = checks.map_at_zero(phi_obj)
        ceiling = checks.ceiling(abs(phi0)) * checks.total_variation(mu_obj)

        def check(g) -> list[float]:
            g = np.asarray(g)
            require(g.shape == (count,), f"expected {count} moments, got {g.shape}")
            exact = [_exact_limits(phi_obj, z, count) for z in zetas]
            if all(e is not None for e in exact):
                want = sum(w * np.conjugate(e) for w, e in zip(weights, exact))
                require(checks.all_close(g, want, 1e-9), "composed moments differ from the closed form")
            else:
                g0 = np.sum(weights * np.conjugate(checks.p_phi_one(phi0, zetas)))
                require(checks.close(complex(g[0]), g0), f"g_0 = {g[0]!r}, expected {g0!r}")
            # Each monomial has sup norm 1, so max |g_m| is a certified lower
            # bound for the composed norm.
            lower = float(np.max(np.abs(g)))
            require(lower <= ceiling * (1 + checks.REL_TOL), f"moment {lower!r} above the ceiling")
            return [lower / ceiling]

        return Op("moments", lambda: norm_engine.composition_moments(mu, phi, count), check)

    def limits_op(phi_obj, count, angle, route):
        phi = self_maps.self_map_from_obj(phi_obj)
        zeta_pt = circle.CirclePoint(angle)
        zeta = zeta_pt.value

        def check(vals) -> list[float]:
            check_limits(phi_obj, zeta, count, vals)
            return []

        return Op(route, lambda: kernel_op.monomial_radial_limits(phi, count, zeta_pt), check)

    def routes_agree_op(a, count, angle):
        """lambda_a on the closed-form route and lambda_a o z on the series route."""
        mob = {"kind": "mobius", "a": a}
        comp = {"kind": "composed", "outer_a": a,
                "inner": {"kind": "polynomial", "coeffs": [[0.0, 0.0], [1.0, 0.0]]}}
        closed, series = self_maps.self_map_from_obj(mob), self_maps.self_map_from_obj(comp)
        zeta_pt = circle.CirclePoint(angle)

        def run():
            return (kernel_op.monomial_radial_limits(closed, count, zeta_pt),
                    kernel_op.monomial_radial_limits(series, count, zeta_pt))

        def check(out) -> list[float]:
            v_closed, v_series = out
            exact = checks.mobius_monomial_limits(checks.pair(a), zeta_pt.value, count)
            require(checks.all_close(v_closed, exact, 1e-9), "closed-form route differs from the formula")
            require(checks.all_close(v_series, v_closed, 1e-9), "series and closed-form routes disagree")
            return []

        return Op("routes", run, check)

    def quadrature_op(phi_obj, h_coeffs, angle, r):
        phi = self_maps.self_map_from_obj(phi_obj)
        h = disk_algebra.make_poly(h_coeffs)
        zeta_pt = circle.CirclePoint(angle)

        def check(v) -> list[float]:
            v = complex(v)
            if phi_obj["kind"] == "mobius":
                want = checks.p_lambda(checks.pair(phi_obj["a"]), h_coeffs, zeta_pt.value, r)
            else:
                require(list(h_coeffs) == [1.0], "quadrature check needs h = 1 off the Möbius orbit")
                want = checks.p_phi_one(checks.map_at_zero(phi_obj), zeta_pt.value)
            require(checks.close(v, want, 1e-9), f"quadrature {v!r} != {want!r} at r = {r}")
            return []

        return Op("quadrature", lambda: kernel_op.p_phi_at_stable(phi, h, zeta_pt, r), check)

    def certify_op(coeffs):
        arr = np.asarray(coeffs, dtype=complex)

        def check(poly) -> list[float]:
            sup = checks.dense_sup(arr)
            cert = float(poly.certified_sup)
            require(cert >= sup * (1 - 1e-12), f"certificate {cert!r} below the sampled sup {sup!r}")
            require(cert <= float(np.sum(np.abs(arr))) * (1 + 1e-12), "certificate above the coefficient sum")
            # The Bernstein correction at 64 samples per degree is below 1.06.
            require(cert <= sup * 1.06, f"certificate {cert!r} looser than 1.06 x sup {sup!r}")
            return []

        return Op("certify", lambda: disk_algebra.make_poly(arr), check)

    def failing_op(phi_obj, angle):
        phi = self_maps.self_map_from_obj(phi_obj)
        zeta_pt = circle.CirclePoint(angle)

        def check(vals) -> list[float]:
            check_limits(phi_obj, zeta_pt.value, 2, vals)
            return []

        return Op("sweep", lambda: kernel_op.monomial_radial_limits(phi, 2, zeta_pt), check,
                  expect_error="NonConvergenceError")

    counts = (9, 17, 33, 65)

    def turn() -> float:
        return float(turns.uniform(0.0, 2 * math.pi))

    def angle() -> float:
        return float(shape.uniform(0.0, 2 * math.pi))

    def poly_map() -> dict:
        return gen_polynomial(shape, int(shape.integers(1, 4)), shape.uniform(0.4, 0.9))

    # The mix puts the median inside the series-route calls, and the tail
    # inside moment vectors of z^n and quadrature at r = 0.999.  z^n is not
    # turned: turning its atoms or zeta alone already poses the same problem.
    # Closed-form route: Möbius maps and one-zero Blaschke maps.
    for k in range(3 * reps):
        a = gen_disk_point(shape, 0.0, 0.9)
        if k % 3 == 2:
            phi_obj = {"kind": "blaschke", "zeros": [a], "rotation": gen_disk_point(shape, 1.0, 1.0)}
        else:
            phi_obj = {"kind": "mobius", "a": a}
        t = turn()
        ops.append(limits_op(turn_map(phi_obj, t), counts[k % 4], angle() + t, "closed_form"))
    for k in range(2 * reps):
        mu, mob, t = gen_measure(shape, 8 + 8 * (k % 8)), {"kind": "mobius", "a": gen_disk_point(shape, 0.0, 0.9)}, turn()
        ops.append(moments_op(turn_measure(mu, t), turn_map(mob, t), counts[k % 4]))
    # Series route: z^n (exact), Möbius after a polynomial, polynomials.
    for k in range(8 * reps):
        if k % 3 == 0:
            ops.append(limits_op(power_map(2 + k % 2), counts[k % 4], angle() + turn(), "series"))
        else:
            phi_obj, t = (gen_composed(shape) if k % 3 == 1 else poly_map()), turn()
            ops.append(limits_op(turn_map(phi_obj, t), counts[k % 4], angle() + t, "series"))
    for k in range(2 * reps):
        ops.append(moments_op(turn_measure(gen_measure(shape, 16), turn()), power_map(2 + k // 2 % 2),
                              counts[2 + k % 2]))
    for k in range(reps):
        mu, phi_obj, t = gen_measure(shape, 4), gen_composed(shape), turn()
        ops.append(moments_op(turn_measure(mu, t), turn_map(phi_obj, t), counts[k % 4]))
    for k in range(reps):
        t = turn()
        ops.append(routes_agree_op(_turn(gen_disk_point(shape, 0.0, 0.9), t), counts[k % 4], angle() + t))
    # Direct quadrature at r = 0.9..0.999.
    for k in range(3 * reps):
        r = (0.9, 0.99, 0.999)[k % 3]
        if k % 2 == 0:
            phi_obj = {"kind": "mobius", "a": gen_disk_point(shape, 0.0, 0.9)}
            d = int(shape.integers(0, 5))
            h = shape.uniform(-1, 1, d + 1) + 1j * shape.uniform(-1, 1, d + 1)
        else:
            phi_obj = gen_composed(shape) if k % 4 == 1 else poly_map()
            h = np.ones(1, dtype=complex)
        t = turn()
        ops.append(quadrature_op(turn_map(phi_obj, t), list(turn_coeffs(h, t)), angle() + t, r))
    # Sup-norm certification of polynomials of degree 8..64.
    for k in range(3 * reps):
        d = (8, 16, 32, 64)[k % 4]
        c = shape.uniform(-1, 1, d + 1) + 1j * shape.uniform(-1, 1, d + 1)
        ops.append(certify_op(turn_coeffs(c, turn())))
    # The kept-failing two-zero Blaschke operations (fixed inputs).
    for phi_obj, ang in zip(KEPT_FAILING_BLASCHKE, (0.7, 2.2)):
        ops.append(failing_op(phi_obj, ang))

    warm = [
        limits_op({"kind": "mobius", "a": [0.2, 0.1]}, 9, 0.3, "closed_form"),
        limits_op({"kind": "polynomial", "coeffs": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}, 9, 0.3, "series"),
        quadrature_op({"kind": "mobius", "a": [0.2, 0.1]}, [1.0], 0.3, 0.9),
        certify_op(np.ones(9, dtype=complex)),
    ]
    return Workload(ops, warm)


BUILDERS = {
    "standard": build_standard,
    "deep": build_deep,
    "scan": build_scan,
    "kernel": build_kernel,
}


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """The workload's operations for ``seed``; ``smoke`` gives its smallest size."""
    return BUILDERS[name](seed, workdir, smoke)
