"""Batch command-line front end.

Loads a fixture file (or the built-in standard set), runs one verifier or
scan, and writes a machine-readable JSON or CSV report.  Exit codes:
0 all checks passed, 1 at least one verification failed, 2 input or
convergence error.  Output is byte-for-byte deterministic for a fixed
command, fixtures and options: reports carry no wall-clock time.

Fixture files are JSON documents
``{"measures": [...], "self_maps": [...], "cases": [...]}`` where each
measure is an array of ``{"angle", "re", "im"}`` atoms, each self-map is a
``{"kind": ...}`` literal, and each case binds command-specific fields
(indices into the two pools, or inline values such as ``"a"``, ``"h"``,
``"zeta_angle"``, ``"r"``, ``"a_values"``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field

from .circle import CirclePoint, DiskPoint, NonConvergenceError, complex_from_obj, real_from_obj
from .disk_algebra import make_poly, poly_to_obj
from .fixtures import standard_fixtures
from .kernel_op import p_lambda_closed_form, p_phi_at_stable
from .measures import measure_from_obj, measure_to_obj
from .norm_engine import (
    DEFAULT_TOLERANCES,
    knorm_bracket,
    sharpness_scan,
    verify_eq1,
    verify_lemma1,
    verify_lemma2,
)
from .self_maps import (
    DiskSelfMap,
    MobiusSelfMap,
    factorization_residual,
    schwarz_factorize,
    self_map_from_obj,
    self_map_to_obj,
)

COMMANDS = (
    "verify-bound",
    "verify-lemma1",
    "verify-lemma2",
    "factorize",
    "kernel-compare",
    "norm-estimate",
    "sharpness-scan",
)


class FixtureError(ValueError):
    """Fixture input that cannot be used for the requested command."""


@dataclass
class RunConfig:
    command: str
    fixtures: str = "standard"
    output: str | None = None
    format: str = "json"
    tolerances: dict = field(default_factory=dict)
    degree_cap: int = 8

    def tol(self, name: str) -> float:
        if name not in DEFAULT_TOLERANCES:
            raise FixtureError(f"unknown tolerance name {name!r}")
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))


def _load_fixture_doc(path: str, command: str) -> tuple[list, list, list]:
    if path == "standard":
        doc = standard_fixtures()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise FixtureError(f"cannot read fixtures: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FixtureError(
                f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
            ) from exc
    if not isinstance(doc, dict):
        raise FixtureError("fixture document must be a JSON object")
    measures_raw = doc.get("measures", [])
    maps_raw = doc.get("self_maps", [])
    cases = doc.get("cases", [])
    if isinstance(cases, dict):  # the built-in set keys cases by command
        cases = cases.get(command, [])
    for key, pool in (("measures", measures_raw), ("self_maps", maps_raw), ("cases", cases)):
        if not isinstance(pool, list):
            raise FixtureError(f"'{key}' must be an array")
    for i, case in enumerate(cases):
        if not isinstance(case, dict):
            raise FixtureError(f"cases[{i}]: expected an object, got {case!r}")
    measures = [
        measure_from_obj(m, where=f"measures[{i}]") for i, m in enumerate(measures_raw)
    ]
    maps = [
        self_map_from_obj(s, where=f"self_maps[{i}]") for i, s in enumerate(maps_raw)
    ]
    return measures, maps, cases


# Readers of case fields; each error names the field, as in ``cases[2].h[1]``.

def _int_at(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FixtureError(f"{where}: expected an integer, got {value!r}")
    return value


def _complex_at(value, where: str) -> complex:
    try:
        return complex_from_obj(value)
    except ValueError as exc:
        raise FixtureError(f"{where}: {exc}") from exc


def _real_at(value, where: str) -> float:
    try:
        return real_from_obj(value)
    except ValueError as exc:
        raise FixtureError(f"{where}: {exc}") from exc


def _case_value(case: dict, key: str, idx: int, read):
    if key not in case:
        raise FixtureError(f"cases[{idx}]: missing '{key}'")
    return read(case[key], f"cases[{idx}].{key}")


def _case_array(case: dict, key: str, idx: int, read) -> list:
    values = case.get(key)
    if not isinstance(values, list) or not values:
        raise FixtureError(f"cases[{idx}].{key}: expected a nonempty array, got {values!r}")
    return [read(v, f"cases[{idx}].{key}[{k}]") for k, v in enumerate(values)]


def _case_pick(case: dict, key: str, pool: list, idx: int):
    j = _case_value(case, key, idx, _int_at)
    if not 0 <= j < len(pool):
        raise FixtureError(f"cases[{idx}].{key}: index {j!r} out of range")
    return pool[j]


def _map_label(phi: DiskSelfMap) -> str:
    obj = self_map_to_obj(phi)
    return json.dumps(obj, sort_keys=True)


# Each handler turns case ``i`` into one report object.

def _run_verifier(cfg: RunConfig, measures, maps, case: dict, i: int) -> dict:
    mu = _case_pick(case, "measure", measures, i)
    common = (cfg.degree_cap, cfg.tol("pass_margin"))
    if cfg.command == "verify-lemma2":
        report = verify_lemma2(mu, _case_value(case, "a", i, _complex_at), *common)
    elif cfg.command == "verify-lemma1":
        report = verify_lemma1(mu, _case_pick(case, "self_map", maps, i), *common, cfg.tol("base_point"))
    else:
        report = verify_eq1(
            mu, _case_pick(case, "self_map", maps, i), *common,
            cfg.tol("factorize_residual"), cfg.tol("base_point"),
        )
    return report.to_obj()


def _run_factorize(cfg: RunConfig, measures, maps, case: dict, i: int) -> dict:
    phi = _case_pick(case, "self_map", maps, i)
    base, psi = schwarz_factorize(phi)
    residual = factorization_residual(phi, base, psi)
    psi0 = abs(psi.at_zero())
    passed = residual <= cfg.tol("factorize_residual") and psi0 <= cfg.tol("base_point")
    return {
        "claim": f"factorization of {_map_label(phi)}",
        "inputs": {"phi": self_map_to_obj(phi)},
        "a": [base.value.real, base.value.imag],
        "psi_at_zero": psi0,
        "reconstruction_residual": residual,
        "psi": self_map_to_obj(psi),
        "pass": passed,
    }


def _run_kernel_compare(cfg: RunConfig, measures, maps, case: dict, i: int) -> dict:
    a = _case_value(case, "a", i, _complex_at)
    coeffs = _case_array(case, "h", i, _complex_at)
    h = make_poly(coeffs)
    zeta = CirclePoint(_case_value(case, "zeta_angle", i, _real_at))
    r = _case_value(case, "r", i, _real_at)
    phi = MobiusSelfMap(DiskPoint(a))
    closed = p_lambda_closed_form(a, h, zeta, r)
    quad = p_phi_at_stable(phi, h, zeta, r)
    diff = abs(closed - quad)
    tol = cfg.tol("kernel_compare") * max(1.0, abs(closed))
    return {
        "claim": f"residue closed form vs quadrature at |a| = {abs(a):.6g}",
        "inputs": {
            "a": [a.real, a.imag],
            "h": [[c.real, c.imag] for c in coeffs],
            "zeta_angle": zeta.angle,
            "r": r,
        },
        "zeta_angle": zeta.angle,
        "r": r,
        "re": closed.real,
        "im": closed.imag,
        "abs": abs(closed),
        "quad_re": quad.real,
        "quad_im": quad.imag,
        "abs_diff": diff,
        "pass": diff <= tol,
    }


def _run_norm_estimate(cfg: RunConfig, measures, maps, case: dict, i: int) -> dict:
    mu = _case_pick(case, "measure", measures, i)
    cap = _int_at(case.get("degree_cap", cfg.degree_cap), f"cases[{i}].degree_cap")
    # NormBracket raises when lower > upper + tol, so a built bracket passed.
    bracket = knorm_bracket(mu, cap, cfg.tol("sandwich"))
    return {
        "claim": "transform norm bracket from duality",
        "inputs": {"measure": measure_to_obj(mu)},
        "lower": bracket.lower,
        "upper": bracket.upper,
        "bound": bracket.upper,
        "pass": True,
        "witnesses": {
            "h": poly_to_obj(bracket.witness_h),
            "mu": measure_to_obj(bracket.witness_mu),
        },
    }


def _run_sharpness_scan(cfg: RunConfig, measures, maps, case: dict, i: int) -> dict:
    a_values = _case_array(case, "a_values", i, _real_at)
    cap = _int_at(case.get("degree_cap", cfg.degree_cap), f"cases[{i}].degree_cap")
    rows = sharpness_scan(a_values, cap)
    return {
        "claim": "achieved ratio against the composition bound",
        "inputs": {"a_values": case["a_values"], "degree_cap": cap},
        "rows": [
            {
                "a": row.a,
                "ratio": row.ratio,
                "bound": row.bound,
                "margin": row.margin,
            }
            for row in rows
        ],
        "pass": all(row.ratio <= row.bound + cfg.tol("pass_margin") for row in rows),
    }


_HANDLERS = {
    "verify-bound": _run_verifier,
    "verify-lemma1": _run_verifier,
    "verify-lemma2": _run_verifier,
    "factorize": _run_factorize,
    "kernel-compare": _run_kernel_compare,
    "norm-estimate": _run_norm_estimate,
    "sharpness-scan": _run_sharpness_scan,
}

_CSV_COLUMNS = ["claim", "lower", "upper", "bound", "pass"]


def _reports_to_csv(command: str, reports: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if command == "sharpness-scan":
        writer.writerow(["a", "ratio", "bound", "margin"])
        for rep in reports:
            for row in rep["rows"]:
                writer.writerow([row["a"], row["ratio"], row["bound"], row["margin"]])
    elif command == "kernel-compare":
        writer.writerow(["zeta_angle", "r", "re", "im", "abs", "quad_re", "quad_im", "abs_diff", "pass"])
        for rep in reports:
            writer.writerow(
                [rep[k] for k in ("zeta_angle", "r", "re", "im", "abs", "quad_re", "quad_im", "abs_diff", "pass")]
            )
    else:
        writer.writerow(_CSV_COLUMNS)
        for rep in reports:
            writer.writerow([rep.get(k, "") for k in _CSV_COLUMNS])
    return out.getvalue()


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        measures, maps, cases = _load_fixture_doc(config.fixtures, config.command)
        if not cases:
            raise FixtureError(f"no cases for command {config.command!r}")
        reports = []
        for i, case in enumerate(cases):
            try:
                reports.append(_HANDLERS[config.command](config, measures, maps, case, i))
            except FixtureError:  # already names the case and its field
                raise
            except (NonConvergenceError, ValueError) as exc:
                raise type(exc)(f"cases[{i}]: {exc}") from exc
    except (NonConvergenceError, ValueError) as exc:  # FixtureError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    all_pass = all(rep.get("pass", True) for rep in reports)
    if config.format == "csv":
        text = _reports_to_csv(config.command, reports)
    else:
        document = {
            "command": config.command,
            "fixtures": config.fixtures,
            "reports": reports,
            "pass": all_pass,
        }
        text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    if config.output and config.output != "-":
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all_pass else 1


def _parse_tolerances(entries: list[str]) -> dict:
    out = {}
    for entry in entries:
        if "=" not in entry:
            raise FixtureError(f"--tol expects NAME=VALUE, got {entry!r}")
        name, _, value = entry.partition("=")
        if name not in DEFAULT_TOLERANCES:
            raise FixtureError(f"unknown tolerance name {name!r}")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise FixtureError(f"--tol {name}: bad value {value!r}") from exc
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstrans",
        description="verify composition-operator norm bounds on Cauchy transforms",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--fixtures", default="standard", help="fixture file path or 'standard'")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument(
        "--tol", action="append", default=[], metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
    )
    parser.add_argument("--degree-cap", type=int, default=8)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tolerances = _parse_tolerances(args.tol)
    except FixtureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = RunConfig(
        command=args.command,
        fixtures=args.fixtures,
        output=args.out,
        format=args.format,
        tolerances=tolerances,
        degree_cap=args.degree_cap,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
