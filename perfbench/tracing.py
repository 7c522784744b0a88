"""Span recording around the public calls between cstrans modules.

Nothing in ``src/`` changes: ``installed`` replaces each target function,
in every ``cstrans`` module that holds it, by a wrapper that records a span
(name, parent, start, end), and puts the originals back afterwards.
Functions a module calls inside itself are replaced in that module's
namespace too, so the wrapper sees those calls as well.

A layer's self time is its spans' durations minus the time their direct
children cover; a layer's call count counts spans whose parent has another
name, so a recursion or a wrapper calling a same-layer helper counts once.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# Span names: one per layer.  The kernel routes share one wrapper that names
# the span from the route cstrans itself picks for the map.
ROUTE_SPANS = {
    "closed-form": "kernel_op.closed_form",
    "series": "kernel_op.series",
    "quadrature-sweep": "kernel_op.sweep",
}
SWEEP = "kernel_op.sweep"

# (module, function, span name or "route").
TARGETS = (
    ("cstrans.cli", "run", "cli.run"),
    ("cstrans.cli", "_load_fixture_doc", "fixtures.load"),
    ("cstrans.fixtures", "standard_fixtures", "fixtures.load"),
    ("cstrans.self_maps", "self_map_from_obj", "self_maps.construct"),
    ("cstrans.self_maps", "schwarz_factorize", "self_maps.factorize"),
    ("cstrans.self_maps", "factorization_residual", "self_maps.factorize"),
    ("cstrans.norm_engine", "verify_eq1", "norm_engine.verify"),
    ("cstrans.norm_engine", "verify_lemma1", "norm_engine.verify"),
    ("cstrans.norm_engine", "verify_lemma2", "norm_engine.verify"),
    ("cstrans.norm_engine", "knorm_bracket", "norm_engine.verify"),
    ("cstrans.norm_engine", "sharpness_scan", "norm_engine.verify"),
    ("cstrans.norm_engine", "composition_moments", "norm_engine.moments"),
    ("cstrans.norm_engine", "_dual_search", "norm_engine.search"),
    ("cstrans.norm_engine", "_scan_row", "norm_engine.measure_search"),
    ("cstrans.kernel_op", "monomial_radial_limits", "route"),
    ("cstrans.kernel_op", "p_phi_radial_limit", "route"),
    ("cstrans.kernel_op", "p_phi_exact_at", "route"),
    ("cstrans.kernel_op", "p_lambda_closed_form", "kernel_op.closed_form"),
    ("cstrans.kernel_op", "p_phi_at_stable", "kernel_op.quadrature"),
    ("cstrans.disk_algebra", "make_poly", "disk_algebra.certify"),
    ("cstrans.disk_algebra", "certify_sup_norm", "disk_algebra.certify"),
    ("cstrans.circle", "refine_until_stable", "circle.refine"),
)


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        rec = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(idx)
        rec[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)


def _wrapper(rec: Recorder, fn, name: str, limit_route):
    if name == "route":
        def wrapped(phi, *args, **kwargs):
            return rec.call(ROUTE_SPANS[limit_route(phi)], fn, (phi, *args), kwargs)
    elif name == "kernel_op.quadrature":
        def wrapped(*args, **kwargs):
            # A sweep's quadratures are the sweep's own work.
            if rec.inside(SWEEP):
                return fn(*args, **kwargs)
            return rec.call(name, fn, args, kwargs)
    elif name == "circle.refine":
        # No span of its own: counts the nodes of every grid it evaluates.
        def wrapped(evaluate, *args, **kwargs):
            def counted(grid):
                rec.counters["circle.quadrature_nodes"] += grid.node_count
                return evaluate(grid)
            return fn(counted, *args, **kwargs)
    elif fn.__name__ == "certify_sup_norm":
        def wrapped(coeffs, sample_count, *args, **kwargs):
            arr = np.asarray(coeffs)
            if np.any(arr):
                rec.counters["disk_algebra.horner_mults"] += int(sample_count) * arr.size
            return rec.call(name, fn, (coeffs, sample_count, *args), kwargs)
    else:
        def wrapped(*args, **kwargs):
            return rec.call(name, fn, args, kwargs)
    wrapped.__wrapped__ = fn
    return wrapped


@contextlib.contextmanager
def installed(rec: Recorder):
    """Swap every target for its recording wrapper while the block runs."""
    modules = [m for n, m in list(sys.modules.items()) if n == "cstrans" or n.startswith("cstrans.")]
    limit_route = sys.modules["cstrans.kernel_op"].limit_route
    saved = []
    try:
        for mod_name, attr, name in TARGETS:
            if mod_name not in sys.modules:  # a layer this workload never loads
                continue
            original = getattr(sys.modules[mod_name], attr)
            wrapped = _wrapper(rec, original, name, limit_route)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        yield rec
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def layer_times(rec: Recorder) -> tuple[dict, dict, float]:
    """Self seconds and call counts per span name, and the time top-level spans cover."""
    spans = rec.spans
    child = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    covered = 0.0
    for i, (name, parent, t0, t1) in enumerate(spans):
        self_s[name] += (t1 - t0) - child[i]
        if parent < 0:
            covered += t1 - t0
        if parent < 0 or spans[parent][0] != name:
            calls[name] += 1
    return self_s, calls, covered


def pass_metrics(rec: Recorder, wall: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass of ``wall`` seconds."""
    self_s, calls, covered = layer_times(rec)
    ms = lambda name: self_s.get(name, 0.0) * 1e3  # noqa: E731
    out = {
        "fixtures.load_ms": ms("fixtures.load"),
        "self_maps.construct_ms": ms("self_maps.construct"),
        "self_maps.factorize_ms": ms("self_maps.factorize"),
        "cli.overhead_ms": ms("cli.run"),
        "norm_engine.verify_ms": ms("norm_engine.verify"),
        "norm_engine.moments_ms": ms("norm_engine.moments"),
        "norm_engine.search_s": self_s.get("norm_engine.search", 0.0),
        "norm_engine.search_calls": calls.get("norm_engine.search", 0),
        "norm_engine.measure_search_s": self_s.get("norm_engine.measure_search", 0.0),
    }
    for route in ("closed_form", "series", "sweep", "quadrature"):
        out[f"kernel_op.{route}_ms"] = ms(f"kernel_op.{route}")
        out[f"kernel_op.{route}_calls"] = calls.get(f"kernel_op.{route}", 0)
    out["circle.quadrature_nodes"] = rec.counters.get("circle.quadrature_nodes", 0)
    out["disk_algebra.certify_ms"] = ms("disk_algebra.certify")
    out["disk_algebra.certify_calls"] = calls.get("disk_algebra.certify", 0)
    out["disk_algebra.horner_mults"] = rec.counters.get("disk_algebra.horner_mults", 0)
    out["bench.overhead_ms"] = (wall - covered) * 1e3
    out["trace.layer_share"] = sum(self_s.values()) / wall if wall > 0 else 0.0
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def span_lines(rec: Recorder, pass_index: int):
    """The pass's spans as JSON-ready dicts, times relative to its first span."""
    base = rec.spans[0][2] if rec.spans else 0.0
    for i, (name, parent, t0, t1) in enumerate(rec.spans):
        yield {"pass": pass_index, "id": i, "name": name, "parent": parent,
               "start_s": t0 - base, "end_s": t1 - base}
