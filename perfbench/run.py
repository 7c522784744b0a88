#!/usr/bin/env python3
"""The cstrans benchmark: one workload per run, closed loop, one caller thread.

    python3 perfbench/run.py --workload standard --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports cstrans from its
``src/``.  A run sets the workload up (imports, seeded inputs, fixture
files, warm-up), then repeats whole passes over the same operations, each
operation starting when the previous one ends, until the next pass would
end after ``--seconds``.  Every output is checked after its pass.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
untraced pass, then alternates untraced and traced passes and prints the
per-layer metrics, writing the traced spans to ``perfbench/out/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("standard", "deep", "scan", "kernel")
# Set-ups per run: this process's own and this many more in fresh processes.
CHILD_SETUPS = 6
# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "lower_to_ceiling": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no cstrans source, bad warm-up)."""


@dataclass
class PassResult:
    wall: float
    cpu: float
    op_ms: list[float] = field(default_factory=list)
    failed: int = 0
    shares: list[float] = field(default_factory=list)
    correct: bool = True


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate and warm up; returns (seconds taken, workload)."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "cstrans" / "__init__.py").is_file():
        raise SetupError(f"no cstrans source under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import cstrans
    if Path(cstrans.__file__).resolve().parent != (src / "cstrans").resolve():
        raise SetupError(f"imported cstrans from {cstrans.__file__}, not from {src}")
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(workload, seed, workdir)
    for op in wl.warmup:
        op.check(op.run())
    return time.perf_counter() - t0, wl


def child_setup(workload: str, seed: int) -> float:
    """One more set-up, timed inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up in a fresh process failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_pass(ops) -> tuple[PassResult, list]:
    """Run every operation once, timing each; returns results to check later."""
    results = []
    op_ms = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        s = time.perf_counter()
        try:
            out, exc = op.run(), None
        except Exception as e:  # counted as a failed operation, reported below
            out, exc = None, e
        op_ms.append((time.perf_counter() - s) * 1e3)
        results.append((out, exc))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return PassResult(wall, cpu), list(zip(ops, results, op_ms))


def check_pass(res: PassResult, timed: list) -> PassResult:
    from checks import CheckFailed

    for op, (out, exc), ms in timed:
        if exc is not None:
            res.failed += 1
            if op.expect_error is None:
                print(f"failed: {op.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
            elif type(exc).__name__ != op.expect_error:
                res.correct = False
                print(f"wrong failure: {op.kind}: expected {op.expect_error}, got "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        res.op_ms.append(ms)
        try:
            res.shares.extend(op.check(out))
        except (CheckFailed, KeyError, TypeError, ValueError) as e:
            res.correct = False
            print(f"incorrect: {op.kind}: {type(e).__name__}: {e}", file=sys.stderr)
    return res


def tail(values: list[float]) -> float:
    """The highest percentile with TAIL_BEYOND samples beyond it; the
    maximum when a pass has fewer than 4 * TAIL_BEYOND operations."""
    xs = sorted(values)
    if len(xs) < 4 * TAIL_BEYOND:
        return xs[-1]
    return xs[len(xs) - TAIL_BEYOND - 1]


def end_to_end(passes: list[PassResult], setups: list[float]) -> dict[str, float]:
    done = [p for p in passes if p.op_ms]
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "op_p50_ms": statistics.median(statistics.median(p.op_ms) for p in done),
        "op_tail_ms": statistics.median(tail(p.op_ms) for p in done),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lower_to_ceiling": statistics.fmean(passes[0].shares),
    }


def measure(wl, seconds: float) -> list[PassResult]:
    """Whole passes until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        res, timed = run_pass(wl.ops)
        passes.append(check_pass(res, timed))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            return passes


def measure_traced(wl, seconds: float, trace_path: Path):
    """Alternate untraced and traced passes; per-layer medians over the traced ones.

    A first untraced pass is left out of the overhead: the first pass of a
    process runs a few percent slower than later ones (see README.md), which
    would otherwise read as a negative tracing overhead.
    """
    import tracing

    first = check_pass(*run_pass(wl.ops))
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    with open(trace_path, "w", encoding="utf-8") as fh:
        while True:
            res, timed = run_pass(wl.ops)
            plain.append(check_pass(res, timed))
            rec = tracing.Recorder()
            with tracing.installed(rec):
                res, timed = run_pass(wl.ops)
            traced.append(check_pass(res, timed))
            layers.append(tracing.pass_metrics(rec, res.wall))
            for line in tracing.span_lines(rec, len(traced) - 1):
                fh.write(json.dumps(line) + "\n")
            elapsed = time.perf_counter() - start
            pair_s = statistics.median(p.wall for p in plain) + statistics.median(p.wall for p in traced)
            if elapsed + pair_s > seconds:
                break
    metrics = tracing.median_metrics(layers)
    metrics["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain)
    )
    return [first] + plain + traced, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup_s, wl = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] + [child_setup(args.workload, args.seed) for _ in range(CHILD_SETUPS)]
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            passes, metrics = measure_traced(wl, args.seconds, trace_path)
            units = {k: per_layer_unit(k) for k in metrics}
        else:
            passes = measure(wl, args.seconds)
            metrics = end_to_end(passes, setups)
            units = END_TO_END_UNITS
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a benchmark bug or a broken program: no result line
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = all(p.correct for p in passes)
    attempted = len(passes) * len(wl.ops)
    failed = sum(p.failed for p in passes)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} ops/pass={len(wl.ops)} "
          f"attempted={attempted} failed={failed} correct={correct}")
    print("# pass wall_s: " + " ".join(f"{p.wall:.3f}" for p in passes))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
