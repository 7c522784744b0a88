#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workloads standard,deep,scan,kernel --seeds 1-10

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, the
figure each end-to-end bound in BENCHMARK.json must cover.  It also prints
the share of failed operations, which must be the same on every seed.
These are the reference figures in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="standard,deep,scan,kernel")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                worst = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        if len(results) < 2:
            continue
        print(f"{workload}: failed shares {sorted({r['failed'] / r['attempted'] for r in results})}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            note = "" if bound is None else f" bound {bound} ({spread / bound:.2f} of it)"
            print(f"  {name:28s} median {median:.6g} spread {spread:.4f}{note}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
