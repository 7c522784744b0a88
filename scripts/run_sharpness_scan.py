#!/usr/bin/env python3
"""Scan base points for how much of the composition bound is certified.

For each a in [0, amax] the scan evaluates the extremal measure, the unit
point mass at 1, under lambda_a, certifies its ratio lower(f o lambda_a) /
tv(mu) with the dual search, and prints it against the ceiling
(1 + 2a)/(1 - a), which that measure attains exactly.  Achieved ratios are
lower bounds; the gap column shows how much ceiling the dual search at this
degree cap leaves uncertified.

Usage: python scripts/run_sharpness_scan.py [--amax 0.9] [--steps 10]
           [--degree-cap 6] [--out scan.csv]
"""

import argparse
import csv
import sys

from cstrans.norm_engine import sharpness_scan


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--amax", type=float, default=0.9)
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--degree-cap", type=int, default=6)
    parser.add_argument("--out", default=None, help="write rows as CSV")
    args = parser.parse_args()
    if not 0.0 <= args.amax <= 0.95:
        parser.error("--amax must lie in [0, 0.95]")
    if args.steps < 1:
        parser.error("--steps must be at least 1")

    a_values = [args.amax * k / max(args.steps - 1, 1) for k in range(args.steps)]
    rows = sharpness_scan(a_values, degree_cap=args.degree_cap)

    print(f"{'a':>6} {'ratio':>12} {'bound':>12} {'gap':>12}")
    for row in rows:
        print(f"{row.a:6.3f} {row.ratio:12.6f} {row.bound:12.6f} {row.margin:12.6f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "ratio", "bound", "margin"])
            for row in rows:
                writer.writerow([row.a, row.ratio, row.bound, row.margin])
        print(f"rows -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
