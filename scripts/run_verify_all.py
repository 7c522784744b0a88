#!/usr/bin/env python3
"""Run every verifier over the standard fixture set and print a summary table.

Usage: python scripts/run_verify_all.py [--out report.json]
"""

import argparse
import json
import os
import sys
import tempfile

from cstrans.cli import RunConfig, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="also write the combined JSON here")
    args = parser.parse_args()

    combined = {}
    worst = 0
    with tempfile.TemporaryDirectory(prefix="cstrans-") as tmp:
        for command in ("factorize", "verify-lemma1", "verify-lemma2", "verify-bound", "norm-estimate"):
            out = os.path.join(tmp, f"{command}.json")
            code = run(RunConfig(command, output=out))
            worst = max(worst, code)
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            combined[command] = doc
            n_pass = sum(1 for r in doc["reports"] if r.get("pass", True))
            print(f"{command:16s} exit={code} cases={len(doc['reports'])} passed={n_pass}")
            for rep in doc["reports"]:
                lower = rep.get("lower")
                bound = rep.get("bound")
                detail = ""
                if lower is not None and bound is not None:
                    detail = f" lower={lower:.6f} bound={bound:.6f}"
                print(f"    {'ok' if rep.get('pass', True) else 'FAIL'} {rep['claim'][:70]}{detail}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(combined, fh, sort_keys=True, indent=2)
        print(f"combined report -> {args.out}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
