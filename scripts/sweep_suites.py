#!/usr/bin/env python3
"""Sweep the randomized invariant suites over a range of seeds.

Usage: python scripts/sweep_suites.py [--seeds 10] [--cases 20]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from endflow.verify import run_all


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--cases", type=int, default=20)
    args = parser.parse_args()
    for name in ("seeds", "cases"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be at least 1")

    bad = 0
    start = time.monotonic()
    for seed in range(args.seeds):
        for rep in run_all(seed, args.cases):
            mark = "ok" if not rep["failures"] else "FAIL"
            if rep["failures"]:
                bad += 1
                print(f"seed {seed} {rep['name']}: {mark}")
                for msg in rep["failures"][:3]:
                    print(f"  {msg}")
    elapsed = time.monotonic() - start
    total = args.seeds * args.cases
    print(
        f"{args.seeds} seeds x {args.cases} cases per suite: "
        f"{'all suites passed' if bad == 0 else f'{bad} suite runs failed'} "
        f"({elapsed:.1f}s, {total} cases per suite overall)"
    )
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
