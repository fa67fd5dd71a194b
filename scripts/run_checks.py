#!/usr/bin/env python3
"""Run the full verification sweep with per-check timing.

Example:
    python scripts/run_checks.py --n 6 --alphabet 3 --jobs 4
"""
import argparse
import sys
import time

from mahonian import verify
from mahonian.errors import DEFAULT_CAP


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6, help="size bound (default 6)")
    parser.add_argument("--alphabet", type=int, default=3, help="letter bound (default 3)")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    args = parser.parse_args()

    bounds = verify.CheckBounds(n=args.n, alphabet=args.alphabet, cap=args.cap, jobs=args.jobs)
    print(f"{'check':<10} {'domain':<34} {'instances':>9} {'time':>8}  result")
    failures = 0
    for name in verify.CHECK_IDS:
        start = time.perf_counter()
        report = verify.check(name, bounds, sweep=True)
        elapsed = time.perf_counter() - start
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"{report.name:<10} {report.domain:<34} {report.instances:>9}"
            f" {elapsed:>7.2f}s  {verdict}"
        )
        if not report.passed:
            failures += 1
            for line in report.lines()[1:]:
                print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
