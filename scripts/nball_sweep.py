#!/usr/bin/env python3
"""Exhaustive torsion-certification sweep over word-length balls.

For each radius n, certifies every reduced word of length <= n at level
i(n) and prints the word count, the exponent histogram, and the running
time.  Radii well past 20 stay tractable because exponent computation is
memoized by conjugacy class.

Usage: python3 scripts/nball_sweep.py [--maxn 20] [--csv out.csv]
"""

import argparse
import csv
import sys
import time

from grigorchuk.cubic import radius_index
from grigorchuk.wreath import verify_nball_proposition


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--maxn", type=int, default=20)
    ap.add_argument("--csv", help="also write one row per radius to this file")
    args = ap.parse_args()

    rows = []
    for n in range(2, args.maxn + 1):
        t0 = time.perf_counter()
        rep = verify_nball_proposition(n)
        dt = time.perf_counter() - t0
        hist = " ".join(f"{k}:{v}" for k, v in sorted(rep.exponent_histogram.items()))
        status = "ok" if rep.ok else f"{len(rep.failures)} FAILURES"
        print(
            f"n={n:3d} level={rep.level:3d} words={rep.word_count:8d} "
            f"max_exp={rep.max_exponent:2d} [{hist}] {status} {dt:6.2f}s"
        )
        rows.append(
            {
                "n": n,
                "level": rep.level,
                "words": rep.word_count,
                "max_exponent": rep.max_exponent,
                "failures": len(rep.failures),
                "seconds": round(dt, 3),
            }
        )
        if not rep.ok:
            return 1

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {args.csv}")
    # sanity: levels must match the exact radius bracketing
    assert all(r["level"] == radius_index(r["n"]) for r in rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
