#!/usr/bin/env python3
"""Census of element orders over a word-length ball.

Counts how many distinct group elements of each order appear among the
reduced words of length <= n, cross-checking the recursive order
computation against the tree-action squaring oracle on every element.

Usage: python3 scripts/order_census.py [--maxn 6]
"""

import argparse
import sys
from collections import Counter

from grigorchuk.errors import check_int
from grigorchuk.growth import iter_spheres
from grigorchuk.wreath import order, order_by_squaring


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--maxn", type=int, default=6)
    args = ap.parse_args()
    try:
        check_int(args.maxn, "--maxn", 0)
    except ValueError as exc:
        ap.error(str(exc))  # exit 2; exit 1 is an oracle mismatch

    reps = [w for sphere in iter_spheres(args.maxn) for w in sphere]
    orders = {w: order(w) for w in reps}
    census = Counter(orders.values())
    print(f"{len(reps)} distinct elements in the {args.maxn}-ball")
    for o in sorted(census):
        print(f"  order {o:3d}: {census[o]} elements")

    mismatches = [w for w in reps if orders[w] != order_by_squaring(w)]
    if mismatches:
        print(f"ORACLE MISMATCH on {mismatches}")
        return 1
    print(f"squaring oracle agrees on all {len(reps)} elements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
