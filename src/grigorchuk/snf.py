"""Invariant factors of an integer matrix (Smith normal form, diagonal only).

Sparse elimination over exact integers: rows are ``{column: value}``
dicts, so the long, mostly unit-entry relation matrices of
Reidemeister-Schreier presentations stay cheap.  No transforming matrices
are kept (Sims, *Computation with Finitely Presented Groups*, ch. 8).
"""

from __future__ import annotations

from math import gcd


def smith_normal_form(rows) -> list[int]:
    """Return the nonzero invariant factors d1 | d2 | ... | dr (all
    positive, r the rank) of the integer matrix whose rows are the given
    ``{column: value}`` mappings; absent columns are zero."""
    try:
        rows = [r for r in ({j: x for j, x in row.items() if x} for row in rows) if r]
    except AttributeError:
        raise TypeError("each row must be a {column: value} mapping") from None
    diagonal = []
    while rows:
        # least-magnitude pivot, on ties from the shortest row: each
        # unfinished sweep leaves a smaller entry, so this terminates
        prow = min(rows, key=lambda r: (min(map(abs, r.values())), len(r)))
        j = min(prow, key=lambda k: abs(prow[k]))
        p = prow[j]
        clear = True
        for r in rows:
            if r is not prow and j in r:
                q = r[j] // p
                for k, x in prow.items():
                    y = r.get(k, 0) - q * x
                    if y:
                        r[k] = y
                    else:
                        del r[k]
                clear = clear and j not in r
        rows = [r for r in rows if r]
        if not clear:
            continue
        # column j is zero off the pivot row, so column operations reduce
        # that row modulo p without touching any other row
        for k in [k for k in prow if k != j]:
            prow[k] %= p
            if not prow[k]:
                del prow[k]
        if len(prow) == 1:
            diagonal.append(abs(p))
            rows.remove(prow)
    # diag(a, b) ~ diag(gcd, lcm); one pass turns the diagonal into a chain
    ones = diagonal.count(1)
    chain = [d for d in diagonal if d != 1]
    for i in range(len(chain)):
        for k in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[k])
            chain[i], chain[k] = g, chain[i] * chain[k] // g
    return [1] * ones + chain
