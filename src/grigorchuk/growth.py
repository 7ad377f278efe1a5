"""Ball enumeration and growth/entropy statistics.

Two groups are covered: the limit group itself (breadth-first search over
the Cayley graph, equality decided exactly by canonical keys or by the word
problem) and the ambient free product (closed-form alternation
recurrence), which bounds it from above.  Entropy estimates log(|B_n|)/n
are reported as rational enclosures, never as floats posing as exact
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cubic import ln_enclosure
from .words import LETTERS, a_parity, invert, multiply
from .wreath import is_trivial, split


def free_sphere_sizes(n: int) -> list[int]:
    """Sphere sizes of the free product: a(k+1) = b(k), b(k+1) = 3 a(k)
    with a = #geodesics ending in a and b = #ending in {b, c, d}."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    out = [1]
    a, b = 0, 0
    for k in range(1, n + 1):
        if k == 1:
            a, b = 1, 3
        else:
            a, b = b, 3 * a
        out.append(a + b)
    return out


def ball_free_product(n: int) -> int:
    return sum(free_sphere_sizes(n))


@dataclass
class GrowthRow:
    radius: int
    ball: int
    sphere: int
    entropy_enclosure: tuple[Fraction, Fraction]  # encloses log(ball)/radius


@dataclass
class GrowthTable:
    group: str
    rows: list[GrowthRow]
    representatives: list[list[str]]  # new shortlex geodesics per radius
    complete: bool = True

    def ball_sizes(self) -> list[int]:
        return [r.ball for r in self.rows]


def _entropy_enclosure(ball: int, n: int) -> tuple[Fraction, Fraction]:
    if n == 0:
        return Fraction(0), Fraction(0)
    lo, hi = ln_enclosure(ball)
    return lo / n, hi / n


class _SignatureEquality:
    """Exact canonical keys, after the contracting-group normal form.

    A reduced word w with a-parity p is (w0, w1)·a^p, where (w0, w1) =
    split(w·a^p), and for |w| >= 2 both sections are strictly shorter.  Its
    key is the triple (p, key(w0), key(w1)) interned to a small int; the
    recursion stops at the nucleus 1, a, b, c, d, whose triples are
    registered up front, so a long word equal to a nucleus element gets
    that element's id.  The splitting is injective, so equal keys mean
    equal elements.
    """

    def __init__(self):
        # ids 0..4 are the nucleus 1, a, b, c, d: a = (1, 1)·a, b = (a, c),
        # c = (a, d), d = (1, b)
        self.word_ids = {w: i for i, w in enumerate(["", "a", "b", "c", "d"])}
        self.triple_ids = {(0, 0, 0): 0, (1, 0, 0): 1, (0, 1, 3): 2, (0, 1, 4): 3, (0, 0, 2): 4}
        self.seen: set[int] = set()

    def key(self, w: str) -> int:
        """Id of the element of the reduced word w."""
        hit = self.word_ids.get(w)
        if hit is not None:
            return hit
        p = a_parity(w)
        w0, w1 = split(multiply(w, "a") if p else w)
        triple = (p, self.key(w0), self.key(w1))
        k = self.triple_ids.setdefault(triple, len(self.triple_ids))
        self.word_ids[w] = k
        return k

    def probe(self, w: str) -> bool:
        """True if w is new; records it if so."""
        k = self.key(w)
        if k in self.seen:
            return False
        self.seen.add(k)
        return True


class _PureEquality:
    """Bucket candidates by their image in the (Z/2)^3 abelianization, with
    basis (a, b, d) where c = b + d, and confirm equality by the word
    problem; the independent oracle for the canonical keys."""

    def __init__(self):
        self.buckets: dict[tuple[int, int, int], list[str]] = {}

    @staticmethod
    def key(w: str) -> tuple[int, int, int]:
        na = w.count("a") & 1
        nb = (w.count("b") + w.count("c")) & 1
        nd = (w.count("d") + w.count("c")) & 1
        return na, nb, nd

    def probe(self, w: str) -> bool:
        """True if w is new; records it if so."""
        bucket = self.buckets.setdefault(self.key(w), [])
        for rep in bucket:
            if is_trivial(multiply(invert(rep), w)):
                return False
        bucket.append(w)
        return True


def ball_grigorchuk(
    maxn: int,
    use_signatures: bool = True,
    budget: int | None = None,
) -> GrowthTable:
    """Ball sizes of the limit group up to radius ``maxn`` by BFS.

    Representatives are first-found shortlex geodesics; every new element
    at depth k has free normal form of length exactly k, because shorter
    normal forms are found at their own (smaller) depth.  With
    ``use_signatures`` equality is decided by canonical keys (sections
    interned down to the nucleus); without it, by the word problem, which
    is the independent oracle.  Raises ValueError when ``maxn`` < 0 or
    ``budget`` < 1.
    """
    if maxn < 0:
        raise ValueError("radius must be >= 0")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    eq = _SignatureEquality() if use_signatures else _PureEquality()
    eq.probe("")
    table = GrowthTable(group="grig", rows=[], representatives=[])
    table.rows.append(GrowthRow(0, 1, 1, _entropy_enclosure(1, 0)))
    table.representatives.append([""])
    sphere = [""]
    total = 1
    for k in range(1, maxn + 1):
        new: list[str] = []
        for rep in sphere:
            for g in LETTERS:
                w = multiply(rep, g)
                if budget is not None and total + len(new) >= budget:
                    table.complete = False
                    table.representatives.append(new)
                    total += len(new)
                    table.rows.append(
                        GrowthRow(k, total, len(new), _entropy_enclosure(total, k))
                    )
                    return table
                if eq.probe(w):
                    new.append(w)
        new.sort()
        total += len(new)
        table.representatives.append(new)
        table.rows.append(GrowthRow(k, total, len(new), _entropy_enclosure(total, k)))
        sphere = new
    return table


def growth_table_free(maxn: int) -> GrowthTable:
    spheres = free_sphere_sizes(maxn)
    table = GrowthTable(group="free", rows=[], representatives=[])
    total = 0
    for k, s in enumerate(spheres):
        total += s
        table.rows.append(GrowthRow(k, total, s, _entropy_enclosure(total, k)))
    return table


def entropy_series(maxn: int, group: str = "grig") -> list[tuple[Fraction, Fraction]]:
    """Per-radius estimates of log(|B_n|)/n for the chosen group."""
    if group == "free":
        table = growth_table_free(maxn)
    elif group == "grig":
        table = ball_grigorchuk(maxn)
    else:
        raise ValueError(f"unknown group {group!r}")
    return [row.entropy_enclosure for row in table.rows[1:]]
