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
from .permgrp import identity, pmul
from .words import BCD, LETTERS, a_parity, invert, multiply
from .wreath import is_trivial, level_action, split

# depth of the tree action that buckets the word-problem oracle's candidates
_BUCKET_DEPTH = 5


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
    """Bucket candidates by their action on the 32 vertices at depth
    ``_BUCKET_DEPTH`` = 5 and confirm each bucket hit by the word problem;
    the independent oracle for the canonical keys.

    The action is a homomorphism, so equal elements share a bucket and the
    word problem alone decides equality.  The image of w is built from its
    prefix, act(w) = act(w[:-1]) o act(w[-1]), and the BFS extends only
    recorded representatives, so each candidate costs one composition.
    Depth 5 is the smallest depth with no false collision at radius 12
    (depth 4 leaves 454 there): every confirmation then finds a duplicate.
    """

    def __init__(self):
        self.letter_images = {g: level_action(g, _BUCKET_DEPTH) for g in LETTERS}
        self.prefix_images = {"": identity(1 << _BUCKET_DEPTH)}
        self.buckets: dict[tuple[int, ...], list[str]] = {}

    def key(self, w: str) -> tuple[int, ...]:
        """Action of the reduced word w at depth ``_BUCKET_DEPTH``."""
        image = self.prefix_images.get(w)
        if image is None:
            image = pmul(self.key(w[:-1]), self.letter_images[w[-1]])
        return image

    def probe(self, w: str) -> bool:
        """True if w is new; records it if so."""
        image = self.key(w)
        bucket = self.buckets.setdefault(image, [])
        for rep in bucket:
            if is_trivial(multiply(invert(rep), w)):
                return False
        bucket.append(w)
        self.prefix_images[w] = image
        return True


def _reduces(rep: str, g: str) -> bool:
    """True when the reduced word rep followed by the letter g is not
    reduced: g repeats the last letter, or both lie in {b, c, d}."""
    return bool(rep) and (g == rep[-1] or (g in BCD and rep[-1] in BCD))


def ball_grigorchuk(
    maxn: int,
    use_signatures: bool = True,
    budget: int | None = None,
) -> GrowthTable:
    """Ball sizes of the limit group up to radius ``maxn`` by BFS.

    Representatives are first-found shortlex geodesics; every new element
    at depth k has free normal form of length exactly k, because shorter
    normal forms are found at their own (smaller) depth.  So a
    representative rep of depth k-1 has free length k-1, and rep·g either
    is the reduced word rep + g or reduces to a shorter word, an element
    already in the ball; such candidates are skipped without a probe.  With
    ``use_signatures`` equality is decided by canonical keys (sections
    interned down to the nucleus); without it, by the word problem within
    buckets of the depth-5 tree action, which is the independent oracle.

    With a ``budget`` the search stops at the first candidate, reducing or
    not, reached once ``budget`` elements are counted, and the table is
    marked incomplete.  Raises ValueError when ``maxn`` < 0 or ``budget``
    < 1.
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
                if budget is not None and total + len(new) >= budget:
                    table.complete = False
                    table.representatives.append(new)
                    total += len(new)
                    table.rows.append(
                        GrowthRow(k, total, len(new), _entropy_enclosure(total, k))
                    )
                    return table
                if _reduces(rep, g):
                    continue
                w = rep + g
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
