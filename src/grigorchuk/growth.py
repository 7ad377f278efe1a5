"""Ball enumeration and growth/entropy statistics.

Two groups are covered: the limit group itself (breadth-first search over
the Cayley graph, equality decided exactly by canonical keys or by the word
problem) and the ambient free product (closed-form alternation
recurrence), which bounds it from above.  A canonical key is the section
triple (p, id(g0), id(g1)) of g = (g0, g1)·a^p; the BFS multiplies triples
by letters without building a section word and keeps the keys of three
spheres only.  Entropy estimates log(|B_n|)/n are reported as rational
enclosures, never as floats posing as exact values.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .cubic import ln_enclosure
from .errors import CapExceeded, check_int
from .permgrp import identity, pmul
from .words import BCD, FOLLOWERS, LETTERS, NUCLEUS, invert, multiply
from .wreath import _SPLIT_IMAGE, is_trivial, level_action

# depth of the tree action that buckets the word-problem oracle's candidates
_BUCKET_DEPTH = 5


def free_sphere_sizes(n: int) -> list[int]:
    """Sphere sizes of the free product: a(k+1) = b(k), b(k+1) = 3 a(k)
    with a = #geodesics ending in a and b = #ending in {b, c, d}."""
    check_int(n, "radius", 0)
    out, a, b = [1], 1, 1  # the identity seeds both recurrences
    for _ in range(n):
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
    rows: list[GrowthRow]
    complete: bool = True

    def ball_sizes(self) -> list[int]:
        return [r.ball for r in self.rows]


def _entropy_enclosure(ball: int, n: int) -> tuple[Fraction, Fraction]:
    if n == 0:
        return Fraction(0), Fraction(0)
    lo, hi = ln_enclosure(ball)
    return lo / n, hi / n


class _SignatureEquality:
    """Exact canonical keys by arithmetic on section triples.

    An element g = (g0, g1)·a^p is the triple (p, id(g0), id(g1)), where an
    id is an interned triple of a section.  Right multiplication by a flips
    p; by x in {b, c, d}, with sections (x0, x1), it multiplies the sections,
    g·x = (g0·x_p, g1·x_(1-p))·a^p, each through a memo (id, letter) -> id.
    The memo is seeded with the nucleus 1, a, b, c, d (ids 0..4) and its
    products that stay in it (1·x = x, x·x = 1, x·y = the third of b, c,
    d), so the recursion, which otherwise descends to sections of smaller
    id, ends there.  The splitting is injective, so equal elements get
    equal ids and equal triples.

    The BFS holds sphere elements as triples and never interns them: only
    sections get ids, a ball of about half the radius (271 ids at radius
    16).  A candidate rep·g with rep in S(k) lies in S(k-1), S(k) or S(k+1),
    so those three sets of triples are all that a probe consults.
    """

    def __init__(self):
        # 1 = (1, 1), a = (1, 1)·a, and b, c, d split into the nucleus
        self.triples = [(0, 0, 0), (1, 0, 0)]
        self.triples += [(0, *map(NUCLEUS.index, _SPLIT_IMAGE[x])) for x in BCD]
        self.ids = {t: i for i, t in enumerate(self.triples)}
        self.products = {
            (i, g): NUCLEUS.index(multiply(x, g))
            for i, x in enumerate(NUCLEUS) for g in LETTERS if multiply(x, g) in NUCLEUS
        }
        self.identity = self.triples[0]
        self.spheres: tuple[set, set, set] = (set(), set(), set())

    def times(self, t: tuple[int, int, int], g: str) -> tuple[int, int, int]:
        """Triple of the element t times the letter g."""
        p, i0, i1 = t
        if g == "a":
            return (1 - p, i0, i1)
        x0, x1 = _SPLIT_IMAGE[g]
        if p:
            x0, x1 = x1, x0
        return (p, self._mul(i0, x0), self._mul(i1, x1))

    def _mul(self, i: int, g: str) -> int:
        """Id of the section i times the letter g (or the empty word)."""
        if not g:
            return i
        k = self.products.get((i, g))
        if k is None:
            t = self.times(self.triples[i], g)
            k = self.ids.get(t)
            if k is None:
                k = self.ids[t] = len(self.triples)
                self.triples.append(t)
            self.products[i, g] = k
        return k

    def key(self, w: str) -> int:
        """Id of the element of the word w."""
        return reduce(self._mul, w, 0)

    def next_sphere(self) -> None:
        """Start the next radius: S(k-1), S(k), S(k+1) move down by one."""
        _, cur, nxt = self.spheres
        self.spheres = (cur, nxt, set())

    def probe(self, w: str, t: tuple[int, int, int]) -> bool:
        """True if the element t (of the word w) is new; records it if so."""
        prev, cur, nxt = self.spheres
        if t in prev or t in cur or t in nxt:
            return False
        nxt.add(t)
        return True


class _PureEquality:
    """Bucket candidates by their action on the 32 vertices at depth
    ``_BUCKET_DEPTH`` = 5 and confirm each bucket hit by the word problem;
    the independent oracle for the canonical keys.

    The action is a homomorphism, so equal elements share a bucket and the
    word problem alone decides equality.  The BFS carries each
    representative's image, act(w·g) = act(w) o act(g), so each candidate
    costs one composition.  Depth 5 is the smallest depth with no false
    collision at radius 12 (depth 4 leaves 454 there): every confirmation
    then finds a duplicate.
    """

    def __init__(self):
        self.letter_images = {g: level_action(g, _BUCKET_DEPTH) for g in LETTERS}
        self.identity = identity(1 << _BUCKET_DEPTH)
        self.buckets: dict[tuple[int, ...], list[str]] = {}

    def times(self, image: tuple[int, ...], g: str) -> tuple[int, ...]:
        """Action of the element of action ``image`` times the letter g."""
        return pmul(image, self.letter_images[g])

    def key(self, w: str) -> tuple[int, ...]:
        """Action of the word w at depth ``_BUCKET_DEPTH``."""
        return reduce(self.times, w, self.identity)

    def next_sphere(self) -> None:
        """Nothing to do: the buckets span the whole ball."""

    def probe(self, w: str, image: tuple[int, ...]) -> bool:
        """True if w is new; records it if so."""
        bucket = self.buckets.setdefault(image, [])
        for rep in bucket:
            if is_trivial(multiply(invert(rep), w)):
                return False
        bucket.append(w)
        return True


def iter_spheres(
    maxn: int, use_signatures: bool = True, budget: int | None = None
) -> Iterator[list[str]]:
    """The sorted new shortlex geodesics of each radius 0..``maxn``, by BFS.

    Representatives are first-found shortlex geodesics; every new element
    at depth k has free normal form of length exactly k, because shorter
    normal forms are found at their own (smaller) depth.  So a
    representative rep of depth k-1 has free length k-1, and rep·g either
    is the reduced word rep + g or reduces to a shorter word, an element
    already in the ball; such candidates are skipped without a probe.  The
    representatives of a sphere are sorted and of one length, so the
    candidates rep + g come in sorted order and so do the new ones.  No
    ball of words is kept: only the last sphere and the one being built.

    Each representative travels with its key, and a candidate's key is the
    representative's key times g.  With ``use_signatures`` the key is the
    element's section triple and equality is key equality within three
    spheres; without it, the key is the depth-5 tree action and equality is
    decided by the word problem within its buckets, the independent oracle.

    With a ``budget`` the search stops at the first candidate, reducing or
    not, reached once ``budget`` elements are counted: it yields the sphere
    as it stands and raises CapExceeded.  Raises TypeError when ``maxn``
    or ``budget`` is not an int, and ValueError when ``maxn`` < 0 or
    ``budget`` < 1.
    """
    check_int(maxn, "radius", 0)
    if budget is not None:
        check_int(budget, "budget", 1)
    eq = _SignatureEquality() if use_signatures else _PureEquality()
    eq.probe("", eq.identity)
    sphere, keys = [""], [eq.identity]
    yield sphere
    total = 1
    for k in range(1, maxn + 1):
        eq.next_sphere()
        new: list[str] = []
        new_keys = []
        for rep, key in zip(sphere, keys):
            followers = FOLLOWERS[rep[-1:]]
            for g in LETTERS:
                if budget is not None and total + len(new) >= budget:
                    yield new
                    raise CapExceeded(f"budget {budget} reached at radius {k}")
                if g not in followers:
                    continue
                w, t = rep + g, eq.times(key, g)
                if eq.probe(w, t):
                    new.append(w)
                    new_keys.append(t)
        yield new
        total += len(new)
        sphere, keys = new, new_keys


def _table(sphere_sizes: list[int], complete: bool = True) -> GrowthTable:
    table, ball = GrowthTable([], complete), 0
    for k, s in enumerate(sphere_sizes):
        ball += s
        table.rows.append(GrowthRow(k, ball, s, _entropy_enclosure(ball, k)))
    return table


def ball_grigorchuk(
    maxn: int,
    use_signatures: bool = True,
    budget: int | None = None,
) -> GrowthTable:
    """Ball sizes of the limit group to radius ``maxn``: a fold of ``iter_spheres``."""
    sizes: list[int] = []
    try:
        for sphere in iter_spheres(maxn, use_signatures, budget):
            sizes.append(len(sphere))
    except CapExceeded:
        return _table(sizes, complete=False)
    return _table(sizes)


def growth_table_free(maxn: int) -> GrowthTable:
    return _table(free_sphere_sizes(maxn))
