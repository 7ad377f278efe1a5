"""Ball enumeration and growth/entropy statistics.

Two groups are covered: the limit group itself (breadth-first search over
the Cayley graph, equality decided exactly by canonical keys or by the word
problem) and the ambient free product (closed-form alternation
recurrence), which bounds it from above.  A canonical key is the section
triple (p, id(g0), id(g1)) of g = (g0, g1)·a^p packed into one int; the
BFS multiplies keys by letters in its loop, keeps the keys of three
spheres only, and, for ball sizes, only the last letter of each
representative.  Entropy estimates log(|B_n|)/n are reported as rational
enclosures, never as floats posing as exact values.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import reduce
from sys import maxsize
from typing import NamedTuple

from .cubic import ln_enclosure
from .errors import CapExceeded, check_int
from .words import BCD, FOLLOWERS, LETTERS, NUCLEUS, _join, multiply
from .wreath import _SPLIT_IMAGE, is_trivial, level_action

# depth of the tree action that buckets the word-problem oracle's candidates;
# at most 8, so that a vertex fits in a byte
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


class GrowthRow(NamedTuple):
    radius: int
    ball: int
    sphere: int
    entropy_enclosure: tuple[Fraction, Fraction]  # encloses log(ball)/radius


class GrowthTable(NamedTuple):
    rows: list[GrowthRow]
    complete: bool = True

    def ball_sizes(self) -> list[int]:
        return [r.ball for r in self.rows]


class _SignatureEquality:
    """Exact canonical keys by arithmetic on section triples.

    An element g = (g0, g1)·a^p is the triple (p, id(g0), id(g1)), where an
    id is an interned triple of a section.  Right multiplication by a flips
    p; by x in {b, c, d}, with sections (x0, x1), it multiplies the sections,
    g·x = (g0·x_p, g1·x_(1-p))·a^p, each through a memo: one row per
    letter, indexed by id, holding the product's id or -1 while unknown,
    and grown by a -1 in every row when an id is interned.  The rows are
    seeded with the nucleus 1, a, b, c, d (ids 0..4) and its products that
    stay in it (1·x = x, x·x = 1, x·y = the third of b, c, d), so the
    recursion, which otherwise descends to sections of smaller id, ends
    there.  The splitting is injective, so equal elements get equal ids
    and equal triples.

    The BFS packs an element's triple into the int key p | id0 << 1 |
    id1 << 33 and multiplies keys by letters in ``extend``, calling
    ``_mul`` only on a -1; a candidate rep·g with rep in S(k) lies
    in S(k-1), S(k) or S(k+1), so only those keys are kept.  Only sections
    get ids, a ball of about half the radius (271 ids at radius 16), far
    below 2^32.  With ``words`` False a representative's tag is its last
    letter instead of its word.
    """

    def __init__(self, words: bool = True):
        # 1 = (1, 1), a = (1, 1)·a, and b, c, d split into the nucleus
        self.triples = [(0, 0, 0), (1, 0, 0)]
        self.triples += [(0, *map(NUCLEUS.index, _SPLIT_IMAGE[x])) for x in BCD]
        self.ids = {t: i for i, t in enumerate(self.triples)}
        self.rows = {
            g: [NUCLEUS.index(y) if (y := multiply(x, g)) in NUCLEUS else -1 for x in NUCLEUS]
            for g in LETTERS
        }
        self.identity = 0  # the packed key of (0, 0, 0)
        self.words = words
        self.spheres = (set(), {self.identity})  # the keys of S(k-1) and S(k)

    def _mul(self, i: int, g: str) -> int:
        """Id of the section i times the letter g (or the empty word)."""
        if not g:
            return i
        k = self.rows[g][i]
        if k < 0:
            p, i0, i1 = self.triples[i]
            if g == "a":
                t = (1 - p, i0, i1)
            else:
                x0, x1 = _SPLIT_IMAGE[g][:: 1 - 2 * p]  # swapped when p = 1
                t = (p, self._mul(i0, x0), self._mul(i1, x1))
            k = self.ids.get(t)
            if k is None:
                k = self.ids[t] = len(self.triples)
                self.triples.append(t)
                for row in self.rows.values():
                    row.append(-1)
            self.rows[g][i] = k
        return k

    def key(self, w: str) -> int:
        """Id of the element of the word w."""
        return reduce(self._mul, w, 0)

    def extend(self, sphere: list[str], keys: list[int], room: int) -> tuple[list, list]:
        """``_PureEquality.extend`` on packed keys."""
        rows, mul, words = self.rows, self._mul, self.words
        prev, cur, nxt = *self.spheres, set()
        steps = [[(x, *_SPLIT_IMAGE[x][:: 1 - 2 * p]) for x in BCD] for p in (0, 1)]
        new, new_keys = [], []
        for rep, key in zip(sphere, keys):
            if len(new) > room:
                break
            # a follows anything but a, and b, c, d follow a or nothing
            last = rep[-1:]
            if last != "a":
                t = key ^ 1
                if t not in nxt and t not in cur and t not in prev:
                    nxt.add(t)
                    new.append(rep + "a" if words else "a")
                    new_keys.append(t)
            if last in "a":
                p, i0, i1 = key & 1, key >> 1 & 0xFFFFFFFF, key >> 33
                for g, x0, x1 in steps[p]:
                    j0 = rows[x0][i0] if x0 else i0
                    if j0 < 0:
                        j0 = mul(i0, x0)
                    j1 = rows[x1][i1] if x1 else i1
                    if j1 < 0:
                        j1 = mul(i1, x1)
                    t = p | j0 << 1 | j1 << 33
                    if t not in nxt and t not in cur and t not in prev:
                        nxt.add(t)
                        new.append(rep + g if words else g)
                        new_keys.append(t)
        self.spheres = (cur, nxt)
        return new, new_keys


class _PureEquality:
    """Bucket candidates by their action on the 32 vertices at depth
    ``_BUCKET_DEPTH`` = 5 and confirm each bucket hit by the word problem;
    the independent oracle for the canonical keys.

    The action is a homomorphism, so equal elements share a bucket and the
    word problem alone decides equality.  The key of w is act(w^-1) as
    bytes, and every letter is an involution, so act((w·g)^-1) = act(g) o
    act(w^-1): each candidate costs one ``bytes.translate`` of its
    representative's key by act(g), padded to the 256 bytes of a table,
    so ``_BUCKET_DEPTH`` is at most 8.  Depth 5 is the smallest depth with
    no false collision at radius 12 (depth 4 leaves 454 there): every
    confirmation then finds a duplicate.
    """

    def __init__(self):
        n = 1 << _BUCKET_DEPTH
        self.tables = {g: bytes(level_action(g, _BUCKET_DEPTH)) + bytes(range(n, 256)) for g in LETTERS}
        self.identity = bytes(range(n))
        self.buckets: dict[bytes, list[str]] = {self.identity: [""]}

    def key(self, w: str) -> bytes:
        """Action of w^-1 at depth ``_BUCKET_DEPTH``, as bytes."""
        return reduce(lambda image, g: image.translate(self.tables[g]), w, self.identity)

    def probe(self, w: str, image: bytes) -> bool:
        """True if w is new; records it if so."""
        bucket = self.buckets.setdefault(image, [])
        for rep in bucket:
            # rep is reduced, so its reversal is the normal form of rep^-1
            if is_trivial(_join(rep[::-1], w)):
                return False
        bucket.append(w)
        return True

    def extend(self, sphere: list[str], keys: list, room: int) -> tuple[list, list]:
        """The words and keys of the sphere after (``sphere``, ``keys``),
        stopped before a representative once more than ``room`` are found."""
        new, new_keys, tables = [], [], self.tables
        for rep, key in zip(sphere, keys):
            if len(new) > room:
                break
            for g in FOLLOWERS[rep[-1:]]:
                w, t = rep + g, key.translate(tables[g])
                if self.probe(w, t):
                    new.append(w)
                    new_keys.append(t)
        return new, new_keys


def iter_spheres(
    maxn: int, use_signatures: bool = True, budget: int | None = None, *, _words: bool = True
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

    Each representative travels with its key, and a candidate's key is
    computed from the representative's key and g.  With ``use_signatures``
    the key is the element's section triple packed into one int, and
    equality is key equality within three spheres; without it, the key is
    the inverse's depth-5 tree action and equality is decided by the word
    problem within its buckets, the independent oracle.  The private
    ``_words`` False, which only the signatures honour, yields each
    representative's last letter instead of its word: all that the search
    reads of it, and all ``ball_grigorchuk`` needs.

    With a ``budget`` the search counts at most ``budget`` elements: once
    it finds one more, it yields the sphere being built cut to the
    elements that fit (possibly none) and raises CapExceeded.  Raises
    TypeError when ``maxn`` or ``budget`` is not an int, and ValueError
    when ``maxn`` < 0 or ``budget`` < 1.
    """
    check_int(maxn, "radius", 0)
    if budget is not None:
        check_int(budget, "budget", 1)
    eq = _SignatureEquality(_words) if use_signatures else _PureEquality()
    sphere, keys = [""], [eq.identity]
    yield sphere
    room = maxsize if budget is None else budget - 1
    for k in range(1, maxn + 1):
        sphere, keys = eq.extend(sphere, keys, room)
        if len(sphere) > room:
            yield sphere[:room]
            raise CapExceeded(f"budget {budget} exceeded at radius {k}")
        yield sphere
        room -= len(sphere)


def _table(sphere_sizes: list[int], complete: bool = True) -> GrowthTable:
    table, ball = GrowthTable([], complete), 0
    for k, s in enumerate(sphere_sizes):
        ball += s
        enclosure = tuple(x / k for x in ln_enclosure(ball)) if k else (Fraction(0),) * 2
        table.rows.append(GrowthRow(k, ball, s, enclosure))
    return table


def ball_grigorchuk(maxn: int, use_signatures: bool = True, budget: int | None = None) -> GrowthTable:
    """Ball sizes of the limit group to radius ``maxn``: a fold of ``iter_spheres``."""
    sizes: list[int] = []
    try:
        for sphere in iter_spheres(maxn, use_signatures, budget, _words=False):
            sizes.append(len(sphere))
    except CapExceeded:
        return _table(sizes, complete=False)
    return _table(sizes)


def growth_table_free(maxn: int) -> GrowthTable:
    return _table(free_sphere_sizes(maxn))
