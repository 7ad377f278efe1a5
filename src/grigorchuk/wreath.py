"""Wreath-recursion splitting, word problem, 2-power orders, and the
recursive torsion-certification algorithm for the Grigorchuk group and its
finitely presented approximants.

The splitting sends a parity-0 word to a pair of shorter words acting on
the two subtrees; ``a`` swaps the subtrees.  All torsion certificates are
upper bounds valid at the stated approximant level; orders themselves are
computed in the limit group, where the splitting is injective on the
parity kernel.  The exhaustive n-ball sweep certifies each conjugacy class
of the ball once and never builds the ball's words, unless some word fails.
The sweep walks the bracelets with the reduced sides of each prefix, so a
class's children come out of the walk and no class is split; each distinct
child word is certified once, and the ball's radius test is decided once,
on its heaviest word.

The memos are ``functools.cache`` on pure functions (``_is_trivial``,
``_order``, ``_letter_action``, ``_in_open_ball``, ``_class_exponent``,
and ``_section_table`` of ``_SPLIT_IMAGE``), each with ``cache_info()``
and ``cache_clear()``.  A write to ``_SPLIT_IMAGE`` clears every memo
derived from it.  Each exhaustive sweep also keeps its child steps,
``_certify``, in a ``functools.cache`` of its own, dropped when it returns.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from . import cubic
from .cubic import (
    CubicNumber,
    count_triple,
    lambda_length,
    length_triple,
    triple_compare_power,
    triple_sign,
)
from .errors import CapExceeded, GrigError, PreconditionError, check_int
from .permgrp import pmul
from .words import (
    BCD,
    NUCLEUS,
    _bracelet_walk,
    _checked,
    _join,
    _letter_classes,
    _min_conjugate,
    _rotation_words,
    a_parity,
    format_word,
    iter_ball_free,
    reduce_word,
)


class _Image(dict):
    """A dict that drops every memo derived from it whenever an item is set
    or deleted, so that a patched image reaches every split, and nothing
    computed under a patch outlives it."""

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self._changed()

    def __delitem__(self, key):
        super().__delitem__(key)
        self._changed()

    @staticmethod
    def _changed() -> None:
        for memo in (_section_table, _is_trivial, _letter_action, _order, _class_exponent):
            memo.cache_clear()


# first-level images of the inactive generators: i(b) = (a, c), i(c) = (a, d),
# i(d) = (1, b)
_SPLIT_IMAGE = _Image(b=("a", "c"), c=("a", "d"), d=("", "b"))


def split(w: str) -> tuple[str, str]:
    """Subtree components (w0, w1) of a parity-0 word, reduced first."""
    w = reduce_word(w)
    if a_parity(w) != 0:
        raise PreconditionError(
            f"{format_word(w)} is active (odd number of a's); split applies to its square or to w*a"
        )
    return _split_reduced(w)


@functools.cache
def _section_table() -> dict[int, str | None]:
    """The ``str.translate`` table of ``_SPLIT_IMAGE``: x -> x0 and
    X -> x1, an empty section mapped to None, which deletes.  Built once
    per state of the image, which clears it on every write."""
    sections = {}
    for x, (x0, x1) in _SPLIT_IMAGE.items():
        sections[ord(x)] = x0 or None
        sections[ord(x.upper())] = x1 or None
    return sections


def _split_reduced(w: str) -> tuple[str, str]:
    """``split(w)`` for a word w that is already reduced and of parity 0;
    for w of parity 1, the two sides that ``_class_step`` joins into side 0
    of w.w.

    A letter x in {b, c, d} contributes its section x0 to side p and x1 to
    side 1-p, where p is the parity of the a's before it.  In a reduced word
    these letters alternate with a, so their parities alternate too: the
    letters of parity 1 are upper-cased, one read of ``_section_table``
    translates the tagged letters into side 0 and the case-swapped ones
    into side 1, and each side is reduced.
    """
    # the first letter of {b, c, d} has parity 1 iff w starts with a
    odd = w[:1] == "a"
    tagged = bytearray(w[odd::2], "ascii")
    tagged[1 - odd :: 2] = tagged[1 - odd :: 2].upper()
    tagged, sections = tagged.decode(), _section_table()
    return reduce_word(tagged.translate(sections)), reduce_word(tagged.swapcase().translate(sections))


def is_trivial(w: str) -> bool:
    """Word problem in the limit group: True iff w maps to the identity."""
    return _is_trivial(reduce_word(w))


@functools.cache
def _is_trivial(w: str) -> bool:
    # w is reduced, and so are the components split gives
    if not w:
        return True
    if a_parity(w) == 1 or len(w) == 1:
        return False  # b, c, d are nontrivial involutions
    w0, w1 = _split_reduced(w)
    return _is_trivial(w0) and _is_trivial(w1)


def order(w: str) -> int:
    """Exact order (a power of two) of the image of w in the limit group."""
    return _order(_min_conjugate(reduce_word(w)))


@functools.cache
def _order(m: str) -> int:
    """Order of the class of the minimal conjugate m.  By the contraction
    lemma each child class is strictly shorter in weighted length; one that
    is not trips the guard, and nothing is cached for m."""
    if not m:
        return 1
    # letters take the letter case, and an lcm of powers of two is their max
    _rule, added, children = _class_step(m, 1)
    t = length_triple(m)
    result = 1
    for k in map(_min_conjugate, children):
        if triple_sign(*(x - y for x, y in zip(length_triple(k), t))) >= 0:
            raise CapExceeded(f"order recursion guard tripped at {m!r}", partial=(m, k))
        result = max(result, _order(k))
    return result << added


@functools.cache
def _letter_action(ch: str, k: int) -> tuple[int, ...]:
    if k == 0:
        return (0,)
    half = 1 << (k - 1)
    if ch == "a":
        return tuple(i ^ half for i in range(1 << k))
    x0, x1 = _SPLIT_IMAGE[ch]
    return _word_action(x0, k - 1) + tuple(half + v for v in _word_action(x1, k - 1))


def _word_action(w: str, k: int) -> tuple[int, ...]:
    perm = tuple(range(1 << k))
    # right-to-left so that act(uv) = act(u) o act(v)
    for ch in reversed(w):
        perm = pmul(_letter_action(ch, k), perm)
    return perm


# the deepest level_action: each letter's action there is 2^16 cached ints
MAX_DEPTH = 16


def level_action(w: str, k: int) -> tuple[int, ...]:
    """Permutation induced by w on the 2^k vertices at depth k of the tree;
    a depth that is not an int raises TypeError, one below 0 or above
    ``MAX_DEPTH`` ValueError."""
    check_int(k, "depth", 0)
    if k > MAX_DEPTH:
        raise ValueError(f"depth must be <= {MAX_DEPTH}, not {k}")
    return _word_action(reduce_word(w), k)


# the tree depth and the order cap of the squaring oracle
_SQUARING_DEPTH = 8
_SQUARING_CAP = 1 << 12


def order_by_squaring(w: str) -> int:
    """Independent order oracle: repeated squaring under the depth-8 action.

    Only sound when the ball containing all the powers is faithfully
    represented at this depth; used as a cross-check for short words.
    """
    w = reduce_word(w)
    identity = tuple(range(1 << _SQUARING_DEPTH))
    perm = level_action(w, _SQUARING_DEPTH)
    e = 1
    while perm != identity:
        perm = pmul(perm, perm)
        e *= 2
        if e > _SQUARING_CAP:
            raise CapExceeded(f"order cap {_SQUARING_CAP} exceeded for {w!r}")
    return e


# ---------------------------------------------------------------------------
# torsion certification

# the letter cases are the nucleus; at level <= 0 also the classes of ad
_BASE_EXPONENT = {**dict.fromkeys(NUCLEUS, 1), "ad": 2}


class CertificateNode(NamedTuple):
    word: str
    level: int
    rule: str  # base-case | letter-case | inactive-split | active-square
    exponent: int
    lambda_length: CubicNumber
    children: tuple["CertificateNode", ...] = ()

    def to_dict(self) -> dict:
        return {
            "word": format_word(self.word),
            "level": self.level,
            "rule": self.rule,
            "exponent": self.exponent,
            "lambda_length": str(self.lambda_length),
            "children": [c.to_dict() for c in self.children],
        }


class TorsionCertificate(NamedTuple):
    word: str
    level: int
    exponent: int  # the order divides 2**exponent at this level
    root: CertificateNode

    def to_json(self, indent=None) -> str:
        import json  # here, so that importing the package does not load json

        return json.dumps(self.to_dict(), indent=indent)

    def to_dict(self) -> dict:
        return {
            "word": format_word(self.word),
            "level": self.level,
            "exponent": self.exponent,
            "tree": self.root.to_dict(),
        }


class CertificateFailure(NamedTuple):
    word: str
    level: int
    lambda_length: CubicNumber
    radius: str  # description of the violated open-ball bound

    def __str__(self):
        return (
            f"radius violation at {format_word(self.word)!r} (level {self.level}): "
            f"length {self.lambda_length} not below {self.radius}"
        )

    def to_dict(self) -> dict:
        return {
            "word": format_word(self.word),
            "level": self.level,
            "lambda_length": str(self.lambda_length),
            "radius": self.radius,
        }


class RadiusViolation(GrigError):
    """A word left the open ball the certificate needs at some level."""

    def __init__(self, failure: CertificateFailure):
        self.failure = failure
        super().__init__(str(failure))


@functools.cache
def _in_open_ball(na: int, nb: int, nc: int, nd: int, r: int) -> bool:
    """True iff a word with these letter counts has length below L^r.

    The length of a reduced word is the sum of its letter weights, so the
    open-ball test depends only on the letter counts and the radius.  A
    word of l >= 1 letters is shorter than l, as every weight is below 1,
    and L > 6/5 gives L^r >= 1 + r(L - 1) >= l once 5(l - 1) <= r; the
    empty word is in every ball.  So a large radius is decided without
    building L^r.
    """
    if 5 * (na + nb + nc + nd - 1) <= r:
        return True
    return triple_compare_power(count_triple(na, nb, nc, nd), r) < 0


def _ball_class(w: str, n: int) -> str:
    """The minimal conjugate of w, once w passes the test the step at level
    n makes of it; otherwise RadiusViolation naming w itself.

    At level n > 0 the word must lie in the open L^(n-1)-ball; at level 0
    or -1 its minimal conjugate must be a base case.  The caller has
    checked n.
    """
    if n <= 0:
        m = _min_conjugate(w)
        if m not in _BASE_EXPONENT or (n == -1 and m not in NUCLEUS):
            bound = "L^-1" if n == 0 else "L^-2"
            raise RadiusViolation(CertificateFailure(w, n, lambda_length(w), bound))
        return m
    if not _in_open_ball(w.count("a"), w.count("b"), w.count("c"), w.count("d"), n - 1):
        raise RadiusViolation(CertificateFailure(w, n, lambda_length(w), f"L^{n - 1}"))
    return _min_conjugate(w)


def _class_step(m: str, n: int) -> tuple[str, int, tuple[str, ...]]:
    """One step of the recursive ball argument from the minimal conjugate m
    that ``_ball_class`` gave: (rule, exponent added, words to certify at
    level n - 1).

    The class is either a base case, split (parity 0: the splitting is
    injective one level down, so the order is the lcm of the component
    orders), or squared and split (parity 1: one component, one more
    factor of two).  ``_class_exponent`` and ``_certificate_tree`` take
    it at every level n, ``_order`` at n = 1.
    """
    if n <= 0:
        return "base-case", _BASE_EXPONENT[m], ()
    if m in NUCLEUS:
        return "letter-case", _BASE_EXPONENT[m], ()
    if a_parity(m) == 0:
        return "inactive-split", 0, _split_reduced(m)
    # side 0 of m.m, which is reduced as m is cyclically reduced: the second
    # copy of m has the opposite a-parity, so it is m's two sides joined
    return "active-square", 1, (_join(*_split_reduced(m)),)


def certify_exponent(w: str, n: int) -> tuple[int, int]:
    """(exponent, tree depth) of the certificate for the reduced word w at
    level n; the order of w divides 2**exponent at this level.

    The radius test runs on w's letter counts (cached by ``_in_open_ball``);
    everything after it depends only on the minimal conjugate m of w, so
    ``_class_exponent`` caches it under (m, n), once per conjugacy class.

    Raises RadiusViolation, whose ``failure`` is the CertificateFailure
    that ``certify_torsion`` returns for the same input, TypeError for a
    word that is not a str or a level that is not an int, PreconditionError
    for a word that is not reduced (checked before the radius test), and
    ValueError for levels below -1, the last level the ball argument defines.
    """
    if type(n) is not int or n < -1:
        check_int(n, "level", -1)
    return _certify(_checked(w), n)


def _certify(w: str, n: int) -> tuple[int, int]:
    """``certify_exponent`` of a word known to be reduced, unchecked: the
    child step of certification, radius test included."""
    return _class_exponent(_ball_class(w, n), n)


@functools.cache
def _class_exponent(m: str, n: int) -> tuple[int, int]:
    """``certify_exponent`` of the class whose minimal conjugate is m."""
    _rule, added, children = _class_step(m, n)
    exponent = depth = 0
    for child in children:
        e, d = _certify(child, n - 1)
        exponent = max(exponent, e)
        depth = max(depth, d)
    return exponent + added, depth + 1


def certify_torsion(w: str, n: int):
    """Torsion certificate for w at approximant level n, or a failure report.

    The tree records each step of the ball argument (see ``_class_step``);
    a node's exponent is its step's plus its children's greatest, as in
    ``_class_exponent``, and the tree walks the children in that order, so
    its first failure is the one that ``certify_exponent`` reports.
    """
    w = reduce_word(w)
    check_int(n, "level", -1)
    try:
        root = _certificate_tree(w, n)
    except RadiusViolation as exc:
        return exc.failure
    return TorsionCertificate(word=w, level=n, exponent=root.exponent, root=root)


def _certificate_tree(w: str, n: int) -> CertificateNode:
    m = _ball_class(w, n)
    rule, added, children = _class_step(m, n)
    kids = tuple(_certificate_tree(c, n - 1) for c in children)
    exponent = added + max((kid.exponent for kid in kids), default=0)
    return CertificateNode(w, n, rule, exponent, lambda_length(w), kids)


class NBallReport:
    """The certified words of a ball, counted as they are added."""

    def __init__(self, radius: int, level: int):
        self.radius = radius
        self.level = level
        self.word_count = 0
        self.max_exponent = 0
        self.max_depth = 0
        self.exponent_histogram: dict[int, int] = {}
        self.failures: list[CertificateFailure] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, exponent: int, depth: int, words: int = 1) -> None:
        """Count ``words`` words certified with this exponent and depth."""
        self.word_count += words
        self.max_exponent = max(self.max_exponent, exponent)
        self.max_depth = max(self.max_depth, depth)
        self.exponent_histogram[exponent] = self.exponent_histogram.get(exponent, 0) + words

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "level": self.level,
            "word_count": self.word_count,
            "max_exponent": self.max_exponent,
            "max_depth": self.max_depth,
            "exponent_histogram": {str(k): v for k, v in sorted(self.exponent_histogram.items())},
            "failures": [str(f) for f in self.failures],
        }


def verify_nball_proposition(n: int, words=None, level: int | None = None) -> NBallReport:
    """Certify torsion for every word of word length <= n at level i(n).

    The exhaustive sweep goes by conjugacy class: ``_bracelet_walk``
    gives each pair of mutually inverse classes with the splitting of one
    of them, so each pair is certified once, and the ball's radius test is
    made once, on its heaviest word.  If any word fails, the report is
    rebuilt word by word over ``iter_ball_free(n)``, so failures keep their
    shortlex order.

    ``words`` overrides the exhaustive free-product ball with any stream of
    words, certified one by one at the level; each word is reduced first,
    so a letter outside "abcd" raises ValueError.
    ``level`` overrides the computed radius index.  A radius or level that
    is not an int raises TypeError, and a radius below 0 (below 2 without
    ``level``) raises ValueError.
    """
    if level is None:
        check_int(n, "radius")
        if n < 2:
            raise ValueError("need n >= 2 for a nonnegative level")
        level = cubic.radius_index(n)
    else:
        check_int(n, "radius", 0)
    check_int(level, "level", -1)
    if words is None:
        report = _class_sweep(n, level)
        if report is not None:
            return report
        words = iter_ball_free(n)
    else:
        words = map(reduce_word, words)
    report = NBallReport(n, level)
    for w in words:
        try:
            report.add(*certify_exponent(w, level))
        except RadiusViolation as exc:
            report.word_count += 1
            report.failures.append(exc.failure)
    return report


def _class_sweep(n: int, level: int) -> NBallReport | None:
    """The exhaustive n-ball report, one certificate per conjugacy class;
    None as soon as some word of the ball fails at this level.

    At level > 0 a word passes iff it lies in the open L^(level - 1)-ball
    and its class certifies.  Every letter weight is positive, and |b| is
    the greatest: |b| = |c| + |d|, and |b| = 1 - |a| > |a| as L < 5/4.  A
    reduced word of length l has at most ceil(l / 2) letters of {b, c, d},
    so no word of the n-ball is heavier than b.a.b... with letter counts
    (n // 2, (n + 1) // 2, 0, 0), which is itself in the ball: the whole
    ball passes the radius test iff that word does.  At level <= 0 the
    word ab of every ball of radius >= 2 is not a base case, so those
    levels go to the word loop.

    A class and its inverse are certified once.  Inversion reverses a word,
    so it keeps the letter counts and maps base cases to base cases.  For a
    parity-0 word a letter's a-parity is the same counted from either end,
    so split(w^-1) is the pair of inverses of split(w), sides in the same
    order; for an active class (m.m)^-1 = m^-1.m^-1.  By induction the
    class of m^-1 has m's exponent, depth and verdict.  So the sweep visits
    the bracelets of ``_bracelet_walk``, one class of each inverse pair,
    and a class's words count twice unless it is its own inverse.

    Each class is visited once, so its own step runs uncached, and each
    distinct piece of work runs once per sweep.  The walk reads the
    sections of ``_SPLIT_IMAGE`` when the sweep starts and hands each
    bracelet r over with the reduced sides (s0, s1) of m = "a" + "a".join(r),
    built one letter at a time along the prenecklace tree, so no m is built
    or split.  For k = len(r) even they are the children of
    ``_class_step(m, n)``; for k odd the one child, side 0 of m.m, is s0
    joined with s1, since the second copy of r has the opposite a-parity
    (one more factor of two).  The children are built reduced, so the child
    step is the unchecked kernel ``_certify(child, level - 1)``, kept per
    child word in a ``functools.cache`` that lives as long as the call; a
    child that fails ends the sweep and is never kept.  A class's words are
    counted by ``_rotation_words`` and added up by (exponent, depth), so
    the report is filled once per pair at the end.
    """
    if level <= 0 or not _in_open_ball(n // 2, (n + 1) // 2, 0, 0, level - 1):
        return None
    sections = {x: tuple(map(reduce_word, _SPLIT_IMAGE[x])) for x in BCD}
    per_rotation = [_rotation_words(n, k) for k in range(n // 2 + 1)]
    certified = functools.cache(functools.partial(_certify, n=level - 1))
    counts = {}  # (exponent, depth) -> words certified with them
    try:
        for m, words in _letter_classes(n):
            # a letter has no children
            _rule, added, _kids = _class_step(m, level)
            key = (added, 1)
            counts[key] = counts.get(key, 0) + words
        for r, p, self_inverse, s0, s1 in _bracelet_walk(n, sections):
            k = len(r)
            words = p * per_rotation[k] * (1 if self_inverse else 2)
            if k & 1:
                exponent, depth = certified(_join(s0, s1))
                exponent += 1
            else:
                exponent, depth = certified(s0)
                e, d = certified(s1)
                if e > exponent:
                    exponent = e
                if d > depth:
                    depth = d
            key = (exponent, depth + 1)
            counts[key] = counts.get(key, 0) + words
    except RadiusViolation:
        return None
    report = NBallReport(n, level)
    for (exponent, depth), words in counts.items():
        report.add(exponent, depth, words)
    return report
