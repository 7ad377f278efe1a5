"""Reduced normal forms in the free product C2 * (C2 x C2) on letters a, b, c, d.

Words are plain strings over "abcd".  A word is reduced when no letter is
doubled and no two adjacent letters both lie in {b, c, d}; the empty string
is the identity and is printed/parsed as "1".  Reduced normal forms are
unique, so string equality decides equality in the group.
"""

from __future__ import annotations

import re
from itertools import product

from .errors import PreconditionError, WordParseError, check_int, check_type

LETTERS = "abcd"
# the letters as items of a sequence: a tuple, so that an item of any type,
# hashable or not, is tested by equality
_LETTER_ITEMS = tuple(LETTERS)
BCD = "bcd"
IDENTITY = ""
# the letters that may follow a reduced word, by its last letter ("" for the
# empty word): a alternates with a letter of {b, c, d}
FOLLOWERS = {"": LETTERS, "a": BCD, "b": "a", "c": "a", "d": "a"}
# the nucleus of the automaton: the identity and the four letters, in the
# order of their ids 0..4 among growth's section triples
NUCLEUS = (IDENTITY, *LETTERS)

# product of two distinct letters of the Klein four-group {1, b, c, d}
_KLEIN = {
    ("b", "c"): "d",
    ("c", "b"): "d",
    ("b", "d"): "c",
    ("d", "b"): "c",
    ("c", "d"): "b",
    ("d", "c"): "b",
}

# the letters of {b, c, d} above each one, greatest first
_ABOVE = {"b": "dc", "c": "d", "d": ""}

# the longest reduced prefix of a string: a alternates with a letter of
# {b, c, d}; the possessive repeat keeps no backtracking state, so a long
# word is scanned in constant memory
_REDUCED_PREFIX = re.compile("a?(?:[bcd]a)*+[bcd]?")


def reduce_word(raw) -> str:
    """Normal form of a letter sequence, via a single left-to-right stack pass.

    Merge rules: xx -> 1 for every letter x, and the product of two distinct
    letters of {b, c, d} is the third.  One pass suffices because the group
    is a free product of finite groups.  The pass would keep the longest
    reduced prefix of a string as it is, so that prefix starts the stack,
    and a string that is already reduced is returned as it is.  Any other
    iterable is joined into a string first; each of its items must be one
    of the four one-letter strings.  Anything else is a TypeError.
    """
    if type(raw) is not str:
        if not hasattr(raw, "__iter__"):
            raise TypeError(f"word must be a str or an iterable of letters, not {type(raw).__name__}")
        raw = tuple(raw)
        for ch in raw:
            if ch not in _LETTER_ITEMS:
                raise ValueError(f"invalid letter {ch!r}")
        raw = "".join(raw)
    start = _REDUCED_PREFIX.match(raw).end()
    if start == len(raw):
        return raw
    stack, raw = list(raw[:start]), raw[start:]
    for ch in raw:
        if ch not in LETTERS:
            raise ValueError(f"invalid letter {ch!r}")
        while True:
            if not stack:
                stack.append(ch)
                break
            top = stack[-1]
            if top == ch:
                stack.pop()
                break
            if top in BCD and ch in BCD:
                stack.pop()
                ch = _KLEIN[top, ch]
                continue
            stack.append(ch)
            break
    return "".join(stack)


def is_reduced(w) -> bool:
    """True iff w is a string in reduced normal form."""
    return isinstance(w, str) and _REDUCED_PREFIX.fullmatch(w) is not None


def multiply(u: str, v: str) -> str:
    return reduce_word(u + v)


def invert(w: str) -> str:
    # every letter is an involution: a normal form reversed is the inverse's
    return reduce_word(w)[::-1]


def a_parity(w: str) -> int:
    """Number of a's mod 2; a homomorphism onto Z/2 with kernel Xi."""
    try:
        return w.count("a") & 1
    except AttributeError:
        check_type(w, str, "word")
        raise


def parse_word(text: str) -> str:
    """Parse CLI word syntax: letters over "abcd", or "1" for the identity."""
    if text == "1":
        return IDENTITY
    for i, ch in enumerate(text):
        if ch not in LETTERS:
            raise WordParseError(text, i, f"invalid character {ch!r}")
    return reduce_word(text)


def format_word(w: str) -> str:
    return w if w else "1"


def _checked(w) -> str:
    """w, once it is a str (else TypeError) and reduced (else PreconditionError)."""
    check_type(w, str, "word")
    if not is_reduced(w):
        raise PreconditionError(f"cyclic reduction needs a reduced word: {w!r}")
    return w


def cyclically_reduce(w: str) -> str:
    """Cyclic reduction of a reduced word w; a non-str raises TypeError, and
    a word that is not reduced PreconditionError.  The matching ends that
    cancel are the common prefix of w and its reverse, stripped by one
    slice; if both ends left are letters of {b, c, d}, conjugating by the
    last one merges it into the first, and the merged letter then meets an a."""
    return _cyclically_reduce(_checked(w))


def _cyclically_reduce(w: str) -> str:
    """``cyclically_reduce`` of a word known to be reduced, unchecked."""
    n, i = len(w), 0
    while 2 * i + 2 <= n and w[i] == w[n - 1 - i]:
        i += 1
    w = w[i : n - i]
    if len(w) >= 2 and w[0] in BCD and w[-1] in BCD:
        w = _KLEIN[w[-1], w[0]] + w[1:-1]
    return w


def min_conjugate(w: str) -> str:
    """Conjugate of minimal weighted length, deterministically chosen.

    Minimal conjugates in a free product are the cyclic rotations of the
    cyclic reduction.  Rotations permute the same letter multiset, so they
    tie in weighted length and in word length; the lexicographic tie-break
    (a < b < c < d) picks the representative.

    A cyclically reduced word of length >= 2 alternates a with a letter of
    {b, c, d}, so its least rotation starts with a and is fixed by the least
    rotation of the inactive letters s.  s is q copies of its least period
    u, the prefix of s up to the first index > 0 where s occurs in s + s,
    so the least rotation of s is r * q, for r the least rotation of u; the
    candidates for r start at min(u) and are compared one at a time, so a
    periodic word costs one period.  A non-str raises TypeError, and a word
    that is not reduced PreconditionError.
    """
    return _min_conjugate(_checked(w))


def _min_conjugate(w: str) -> str:
    """``min_conjugate`` of a word known to be reduced, unchecked."""
    w = _cyclically_reduce(w)
    if len(w) <= 1:
        return w
    s = w[1::2] if w[0] == "a" else w[::2]
    u = s[: (s + s).find(s, 1)]
    first = min(u)
    i = u.find(first)
    r = u[i:] + u[:i]
    while (i := u.find(first, i + 1)) >= 0:
        if (c := u[i:] + u[:i]) < r:
            r = c
    return "a" + "a".join(r * (len(s) // len(u)))


def iter_ball_free(n: int):
    """Yield all reduced words of word length <= n, in shortlex order, in
    O(n) memory: a reduced word alternates a with a letter of {b, c, d}, so
    the words of length k are the product of the k alphabets ("a", "bcd",
    "a", ...), followed by the product of ("bcd", "a", "bcd", ...)."""
    check_int(n, "radius", 0)
    yield IDENTITY
    for k in range(1, n + 1):
        for alphabets in ("a", BCD) * k, (BCD, "a") * k:
            yield from map("".join, product(*alphabets[:k]))


def _join(u: str, v: str) -> str:
    """The normal form of u.v for reduced words u and v.  Only letters at
    the boundary cancel, and a Klein merge ends the cascade: the merged
    letter has a or nothing on either side."""
    while u and v:
        x, y = u[-1], v[0]
        if x == y:
            u, v = u[:-1], v[1:]
        elif x == "a" or y == "a":
            break
        else:
            return u[:-1] + _KLEIN[x, y] + v[1:]
    return u + v


def _bracelet_walk(n: int, sections: dict[str, tuple[str, str]]):
    """Yield (r, p, self_inverse, s0, s1) for one class "a" + "a".join(r)
    of each pair of mutually inverse conjugacy classes that meets the
    n-ball of the free product, other than 1, a, b, c, d
    (``_letter_classes``): r is a bracelet over "bcd" of length 1..n // 2,
    that is, a necklace of least period p that is at most the necklace of
    its reversal (inversion reverses a word), self_inverse is True iff the
    two are equal, and (s0, s1) are the reduced sides of the splitting of
    "a" + "a".join(r), given the reduced sections (x0, x1) of each letter x
    of {b, c, d}.  The class has ``p * _rotation_words(n, len(r))`` words.

    One depth-first walk of the prenecklace tree (Ruskey, Savage and Wang,
    "Generating necklaces", J. Algorithms 13, 1992) covers every length, in
    lexicographic order.  A node is a prefix r of length t whose longest
    Lyndon prefix has length p, and whose leading run of its least letter
    has length j; appending r[t - p] keeps p, a greater letter makes the
    child its own Lyndon prefix, and r is a necklace iff p divides t.  The
    necklace of reversed r is its least rotation; only the first p
    rotations are distinct, and only those that start with r's leading run
    can be below r, as no run of that letter is longer.  When that run
    occurs once in r, the one candidate is the run followed by the rest of
    r reversed, so one comparison of the rest with its reversal decides r;
    otherwise the candidates are scanned.

    Each node carries the sides of its prefix: the letter at position t of
    r follows t + 1 a's, so at even t it joins x1 onto side 0 and x0 onto
    side 1, and at odd t the other way round.  A section is appended as it
    is unless its first letter meets the side's last letter (``_join``).
    A leaf of length n // 2 is pushed only if it is a necklace, and its
    sides are joined only if it is kept.  The pending children on the stack
    share their parent's strings, so the walk streams at any radius.
    """
    check_int(n, "radius", 0)
    depth = n // 2
    # by t & 1, each letter's sections that a letter at position t joins
    # onto sides 0 and 1, each with the last letters of a side it meets
    swapped = {x: (x1, x0) for x, (x0, x1) in sections.items()}
    joins = tuple(
        {x: (y0, _meets(y0), y1, _meets(y1)) for x, (y0, y1) in pairs.items()}
        for pairs in (swapped, sections)
    )
    # (parent prefix, letter, child's p, child's leading run, parent sides)
    stack = [("", x, 1, 1, "", "") for x in BCD[::-1]] if depth else []
    while stack:
        r, x, p, j, s0, s1 = stack.pop()
        t = len(r)
        y0, meets0, y1, meets1 = joins[t & 1][x]
        r += x
        t += 1
        symmetric = None  # whether r is kept, and then whether r is its reversal's necklace
        if t % p == 0:
            lead, tail = r[:j], r[j:]
            if lead not in tail:
                back = tail[::-1]
                if tail <= back:
                    symmetric = tail == back
            else:
                rotations = r[::-1] * 2
                i = rotations.find(lead)
                while i < p:
                    if rotations[i : i + t] < r:
                        break
                    i = rotations.find(lead, i + 1)
                else:
                    symmetric = r in rotations
        if symmetric is None and t == depth:
            continue  # a leaf that is not kept needs no sides
        s0 = _join(s0, y0) if s0[-1:] in meets0 else s0 + y0
        s1 = _join(s1, y1) if s1[-1:] in meets1 else s1 + y1
        if symmetric is not None:
            yield r, p, symmetric, s0, s1
        if t < depth:
            same = r[t - p]
            for y in _ABOVE[same]:
                stack.append((r, y, t + 1, j, s0, s1))
            # a leaf that keeps p is a necklace only if p divides its length
            if t + 1 < depth or depth % p == 0:
                stack.append((r, same, p, j + (j == t), s0, s1))


def _meets(v: str) -> frozenset:
    """The last letters of a reduced word u for which u + v is not
    reduced, for a reduced word v: none if v is empty."""
    return frozenset(last for last in LETTERS if v[:1] not in FOLLOWERS[last])


def _conjugators(length: int, last: str) -> int:
    """The number of reduced words u of length <= ``length`` that are empty
    or end in a letter of ``last``.  Such a u alternates a with a free
    choice from {b, c, d}, so 3^((j + [last = bcd]) // 2) of them have
    length j."""
    return sum(3 ** ((j + (last == BCD)) // 2) for j in range(length + 1))


def _letter_classes(n: int):
    """(m, number of words) for the classes 1, a, b, c, d that meet the
    n-ball: m is the class's minimal conjugate, and its words of length
    <= n are u.x.u^-1, where u is empty or its last letter does not merge
    with x."""
    check_int(n, "radius", 0)
    yield IDENTITY, 1
    if n == 0:
        return
    for x in LETTERS:
        yield x, _conjugators((n - 1) // 2, BCD if x == "a" else "a")


def _rotation_words(n: int, k: int) -> int:
    """The number of words of the n-ball that each of the p distinct
    rotations z.v of a necklace r of length k adds to the class
    "a" + "a".join(r): the two rotations of m that start with a and with
    z, and u.x.v.y.u^-1 of odd length for both letters x of {b, c, d} other
    than z, y = xz and every u that is empty or ends in a.  So the class
    has ``p * _rotation_words(n, k)`` words."""
    return 2 * (1 + _conjugators((n - 2 * k - 1) // 2, "a"))

