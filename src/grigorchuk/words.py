"""Reduced normal forms in the free product C2 * (C2 x C2) on letters a, b, c, d.

Words are plain strings over "abcd".  A word is reduced when no letter is
doubled and no two adjacent letters both lie in {b, c, d}; the empty string
is the identity and is printed/parsed as "1".  Reduced normal forms are
unique, so string equality decides equality in the group.
"""

from __future__ import annotations

from .errors import CapExceeded, PreconditionError, WordParseError

LETTERS = "abcd"
BCD = "bcd"
IDENTITY = ""

# product of two distinct letters of the Klein four-group {1, b, c, d}
_KLEIN = {
    ("b", "c"): "d",
    ("c", "b"): "d",
    ("b", "d"): "c",
    ("d", "b"): "c",
    ("c", "d"): "b",
    ("d", "c"): "b",
}


def reduce_word(raw) -> str:
    """Normal form of a letter sequence, via a single left-to-right stack pass.

    Merge rules: xx -> 1 for every letter x, and the product of two distinct
    letters of {b, c, d} is the third.  One pass suffices because the group
    is a free product of finite groups.
    """
    stack = []
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


def is_reduced(w: str) -> bool:
    return all(
        not (x == y or (x in BCD and y in BCD)) for x, y in zip(w, w[1:])
    ) and all(ch in LETTERS for ch in w)


def multiply(u: str, v: str) -> str:
    return reduce_word(u + v)


def invert(w: str) -> str:
    # every generator is an involution, so the inverse is the reversal
    return w[::-1]


def a_parity(w: str) -> int:
    """Number of a's mod 2; a homomorphism onto Z/2 with kernel Xi."""
    return w.count("a") & 1


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


def cyclically_reduce(w: str) -> str:
    """Strip/merge matching ends until the word is cyclically reduced."""
    while len(w) >= 2:
        first, last = w[0], w[-1]
        if first == last:
            w = w[1:-1]
        elif first in BCD and last in BCD:
            # conjugating by the last letter merges it into the first
            w = _KLEIN[last, first] + w[1:-1]
        else:
            break
    return w


def min_conjugate(w: str) -> str:
    """Conjugate of minimal weighted length, deterministically chosen.

    Minimal conjugates in a free product are the cyclic rotations of the
    cyclic reduction.  Rotations permute the same letter multiset, so they
    tie in weighted length and in word length; the lexicographic tie-break
    (a < b < c < d) picks the representative.

    A cyclically reduced word of length >= 2 alternates a with a letter of
    {b, c, d}, so its least rotation starts with a and is fixed by the least
    rotation r of the inactive letters s: it is "a" + "a".join(r).  Only the
    rotations of s that start at min(s) are candidates.  A word that is
    not reduced raises PreconditionError.
    """
    w = cyclically_reduce(w)
    if len(w) <= 1:
        return w
    s = w[1::2] if w[0] == "a" else w[::2]
    if "a" in s or 2 * w.count("a") != len(w):
        raise PreconditionError(f"min_conjugate needs a reduced word: {w!r}")
    first = min(s)
    r = min([s[i:] + s[:i] for i, ch in enumerate(s) if ch == first])
    return "a" + "a".join(r)


def iter_ball_free(n: int):
    """Yield all reduced words of word length <= n, in shortlex order.

    Reduced words are exactly the walks avoiding a after a and a {b,c,d}
    letter after another, so extension never needs re-reduction.
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    level = [IDENTITY]
    yield IDENTITY
    for _ in range(n):
        nxt = []
        for w in level:
            if not w:
                choices = LETTERS
            elif w[-1] == "a":
                choices = BCD
            else:
                choices = "a"
            for g in choices:
                nxt.append(w + g)
        for w in nxt:
            yield w
        level = nxt


def enumerate_ball_free(n: int, cap: int | None = None) -> list[str]:
    """The n-ball of the free product as a list; raises CapExceeded past cap."""
    out = []
    for w in iter_ball_free(n):
        if cap is not None and len(out) >= cap:
            raise CapExceeded(f"free ball cap {cap} exceeded at radius {n}", partial=len(out))
        out.append(w)
    return out
