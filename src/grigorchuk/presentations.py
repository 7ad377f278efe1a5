"""Finite presentations: the substitution, the truncation relators u_n / v_n,
presentation builders, and the 2-power index-bound arithmetic.

Presentation files are line-oriented text::

    gens: a b c d
    rel: adadadad

Relators over single-letter involution alphabets are compact strings; signed
generators (as produced by subgroup rewriting) are space-separated tokens
``x3`` / ``x3^-1``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import check_int, check_type
from .words import reduce_word

# a relator is a tuple of (generator, +1|-1) pairs
Relator = tuple[tuple[str, int], ...]

_SIGMA = {"a": "aca", "b": "d", "c": "b", "d": "c"}


def sigma(w: str) -> str:
    """Image of a word under the substitution a -> aca, b -> d, c -> b,
    d -> c, in reduced normal form.  The substitution kills the defining
    relators, so it is an endomorphism of the free product, and w may be
    reduced first: a letter outside a, b, c, d raises ValueError there."""
    return reduce_word("".join(_SIGMA[ch] for ch in reduce_word(w)))


U0 = reduce_word("ad" * 4)
V0 = reduce_word("adacac" * 4)


# sigma doubles a relator's length: |u_n| = 8 * 2**n, |v_n| = 24 * 2**n, so
# v at this level already has 1 572 864 letters
MAX_RELATOR_LEVEL = 16


def _check_level(n: int, least: int) -> None:
    check_int(n, "n")
    if not least <= n <= MAX_RELATOR_LEVEL:
        raise ValueError(f"n must be >= {least} and <= {MAX_RELATOR_LEVEL}, not {n}")


def _sigma_power(w: str, n: int) -> str:
    """sigma applied n times to w; ValueError, before the first step,
    unless 0 <= n <= MAX_RELATOR_LEVEL."""
    _check_level(n, 0)
    for _ in range(n):
        w = sigma(w)
    return w


def relator_u(n: int) -> str:
    return _sigma_power(U0, n)


def relator_v(n: int) -> str:
    return _sigma_power(V0, n)


def check_words(generators, words, kind: str) -> None:
    """ValueError unless every letter of every word is one of the
    generators with exponent 1 or -1; the message names ``kind``."""
    gens = set(generators)
    for w in words:
        for g, e in w:
            if g not in gens:
                raise ValueError(f"{kind} uses undeclared generator {g!r}")
            if e not in (1, -1):
                raise ValueError(f"{kind} uses exponent {e}")


class Presentation:
    """Generators and relators; a relator that is empty, or that uses an
    undeclared generator or an exponent other than 1 or -1, raises
    ValueError when the presentation is built."""

    def __init__(self, generators: tuple[str, ...], relators: tuple[Relator, ...]):
        if not all(relators):
            raise ValueError("empty relator")
        check_words(generators, relators, "relator")
        self.generators = generators
        self.relators = relators

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (self.generators, self.relators) == (other.generators, other.relators)

    def __hash__(self):
        return hash((self.generators, self.relators))

    @staticmethod
    def from_strings(generators, relator_words) -> "Presentation":
        rels = tuple(relator_from_string(w) for w in relator_words)
        return Presentation(tuple(generators), rels)

    def relator_strings(self) -> list[str]:
        return [relator_to_string(r) for r in self.relators]

    def to_text(self) -> str:
        lines = ["gens: " + " ".join(self.generators)]
        lines += ["rel: " + s for s in self.relator_strings()]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Presentation":
        check_type(text, str, "text")
        gens: tuple[str, ...] | None = None
        rels = []
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("gens:"):
                gens = tuple(line[5:].split())
            elif line.startswith("rel:"):
                rels.append(relator_from_string(line[4:].strip()))
            else:
                raise ValueError(f"line {lineno}: expected 'gens:' or 'rel:'")
        if gens is None:
            raise ValueError("missing 'gens:' line")
        return Presentation(gens, tuple(rels))


def relator_from_string(s: str) -> Relator:
    check_type(s, str, "word")
    # compact strings are letters only, so a lone token such as x3 or
    # x3^-1 is a signed generator
    if not s.isalpha():
        out = []
        for tok in s.split():
            if tok.endswith("^-1"):
                out.append((tok[:-3], -1))
            else:
                out.append((tok, 1))
        return tuple(out)
    return tuple((ch, 1) for ch in s)


def relator_to_string(rel: Relator) -> str:
    if all(e == 1 and len(g) == 1 for g, e in rel):
        return "".join(g for g, _ in rel)
    return " ".join(g if e == 1 else f"{g}^-1" for g, e in rel)


_BASE_RELATORS = ["aa", "bb", "cc", "dd", "bcd"]


def gamma_presentation(n: int) -> Presentation:
    """Presentation of the level-n approximant on generators a, b, c, d:
    the base free-product relators plus u_0..u_n and v_0..v_(n-1);
    n = -1 gives the free product itself.  ValueError unless
    -1 <= n <= MAX_RELATOR_LEVEL."""
    _check_level(n, -1)
    rels = list(_BASE_RELATORS)
    rels += [relator_u(i) for i in range(n + 1)]
    rels += [relator_v(i) for i in range(n)]
    return Presentation.from_strings("abcd", rels)


def gamma0_coxeter_presentation() -> Presentation:
    """The level-0 group as a 3-generator Coxeter group (c eliminated as bd)."""
    return Presentation.from_strings("abd", ["aa", "bb", "dd", "bdbd", "adadadad"])


def xi_generators() -> list[str]:
    """Generators of the index-2 parity kernel of the level-0 group."""
    return ["b", "c", "d", "aba", "aca", "ada"]


class IndexBounds(NamedTuple):
    n: int
    alpha: int
    beta: int


def index_bounds(n: int) -> IndexBounds:
    """Recursion alpha(k) = 4*alpha(k-1) + 1, beta(k) = 2*alpha(k-1) +
    2*beta(k-1) from alpha(0) = 4, beta(0) = 0."""
    check_int(n, "n", 0)
    alpha, beta = 4, 0
    for _ in range(n):
        alpha, beta = 4 * alpha + 1, 2 * alpha + 2 * beta
    return IndexBounds(n, alpha, beta)


def closed_form_alpha(n: int) -> int:
    check_int(n, "n", 0)
    num = 13 * 4**n - 1
    assert num % 3 == 0
    return num // 3


def closed_form_beta(n: int) -> int:
    check_int(n, "n", 0)
    num = 13 * 4**n - 15 * 2**n + 2
    assert num % 3 == 0
    return num // 3


def closed_form_check(n: int) -> bool:
    ib = index_bounds(n)
    return ib.alpha == closed_form_alpha(n) and ib.beta == closed_form_beta(n)
