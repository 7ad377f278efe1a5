import contextlib
import signal
from dataclasses import dataclass

from hypothesis import strategies as st

from grigorchuk.cubic import length_triple, triple_sign
from grigorchuk.words import BCD, LETTERS, _letter_classes, a_parity, multiply, reduce_word
from grigorchuk.wreath import split

raw_words = st.text(alphabet=LETTERS, max_size=24)


@contextlib.contextmanager
def within(seconds: float, what: str):
    """AssertionError, raised where the body is, once it has run for
    ``seconds``: the body may be a call that never returns."""

    def expire(signum, frame):
        raise AssertionError(f"{what} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def reduced_words(draw, max_size=24):
    n = draw(st.integers(min_value=0, max_value=max_size))
    out = []
    for _ in range(n):
        last = out[-1] if out else ""
        if last == "a":
            out.append(draw(st.sampled_from(BCD)))
        elif last:
            out.append("a")
        else:
            out.append(draw(st.sampled_from(LETTERS)))
    return "".join(out)


def random_reduced_word(length, rng):
    """A random reduced word of the given length, drawn by rng.choice: the
    first letter uniform over LETTERS, then a and a uniform letter of BCD
    alternate."""
    out = []
    for _ in range(length):
        last = out[-1] if out else ""
        if last == "a":
            out.append(rng.choice(BCD))
        elif last:
            out.append("a")
        else:
            out.append(rng.choice(LETTERS))
    return "".join(out)


def iter_ball_classes(n):
    """Yield the minimal conjugate of every conjugacy class that meets the
    n-ball of the free product: 1, a, b, c, d, then "a" + "a".join(r) for
    each necklace r over "bcd" of length 1..n // 2.

    Every class, where ``iter_ball_bracelets`` keeps one of each inverse
    pair: the oracle of the bracelet tests.
    """
    for m, _words in _letter_classes(n):
        yield m
    for k in range(1, n // 2 + 1):
        for r, _p in _necklaces(k):
            yield "a" + "a".join(r)


# the successor of each letter of {b, c, d} but the last, in "bcd" order
_NEXT_LETTER = dict(zip(BCD, BCD[1:]))


def _necklaces(k):
    """Yield (r, p) for every necklace r of length k >= 1 over "bcd", in
    lexicographic order, where p is the least period of r.

    A necklace is the least rotation of its class.  This is the
    Fredricksen-Kessler-Maiorana algorithm: it steps through the
    prenecklaces in lexicographic order, and a prenecklace whose longest
    Lyndon prefix has length p is a necklace iff p divides k.  The next
    prenecklace drops the trailing d's, raises the last letter left, and
    repeats that prefix of length p to length k.
    """
    r, p = "b" * k, 1
    while True:
        if k % p == 0:
            yield r, p
        prefix = r.rstrip("d")
        if not prefix:
            return
        p = len(prefix)
        prefix = prefix[:-1] + _NEXT_LETTER[prefix[-1]]
        r = (prefix * (k // p + 1))[:k]


def _bracelets(k):
    """Yield (r, p, symmetric) for every necklace r of ``_necklaces(k)``
    that is at most the necklace of its reversal, in the same order;
    symmetric is True iff the two are equal.  The necklace of reversed r is
    its least rotation; only rotations that start with r's leading run can
    be below r, and only the first p are distinct."""
    for r, p in _necklaces(k):
        rotations = r[::-1] * 2
        lead = r[: k - len(r.lstrip(r[0]))]
        i = rotations.find(lead)
        while i < p:
            if rotations[i : i + k] < r:
                break
            i = rotations.find(lead, i + 1)
        else:
            yield r, p, r in rotations


def iter_ball_bracelets(n):
    """Yield (r, p, self_inverse) for the bracelets r over "bcd" of length
    1..n // 2, by length and then in lexicographic order: one class
    "a" + "a".join(r) of each pair of mutually inverse classes of the
    n-ball, the oracle of ``words._bracelet_walk`` without its sides."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    for k in range(1, n // 2 + 1):
        yield from _bracelets(k)


@dataclass(frozen=True)
class ContractionReport:
    word: str
    adjusted: str  # the parity-0 word that was split (w or w*a)
    components: tuple[str, str]
    strong_holds: bool
    weak_holds: bool


def lemma_split_contraction_check(x: str) -> ContractionReport:
    """Check the splitting contraction bounds on a reduced word, word by
    word: the independent oracle of the proof in ``reports.check_lemma_ineq``.

    The strong bound |x0| + |x1| <= |x|/L is claimed only for x minimal in
    its conjugacy class and not a single letter of {b, c, d}, which the
    caller checks; the weak bound |x0| + |x1| <= (|x| + |a|)/L is
    unconditional.
    """
    x = reduce_word(x)
    adjusted = x if a_parity(x) == 0 else multiply(x, "a")
    x0, x1 = split(adjusted)
    t0, t1, t2 = length_triple(x0 + x1)
    s0, s1, s2 = length_triple(x)
    # 2L^3 = L^2 + L + 1 gives 2L*t = (t2, 2t0 + t2, 2t1 + t2); the bounds
    # are d = 2L*t - 2|x| <= 0 and d - 2|a| <= 0, with 2|a| = (-4, 4, 0)
    d0, d1, d2 = t2 - 2 * s0, 2 * t0 + t2 - 2 * s1, 2 * t1 + t2 - 2 * s2
    # |a| > 0, so the strong bound implies the weak one
    strong = triple_sign(d0, d1, d2) <= 0
    return ContractionReport(
        word=x,
        adjusted=adjusted,
        components=(x0, x1),
        strong_holds=strong,
        weak_holds=strong or triple_sign(d0 + 4, d1 - 4, d2) <= 0,
    )
