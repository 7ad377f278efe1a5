from hypothesis import strategies as st

from grigorchuk.words import (
    BCD,
    LETTERS,
    _cycle_conjugators,
    _cycle_tally,
    _letter_classes,
    _necklaces,
)

raw_words = st.text(alphabet=LETTERS, max_size=24)


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
    """Yield (m, tally) for every conjugacy class that meets the n-ball of
    the free product: m is the class's minimal conjugate and tally maps
    each letter-count vector (na, nb, nc, nd) to the number of words of
    length <= n in the class with those counts.

    Every class, where ``words.iter_ball_bracelets`` keeps one of each
    inverse pair: the oracle of the bracelet tests.
    """
    yield from _letter_classes(n)
    for k in range(1, n // 2 + 1):
        conjugators = _cycle_conjugators(n, k)
        for r, p in _necklaces(k):
            yield "a" + "a".join(r), _cycle_tally(r, p, conjugators)
