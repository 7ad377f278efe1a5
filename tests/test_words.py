import time
from collections import Counter
from heapq import merge
from itertools import islice, product

import pytest
from hypothesis import example, given

from conftest import (
    _bracelets,
    _necklaces,
    iter_ball_bracelets,
    iter_ball_classes,
    raw_words,
    reduced_words,
    within,
)
from grigorchuk import cli, words, wreath
from grigorchuk.errors import CapExceeded, PreconditionError, WordParseError
from grigorchuk.cubic import lambda_length
from grigorchuk.growth import ball_free_product
from grigorchuk.words import (
    BCD,
    _bracelet_walk,
    _join,
    _letter_classes,
    _rotation_words,
    a_parity,
    cyclically_reduce,
    format_word,
    invert,
    is_reduced,
    iter_ball_free,
    min_conjugate,
    multiply,
    parse_word,
    reduce_word,
)


def test_reduce_examples():
    assert reduce_word("aa") == ""
    assert reduce_word("bc") == "d"
    assert reduce_word("bcd") == ""
    assert reduce_word("abba") == ""
    assert reduce_word("abcd") == "a"  # bcd collapses to the identity
    assert reduce_word("adad") == "adad"


@given(raw_words)
def test_reduce_is_idempotent_and_reduced(w):
    r = reduce_word(w)
    assert is_reduced(r)
    assert reduce_word(r) == r


@given(raw_words)
def test_is_reduced_iff_fixed_by_reduction(w):
    assert is_reduced(w) == (reduce_word(w) == w)


@given(reduced_words())
def test_reduce_returns_a_reduced_string_itself(w):
    assert reduce_word(w) is w


@given(raw_words)
def test_reduce_agrees_with_the_pass_from_the_first_letter(w):
    # a list takes the stack pass from its first letter, a string from the
    # end of its longest reduced prefix
    assert reduce_word(w) == reduce_word(list(w))


def test_reduce_still_checks_letters_and_takes_sequences():
    for bad in ("abx", "ab x"):
        with pytest.raises(ValueError, match="invalid letter"):
            reduce_word(bad)
    assert reduce_word(list("abba")) == ""
    assert reduce_word(["a", "b", "a", "c"]) == "abac"
    # an item is one letter: a longer or an empty string is not a letter
    for items, bad in ((["bc"], "bc"), (["b", "", "c"], ""), (("a", "bc", "d"), "bc")):
        with pytest.raises(ValueError, match=f"invalid letter {bad!r}"):
            reduce_word(items)
    # neither a str nor an iterable: a TypeError that names the type, also
    # from the entry points that reduce a caller's word first
    for call, name in (
        (lambda: reduce_word(5), "int"),
        (lambda: wreath.verify_nball_proposition(3, words=["ab", 5]), "int"),
        (lambda: wreath.split(None), "NoneType"),
        (lambda: lambda_length(5), "int"),
    ):
        with pytest.raises(TypeError, match=f"^word must be a str or an iterable of letters, not {name}$"):
            call()


def test_is_reduced_rejects_other_letters_and_non_strings():
    assert not is_reduced("abx")
    assert not is_reduced(["a", "b"])


@given(reduced_words())
def test_inverse_cancels(w):
    assert multiply(w, invert(w)) == ""
    assert multiply(invert(w), w) == ""


@given(raw_words)
def test_inverse_is_a_normal_form(w):
    assert invert(w) == reduce_word(invert(w))
    assert multiply(w, invert(w)) == ""


def test_inverse_reduces_first_and_checks_letters():
    # abc = ad, whose inverse is da; the reversal cba is not reduced
    assert invert("abc") == "da"
    with pytest.raises(ValueError, match="invalid letter 'x'"):
        invert("xyz")


@given(reduced_words(), reduced_words())
def test_parity_is_a_homomorphism(u, v):
    assert a_parity(multiply(u, v)) == (a_parity(u) + a_parity(v)) % 2


@given(raw_words, raw_words)
def test_multiply_agrees_with_concatenation(u, v):
    assert multiply(reduce_word(u), reduce_word(v)) == reduce_word(u + v)


def test_parse_and_format():
    assert parse_word("1") == ""
    assert format_word("") == "1"
    assert parse_word("abab") == "abab"
    with pytest.raises(WordParseError) as exc:
        parse_word("abxd")
    assert exc.value.position == 2


def test_cyclic_reduction():
    assert cyclically_reduce("aba") == "b"
    assert cyclically_reduce("bab") == "a"
    # Klein ends merge: conjugating bac by c turns the leading b into cb = d
    assert cyclically_reduce("bac") == "da"
    # words that are not reduced; bdc is the identity
    for w in ("bdc", "aa", "abba"):
        with pytest.raises(PreconditionError):
            cyclically_reduce(w)


def _cyclically_reduce_by_pairs(w):
    """The cyclic reduction, one end pair at a time."""
    while len(w) >= 2:
        first, last = w[0], w[-1]
        if first == last:
            w = w[1:-1]
        elif first in BCD and last in BCD:
            w = words._KLEIN[last, first] + w[1:-1]
        else:
            break
    return w


@given(reduced_words(), reduced_words(max_size=6))
def test_cyclic_reduction_agrees_with_pairwise_stripping(v, core):
    # a conjugate of the core by v has |v| matching ends to strip
    for w in (v, reduce_word(v + core + invert(v))):
        assert cyclically_reduce(w) == _cyclically_reduce_by_pairs(w)


def test_cyclic_reduction_of_a_long_conjugate_is_linear():
    # 400 000 stripped pairs and one slice; copying the word once per pair
    # is quadratic and takes seconds here
    start = time.perf_counter()
    assert min_conjugate("ab" * 200_000 + "a" + "ba" * 200_000) == "a"
    assert time.perf_counter() - start < 1.0


def test_min_conjugate_examples():
    assert min_conjugate("aba") == "b"
    assert min_conjugate("bab") == "a"
    assert min_conjugate("daca") == "acad"


@given(reduced_words(max_size=10))
def test_min_conjugate_is_minimal_over_rotations(w):
    m = min_conjugate(w)
    c = cyclically_reduce(w)
    rotations = [c[i:] + c[:i] for i in range(max(len(c), 1))]
    assert m in rotations or (not c and m == "")
    assert all(lambda_length(m) <= lambda_length(r) for r in rotations)


def _least_rotation(w):
    c = cyclically_reduce(w)
    return min(c[i:] + c[:i] for i in range(max(len(c), 1)))


def test_min_conjugate_is_least_rotation_on_16_ball():
    # a canonical class key: the least rotation of the cyclic reduction
    count = 0
    for w in iter_ball_free(16):
        assert min_conjugate(w) == _least_rotation(w), w
        count += 1
    assert count == 32801


@given(reduced_words(max_size=80))
# powers u^k of a primitive u, some starting with a letter of {b, c, d}
@example("ab" * 40)
@example("abacad" * 13)
@example("abacabad" * 10)
@example("dacaba" * 13)
# powers of a u that is itself a power: the least period is shorter than u
@example(("abac" * 3) * 6)
@example(("acabacad" * 2) * 4)
@example(("dabaca" * 2) * 6)
def test_min_conjugate_is_least_rotation(w):
    m = min_conjugate(w)
    assert m == _least_rotation(w)
    assert min_conjugate(m) == m


@pytest.mark.parametrize(
    "call, period, k",
    [(min_conjugate, "ab", 10**6), (wreath.order, "ab", 10**5), (wreath.order, "abac", 80_000)],
    ids=["min_conjugate-ab^1000000", "order-ab^100000", "order-abac^80000"],
)
def test_min_conjugate_is_linear_on_periodic_words(call, period, k):
    """A periodic word costs one period: scanning the rotations of all of
    it took seconds on each of these."""
    with within(1.0, f"{call.__name__}({period!r} * {k})"):
        call(period * k)


def test_min_conjugate_memory_is_linear():
    """The candidate rotations are compared one at a time, never all held:
    a 40 000-letter word peaks far below its ~6 700 candidates of 20 kB."""
    import random
    import tracemalloc

    rng = random.Random(7)
    w = "".join("a" + rng.choice("bcd") for _ in range(20_000))
    tracemalloc.start()
    try:
        m = min_conjugate(w)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(m) == len(w)
    assert peak < 1 << 20


def test_min_conjugate_rejects_unreduced_words():
    # "aa", "abaa", "bcb" and "xa" used to come back as "", "ab", "c", "ax"
    for w in ("aab", "abcb", "abbcab", "aa", "abaa", "bcb", "xa"):
        with pytest.raises(PreconditionError):
            min_conjugate(w)


def test_ball_counts_follow_alternation_recurrence():
    counts = [len(list(iter_ball_free(n))) for n in range(7)]
    assert counts == [1, 5, 11, 23, 41, 77, 131]
    # spheres: a(k+1) = b(k), b(k+1) = 3 a(k)
    spheres = [counts[i] - counts[i - 1] for i in range(1, 7)]
    a, b = 1, 3
    for k in range(1, 6):
        a, b = b, 3 * a
        assert spheres[k] == a + b


def test_ball_walk_memory_is_linear():
    """Each length is walked as two products of alphabets and no sphere is
    held: draining the 18-ball (98 411 words) peaks below 0.1 MB, where
    holding its last sphere took 4.9 MB."""
    import tracemalloc

    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_ball_free(18))
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == ball_free_product(18)
    assert peak < 100_000


def test_ball_words_are_reduced_and_distinct():
    words = list(iter_ball_free(5))
    assert len(set(words)) == len(words)
    assert all(is_reduced(w) for w in words)


def test_ball_cap():
    """The 10-ball has more than 50 words, so ``grig ball --cap 50`` raises
    CapExceeded, whose partial count is the cap."""
    args = cli.build_parser().parse_args(["ball", "10", "--cap", "50"])
    with pytest.raises(CapExceeded) as exc:
        cli.cmd_ball(args)
    assert exc.value.partial == 50


def test_class_word_counts_match_the_grouped_ball():
    """The oracle: every word of the ball, grouped by class.  A letter class
    holds the count ``_letter_classes`` gives it, and a bracelet's class and
    its inverse hold p * _rotation_words(n, k) words each, so the sweep
    weighs the pair twice unless it is one class.  Grouping the ball word by
    word is cheap only to the 16-ball; the counts add up to the free ball's
    size further out."""
    for n in range(17):
        want = Counter(map(min_conjugate, iter_ball_free(n)))
        for m, words in _letter_classes(n):
            assert want.pop(m) == words, (n, m)
        for r, p, self_inverse in iter_ball_bracelets(n):
            m = "a" + "a".join(r)
            words = p * _rotation_words(n, len(r))
            assert want.pop(m) == words, (n, r)
            if not self_inverse:
                assert want.pop(min_conjugate(invert(m))) == words, (n, r)
        assert not want, n
    for n in range(25):
        total = sum(words for _m, words in _letter_classes(n))
        for r, p, self_inverse in iter_ball_bracelets(n):
            total += p * _rotation_words(n, len(r)) * (1 if self_inverse else 2)
        assert total == ball_free_product(n), n


def test_ball_classes_are_distinct_minimal_conjugates():
    reps = list(iter_ball_classes(20))
    assert len(reps) == len(set(reps)) == 9508
    assert all(min_conjugate(m) == m for m in reps)


def test_necklaces_are_the_least_rotations():
    # the oracle: every word over "bcd", by its least rotation and period
    for k in range(1, 9):
        want = set()
        for w in map("".join, product(BCD, repeat=k)):
            p = next(p for p in range(1, k + 1) if k % p == 0 and w[:p] * (k // p) == w)
            want.add((min(w[i:] + w[:i] for i in range(k)), p))
        assert list(_necklaces(k)) == sorted(want), k


def _real_sections():
    return {x: wreath._SPLIT_IMAGE[x] for x in BCD}


def test_bracelet_walk_streams_at_any_radius():
    # depth first, the walk reaches b^t at depth t before any other node of
    # that length; one that built a length's list, or recursed per letter,
    # would not return here
    items = list(islice(_bracelet_walk(6000, _real_sections()), 3000))
    # b follows an odd number of a's at even positions, (a, c) = (b0, b1)
    want = [("b" * t, 1, True, ("ca" * t)[:t], ("ac" * t)[:t]) for t in range(1, 3001)]
    assert items == want


def test_bracelet_walk_is_the_bracelets_with_their_split():
    """The oracle: the FKM necklaces of each length k <= 14, the reversal
    test, and the split kernel on "a" + "a".join(r) with each side reduced.
    The walk goes depth first, so it yields in lexicographic order, which
    is the order of the lengths' streams merged."""
    want = merge(*(_bracelets(k) for k in range(1, 15)))
    count = 0
    for (r, p, self_inverse, s0, s1), oracle in zip(_bracelet_walk(29, _real_sections()), want, strict=True):
        assert (r, p, self_inverse) == oracle
        assert (s0, s1) == wreath._split_reduced("a" + "a".join(r)), r
        count += 1
    assert count == 272_130  # OEIS A027671, summed over k = 1..14


def test_bracelet_walk_joins_sections_longer_than_a_letter(monkeypatch):
    """With multi-letter sections a side's last letter sometimes meets the
    next section and sometimes does not, so the walk both joins and
    appends; its sides are still those of the split kernel."""
    images = {"b": ("aca", "dab"), "c": ("bad", "a"), "d": ("", "cab")}
    for x, image in images.items():
        monkeypatch.setitem(wreath._SPLIT_IMAGE, x, image)
    joins = []
    real_join = words._join
    monkeypatch.setattr(words, "_join", lambda u, v: joins.append(u + v) or real_join(u, v))
    walked = list(_bracelet_walk(16, images))
    assert [item[:3] for item in walked] == list(merge(*(_bracelets(k) for k in range(1, 9))))
    for r, _p, _self_inverse, s0, s1 in walked:
        assert (s0, s1) == wreath._split_reduced("a" + "a".join(r)), r
    # each yielded node took a section onto both sides; a join only where
    # the plain concatenation is not reduced
    assert 0 < len(joins) < 2 * len(walked)
    assert not any(map(is_reduced, joins))


@given(reduced_words(), reduced_words())
def test_join_is_the_reduced_product(u, v):
    assert _join(u, v) == reduce_word(u + v)


def test_bracelets_are_the_necklaces_up_to_inversion():
    # the oracle: the inverse class of every necklace, by min_conjugate
    for k in range(1, 11):
        want = []
        for r, p in _necklaces(k):
            m = "a" + "a".join(r)
            inverse = min_conjugate(invert(m))
            if m <= inverse:
                want.append((r, p, m == inverse))
        assert list(_bracelets(k)) == want, k


def test_ball_bracelets_are_the_classes_up_to_inversion():
    # 9 508 classes in the 20-ball, 1 094 of them their own inverse; the
    # letter classes are involutions
    classes = list(iter_ball_classes(20))
    kept = [m for m in classes if m <= min_conjugate(invert(m))]
    bracelets = [(m, True) for m, _words in _letter_classes(20)]
    bracelets += [("a" + "a".join(r), self_inverse) for r, _p, self_inverse in iter_ball_bracelets(20)]
    assert [m for m, _self_inverse in bracelets] == kept
    assert len(kept) == 5301
    assert sum(self_inverse for _m, self_inverse in bracelets) == 1094
    for m, self_inverse in bracelets:
        assert self_inverse == (m == min_conjugate(invert(m)))


def test_ball_classes_reject_negative_radius():
    for classes in (iter_ball_classes, iter_ball_bracelets, lambda n: _bracelet_walk(n, {})):
        with pytest.raises(ValueError, match="radius must be >= 0"):
            next(classes(-1))
