import hashlib
import json
import math
import time

import pytest
from hypothesis import example, given, settings

from conftest import (
    _bracelets,
    iter_ball_bracelets,
    iter_ball_classes,
    lemma_split_contraction_check,
    raw_words,
    reduced_words,
    within,
)
from grigorchuk import wreath
from grigorchuk.cubic import (
    LAMBDA_INV,
    count_triple,
    lambda_length,
    radius_index,
    triple_compare_power,
    triple_sign,
)
from grigorchuk.errors import CapExceeded, GrigError, PreconditionError
from grigorchuk.words import (
    BCD,
    _join,
    a_parity,
    invert,
    iter_ball_free,
    min_conjugate,
    multiply,
    reduce_word,
)
from grigorchuk.wreath import (
    CertificateFailure,
    RadiusViolation,
    certify_exponent,
    certify_torsion,
    is_trivial,
    level_action,
    order,
    order_by_squaring,
    split,
    verify_nball_proposition,
)


def test_split_of_generators():
    assert split("b") == ("a", "c")
    assert split("c") == ("a", "d")
    assert split("d") == ("", "b")


def _split_by_letters(w):
    """The reference splitting: each letter x of {b, c, d} appends x0 to
    side p and x1 to side 1 - p, p the parity of the a's before it."""
    sides = ["", ""]
    p = 0
    for ch in w:
        if ch == "a":
            p ^= 1
        else:
            x0, x1 = wreath._SPLIT_IMAGE[ch]
            sides[p] += x0
            sides[1 - p] += x1
    return reduce_word(sides[0]), reduce_word(sides[1])


def test_split_matches_the_letter_by_letter_reference():
    words = [w for w in iter_ball_free(12) if a_parity(w) == 0]
    assert len(words) == 2185
    for w in words:
        assert split(w) == _split_by_letters(w), w


def test_split_follows_every_write_to_the_image(monkeypatch):
    # the section table is cached, and each write to the image drops it
    assert split("d") == ("", "b")
    with monkeypatch.context() as patch:
        patch.setitem(wreath._SPLIT_IMAGE, "d", ("a", "b"))
        assert split("d") == ("a", "b")
        patch.delitem(wreath._SPLIT_IMAGE, "d")
        assert ord("d") not in wreath._section_table()
    assert split("d") == ("", "b")
    assert split("ada") == ("b", "")


def test_image_writes_clear_every_memo_derived_from_it(monkeypatch):
    """Nothing computed under a patched image outlives it: the word problem,
    the level action, the certificates and the orders all read the image."""

    def probes():
        return is_trivial("adadadad"), level_action("d", 2), certify_exponent("ad", 3)

    with monkeypatch.context() as patch:
        patch.setitem(wreath._SPLIT_IMAGE, "d", ("a", "b"))
        for memo in (wreath._is_trivial, wreath._letter_action, wreath._order, wreath._class_exponent):
            memo.cache_clear()
        assert probes() == (False, (1, 0, 2, 3), (5, 4))
    assert probes() == (True, (0, 1, 2, 3), (2, 2))
    assert order("abad") == 16
    with monkeypatch.context() as patch:
        patch.setitem(wreath._SPLIT_IMAGE, "d", ("", "c"))
        assert order("abad") == 8
    assert order("abad") == 16


@given(reduced_words(max_size=16))
def test_split_conjugation_by_a_swaps_components(w):
    if a_parity(w):
        return
    w0, w1 = split(w)
    assert split(multiply("a", multiply(w, "a"))) == (w1, w0)


def test_split_rejects_active_words():
    # the message, which grig split prints, names the reduced word
    with pytest.raises(PreconditionError, match=r"^bab is active \(odd number of a's\); split applies to"):
        split("bab")
    with pytest.raises(PreconditionError, match="^ab is active"):
        split("aaab")


def test_split_rejects_bad_input_as_reduce_word_does():
    with pytest.raises(ValueError, match="invalid letter 'x'"):
        split("axa")
    with pytest.raises(TypeError):
        split(123)


@given(raw_words)
def test_split_reduces_its_input(w):
    if a_parity(w):
        return
    assert split(w) == split(list(w)) == split(reduce_word(w))


@given(reduced_words(max_size=24))
def test_split_of_an_inverse_is_the_inverse_pair(w):
    if a_parity(w):
        return
    assert split(invert(w)) == tuple(map(invert, split(w)))


@given(reduced_words(max_size=16), reduced_words(max_size=16))
def test_split_is_a_homomorphism_on_the_kernel(u, v):
    if a_parity(u) or a_parity(v):
        return
    u0, u1 = split(u)
    v0, v1 = split(v)
    p0, p1 = split(multiply(u, v))
    assert p0 == multiply(u0, v0)
    assert p1 == multiply(u1, v1)


def test_known_trivial_words():
    assert is_trivial("")
    assert is_trivial("bb")
    assert is_trivial("adadadadadadadad")  # (ad)^8, beyond the order 4
    assert not is_trivial("adad")
    assert not is_trivial("ab")


@given(reduced_words(max_size=14))
def test_conjugates_of_trivial_are_trivial(w):
    x = multiply(w, invert(w))
    assert is_trivial(x)


def test_order_table():
    assert {x: order(x) for x in "abcd"} == {"a": 2, "b": 2, "c": 2, "d": 2}
    assert order("ad") == 4
    assert order("ac") == 8
    assert order("ab") == 16
    assert order("") == 1


def test_order_matches_squaring_oracle():
    for w in ["a", "b", "c", "d", "ab", "ac", "ad", "abad", "acab", "adacab"]:
        assert order(w) == order_by_squaring(w)


def test_squaring_oracle_cap(monkeypatch):
    # ab has order 16, so squaring passes a cap of 8
    monkeypatch.setattr(wreath, "_SQUARING_CAP", 8)
    with pytest.raises(CapExceeded, match="order cap 8"):
        order_by_squaring("ab")


@given(reduced_words(max_size=8))
@settings(max_examples=40)
def test_order_power_is_trivial(w):
    n = order(w)
    assert n & (n - 1) == 0  # always a power of two
    power = ""
    for _ in range(n):
        power = multiply(power, w)
    assert is_trivial(power)


def test_level_action_depth1():
    # a swaps the two depth-1 subtrees; b, c, d fix them
    assert level_action("a", 1) == (1, 0)
    assert level_action("b", 1) == (0, 1)


def test_level_action_rejects_a_depth_that_is_not_an_int():
    for k in (1.5, True):
        with pytest.raises(TypeError, match="depth must be an int"):
            level_action("ab", k)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        level_action("ab", -1)
    # each letter's action at depth k is 2^k ints: depth 20 took 318 MB
    for k in (wreath.MAX_DEPTH + 1, 10**6):
        with within(0.5, f"level_action at depth {k}"):
            with pytest.raises(ValueError, match="depth must be <= 16, not"):
                level_action("ab", k)


@given(reduced_words(max_size=12), reduced_words(max_size=12))
@settings(max_examples=40)
def test_level_action_is_a_homomorphism(u, v):
    k = 4
    au, av = level_action(u, k), level_action(v, k)
    composed = tuple(au[av[i]] for i in range(len(av)))
    assert level_action(multiply(u, v), k) == composed


@given(reduced_words(max_size=20))
def test_contraction_weak_bound_always(w):
    rep = lemma_split_contraction_check(w)
    assert rep.weak_holds


@given(reduced_words(max_size=20))
def test_contraction_strong_bound_on_min_conjugates(w):
    m = min_conjugate(w)
    if m in BCD:
        return
    assert m == min_conjugate(m) and m not in BCD
    assert lemma_split_contraction_check(m).strong_holds


@given(reduced_words(max_size=30))
@example("")
@example("a")
@example("b")
def test_contraction_bounds_agree_with_cubic_oracle(w):
    rep = lemma_split_contraction_check(w)
    lhs = lambda_length(rep.components[0]) + lambda_length(rep.components[1])
    length = lambda_length(w)
    assert rep.strong_holds == (lhs <= LAMBDA_INV * length)
    assert rep.weak_holds == (lhs <= LAMBDA_INV * (length + lambda_length("a")))


def test_contraction_bounds_pinned():
    # "": strong bound with equality; "b": strong bound fails and the weak
    # bound holds with equality
    reps = [lemma_split_contraction_check(w) for w in ("", "a", "b")]
    assert [(r.strong_holds, r.weak_holds) for r in reps] == [(True, True), (True, True), (False, True)]


def test_certificate_for_ad():
    cert = certify_torsion("ad", 3)
    assert not isinstance(cert, CertificateFailure)
    assert cert.exponent == 2  # order 4
    d = json.loads(cert.to_json())
    assert set(d) == {"word", "level", "exponent", "tree"}
    node = d["tree"]
    assert set(node) == {"word", "level", "rule", "exponent", "lambda_length", "children"}


def test_certificate_exponents_match_known_orders():
    assert certify_torsion("ab", 5).exponent == 4
    assert certify_torsion("ac", 4).exponent == 3
    assert certify_torsion("a", 1).exponent == 1


def test_certificate_radius_failure():
    result = certify_torsion("abab", 2)
    assert isinstance(result, CertificateFailure)
    assert result.level == 2


# compact JSON of certify_torsion("abadacab", 9): pins the tree format and shape
ABADACAB_9_JSON = (
    '{"word": "abadacab", "level": 9, "exponent": 4, '
    '"tree": {"word": "abadacab", "level": 9, "rule": "inactive-split", '
    '"exponent": 4, "lambda_length": "1 + 2*L + 0*L^2", '
    '"children": [{"word": "caba", "level": 8, "rule": "inactive-split", '
    '"exponent": 3, "lambda_length": "0 + -1*L + 2*L^2", '
    '"children": [{"word": "ca", "level": 7, "rule": "active-square", '
    '"exponent": 3, "lambda_length": "-1 + -1*L + 2*L^2", '
    '"children": [{"word": "da", "level": 6, "rule": "active-square", '
    '"exponent": 2, "lambda_length": "0 + 3*L + -2*L^2", '
    '"children": [{"word": "b", "level": 5, "rule": "letter-case", '
    '"exponent": 1, "lambda_length": "3 + -2*L + 0*L^2", '
    '"children": []}]}]}, {"word": "ad", "level": 7, '
    '"rule": "active-square", "exponent": 2, '
    '"lambda_length": "0 + 3*L + -2*L^2", "children": [{"word": "b", '
    '"level": 6, "rule": "letter-case", "exponent": 1, '
    '"lambda_length": "3 + -2*L + 0*L^2", "children": []}]}]}, '
    '{"word": "ab", "level": 8, "rule": "active-square", "exponent": 4, '
    '"lambda_length": "1 + 0*L + 0*L^2", "children": [{"word": "ca", '
    '"level": 7, "rule": "active-square", "exponent": 3, '
    '"lambda_length": "-1 + -1*L + 2*L^2", "children": [{"word": "da", '
    '"level": 6, "rule": "active-square", "exponent": 2, '
    '"lambda_length": "0 + 3*L + -2*L^2", "children": [{"word": "b", '
    '"level": 5, "rule": "letter-case", "exponent": 1, '
    '"lambda_length": "3 + -2*L + 0*L^2", "children": []}]}]}]}]}}'
)


def test_certificate_json_is_pinned():
    assert certify_torsion("abadacab", 9).to_json() == ABADACAB_9_JSON


def _tree_depth(node):
    return 1 + max((_tree_depth(c) for c in node.children), default=0)


def _tree_exponent(node):
    """Exponent recomputed from the rules recorded in the tree."""
    kids = [_tree_exponent(c) for c in node.children]
    if node.rule == "inactive-split":
        return max(kids)
    if node.rule == "active-square":
        return kids[0] + 1
    return node.exponent


def test_certificate_tree_agrees_with_certify_exponent():
    pairs = failures = 0
    for n in (10, 12):
        for level in (radius_index(n), radius_index(n) - 3):
            for w in iter_ball_free(n):
                pairs += 1
                cert = certify_torsion(w, level)
                try:
                    expected = certify_exponent(w, level)
                except RadiusViolation as exc:
                    failures += 1
                    assert isinstance(cert, CertificateFailure)
                    assert cert.to_dict() == exc.failure.to_dict()
                    continue
                assert cert.exponent == expected[0]
                assert (_tree_exponent(cert.root), _tree_depth(cert.root)) == expected
                stack = [cert.root]
                while stack:
                    node = stack.pop()
                    assert node.exponent == certify_exponent(node.word, node.level)[0]
                    stack.extend(node.children)
    assert (pairs, failures) == (9704, 4158)


def test_certify_exponent_radius_violation_is_public():
    with pytest.raises(GrigError) as info:
        certify_exponent("abababab", 2)
    assert isinstance(info.value, RadiusViolation)
    assert info.value.failure == certify_torsion("abababab", 2)


def test_certify_exponent_rejects_unreduced_words():
    # bb is the identity and adadd is ada: a class step of the letters as
    # they stand would certify some other element
    for w, level in (("bb", 0), ("adadd", 6)):
        with pytest.raises(PreconditionError, match="needs a reduced word"):
            certify_exponent(w, level)


def test_certify_exponent_takes_an_int_subclass():
    class Level(int):
        pass

    for w, level in (("b", -1), ("ad", 0), ("ab", 3), ("abadacab", 9)):
        assert certify_exponent(w, Level(level)) == certify_exponent(w, level)


def test_verify_nball_reduces_supplied_words():
    # aabab = bab and abbab = b, both inside the 4-ball
    rep = verify_nball_proposition(4, words=["aabab", "abbab"])
    assert rep.ok
    assert rep.to_dict() == verify_nball_proposition(4, words=["bab", "b"]).to_dict()
    assert rep.max_exponent == certify_exponent("bab", rep.level)[0]
    # a letter sequence that is not a string is reduced too
    assert verify_nball_proposition(4, words=[list("aabab"), "b"]).to_dict() == rep.to_dict()


def test_verify_nball_rejects_invalid_letters():
    with pytest.raises(ValueError, match="invalid letter 'x'"):
        verify_nball_proposition(4, words=["abx"])
    with pytest.raises(ValueError, match="invalid letter 'bc'"):
        verify_nball_proposition(4, words=[["bc", "a"]])


def test_class_sweep_matches_the_word_loop():
    # supplied words take the word loop, the oracle of the class sweep
    for n in range(2, 17):
        by_word = verify_nball_proposition(n, words=iter_ball_free(n)).to_dict()
        assert verify_nball_proposition(n).to_dict() == by_word, n


def test_nball_20_is_pinned():
    # the sweep caches only the child classes, not the 9 508 top-level ones
    wreath._class_exponent.cache_clear()
    rep = verify_nball_proposition(20)
    assert wreath._class_exponent.cache_info().currsize == 347
    assert rep.ok
    assert (rep.word_count, rep.max_exponent, rep.max_depth) == (295241, 7, 9)
    histogram = {1: 11795, 2: 32108, 3: 79990, 4: 147068, 5: 17968, 6: 5664, 7: 648}
    assert rep.exponent_histogram == histogram


def test_step_children_are_the_split_of_m_or_its_square():
    # the step hands m, or m.m, to the split kernel without reducing it
    for r, _p, _self_inverse in iter_ball_bracelets(24):
        m = "a" + "a".join(r)
        want = split(m) if len(r) % 2 == 0 else split(m + m)[:1]
        assert wreath._class_step(m, 1)[2] == want, m


def _record_sweep_steps(monkeypatch, level):
    """The top-level steps of a sweep at this level, as they are taken: the
    letter classes through ``_class_step``, the bracelets as the walk hands
    them to ``_class_sweep``.  Each entry is (m, sides), sides None for a
    letter class and the walk's (s0, s1) for a bracelet."""
    steps = []
    real_step, real_walk = wreath._class_step, wreath._bracelet_walk

    def step(m, n):
        if n == level:
            steps.append((m, None))
        return real_step(m, n)

    def walk(n, sections):
        for r, p, self_inverse, s0, s1 in real_walk(n, sections):
            steps.append(("a" + "a".join(r), (s0, s1)))
            yield r, p, self_inverse, s0, s1

    monkeypatch.setattr(wreath, "_class_step", step)
    monkeypatch.setattr(wreath, "_bracelet_walk", walk)
    return steps


def test_sweep_sides_are_the_class_step_children(monkeypatch):
    """The sweep takes a bracelet's children from the walk, without m.  The
    walk's sides are the split of m letter by letter; for k even they are
    the children of ``_class_step(m, n)``, and for k odd the one child, side
    0 of the split of m.m, is s0 joined with s1.  The 20-ball's bracelets are
    every bracelet of length <= 10, and their children are 1 003 words."""
    level = radius_index(20)
    steps = _record_sweep_steps(monkeypatch, level)
    assert verify_nball_proposition(20).ok
    bracelets = [(m, sides) for m, sides in steps if sides is not None]
    assert len(bracelets) == 5296
    assert {m[1::2] for m, _sides in bracelets} == {r for k in range(1, 11) for r, _p, _s in _bracelets(k)}
    children = set()
    for m, sides in bracelets:
        assert sides == _split_by_letters(m), m
        kids = sides if a_parity(m) == 0 else (_join(*sides),)
        assert kids == wreath._class_step(m, level)[2], m
        if a_parity(m):
            assert kids == _split_by_letters(m + m)[:1], m
        children.update(kids)
    assert len(children) == 1003


def test_sweep_certifies_each_child_word_once(monkeypatch):
    # 9 123 children of the 5 301 classes, 1 003 of them distinct words,
    # each given once to the child step ``_certify``
    level = radius_index(20)
    children = []
    real_certify = wreath._certify

    def certify(w, n):
        if n == level - 1:
            children.append(w)
        return real_certify(w, n)

    wreath._class_exponent.cache_clear()
    top = _record_sweep_steps(monkeypatch, level)
    monkeypatch.setattr(wreath, "_certify", certify)
    assert verify_nball_proposition(20).ok
    assert len(top) == 5301
    assert len(children) == len(set(children)) == 1003


@pytest.mark.parametrize("counts, below", [((6, 6, 0, 0), 1), ((5, 0, 5, 0), 2)], ids=["class", "child"])
def test_sweep_hands_over_when_one_radius_test_fails(monkeypatch, counts, below):
    """One count vector made to fail the radius test of the 12-ball's words
    (radius level - 1) or of their children (level - 2): the sweep must
    hand over to the word loop, whatever children it has kept.  The words'
    vector is the heaviest one, (6, 6, 0, 0), which the sweep tests for the
    whole ball; with the real weights any failing vector makes it fail.  A
    cached class exponent would skip the test, so the cache starts cold."""
    level = radius_index(12)
    wreath._class_exponent.cache_clear()
    real = wreath._in_open_ball
    key = (*counts, level - below)
    monkeypatch.setattr(wreath, "_in_open_ball", lambda *args: args != key and real(*args))
    rep = verify_nball_proposition(12)
    assert rep.failures
    assert rep.to_dict() == verify_nball_proposition(12, words=iter_ball_free(12)).to_dict()


def _reduced_count_vectors(n):
    """The letter counts (na, nb, nc, nd) of the reduced words of length
    <= n: a alternates with t free letters of {b, c, d}, so na is t - 1,
    t or t + 1."""
    for t in range((n + 1) // 2 + 1):
        for na in range(max(t - 1, 0), min(t + 1, n - t) + 1):
            for nb in range(t + 1):
                for nc in range(t - nb + 1):
                    yield na, nb, nc, t - nb - nc


def test_the_heaviest_word_decides_the_radius_test(monkeypatch):
    """The sweep makes one radius test for its whole ball, on the count
    vector it reads as the heaviest; that vector is a reduced word's of the
    ball, and no reduced word of the ball weighs more, exactly in Q(L).  A
    failing test hands over before the walk starts."""
    tested = []

    def record(*args):
        tested.append(args[:4])
        return False

    monkeypatch.setattr(wreath, "_in_open_ball", record)
    for n in range(41):
        tested.clear()
        assert wreath._class_sweep(n, 1) is None
        (heaviest,) = tested
        vectors = set(_reduced_count_vectors(n))
        assert heaviest in vectors, n
        top = count_triple(*heaviest)
        for counts in vectors:
            assert triple_sign(*(x - y for x, y in zip(count_triple(*counts), top))) <= 0, (n, counts)


def test_radius_shortcut_agrees_with_the_exact_test(monkeypatch):
    """``_in_open_ball`` answers True without building L^r once the letter
    count l makes 5(l - 1) <= r.  Wherever it skips the exact comparison
    (seen as no call to it), the comparison must agree, for l, r <= 60:
    every count vector of up to 16 letters, and the heaviest of more, all
    b, as |b| is the greatest weight."""
    compared = []
    monkeypatch.setattr(wreath, "triple_compare_power", lambda triple, r: compared.append(r) or 1)
    skipped = 0
    for letters in range(61):
        vectors = _count_vectors(letters) if letters <= 16 else [(0, letters, 0, 0)]
        for counts in vectors:
            for r in range(61):
                compared.clear()
                got = wreath._in_open_ball.__wrapped__(*counts, r)
                if not compared:
                    skipped += 1
                    assert got and triple_compare_power(count_triple(*counts), r) < 0, (counts, r)
    # the C(l + 3, 3) vectors of l letters skip it for 5(l - 1) <= r <= 60
    assert skipped == sum(math.comb(k + 3, 3) * (61 - max(5 * (k - 1), 0)) for k in range(14))


def _count_vectors(k):
    # every (na, nb, nc, nd) of k letters
    for na in range(k + 1):
        for nb in range(k - na + 1):
            for nc in range(k - na - nb + 1):
                yield na, nb, nc, k - na - nb - nc


def test_a_large_level_is_certified_at_once():
    # the radius tests of a level in the millions take the shortcut
    start = time.perf_counter()
    cert = certify_torsion("ab", 3_000_000)
    assert time.perf_counter() - start < 1
    assert cert.exponent == certify_torsion("ab", 20).exponent == 4


@pytest.mark.parametrize("letter, image", [("d", ("", "c")), ("b", ("a", "d"))], ids=["d=(1,c)", "b=(a,d)"])
def test_sweep_follows_a_patched_image(monkeypatch, letter, image):
    """The walk reads its sections when a sweep starts, so a patched image
    reaches its sides: each sweep matches the word loop, which splits every
    word through ``_class_step``.  Both patched groups certify these balls,
    so every class goes through the walk's children."""
    monkeypatch.setitem(wreath._SPLIT_IMAGE, letter, image)
    for n in (6, 10, 12):
        rep = verify_nball_proposition(n)
        assert rep.ok, n
        assert rep.to_dict() == verify_nball_proposition(n, words=iter_ball_free(n)).to_dict(), n


# SHA-256 of the compact JSON of the exhaustive reports for radii 2..22,
# from before the sweep kept child steps per sweep and made one radius test
NBALL_REPORTS_SHA256 = "2a0fdb51b8f984dbfc2f5b029378fb3978365fedae558dae3814879d1b2bd3f7"


def test_nball_reports_to_22_are_pinned():
    reports = [verify_nball_proposition(n).to_dict() for n in range(2, 23)]
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == NBALL_REPORTS_SHA256


def test_a_class_and_its_inverse_certify_alike():
    level = radius_index(16)
    for m in iter_ball_classes(16):
        assert certify_exponent(m, level) == certify_exponent(min_conjugate(invert(m)), level), m


def test_sweep_steps_once_per_pair_of_inverse_classes(monkeypatch):
    # 9 508 classes, 1 094 of them their own inverse: (9 508 + 1 094) / 2,
    # the 5 letter classes and 5 296 bracelets
    steps = _record_sweep_steps(monkeypatch, radius_index(20))
    assert verify_nball_proposition(20).ok
    top = [m for m, _raw in steps]
    assert len(top) == len(set(top)) == 5301
    assert all(m <= min_conjugate(invert(m)) for m in top)


def test_class_orders_within_their_certificates_on_the_20_ball():
    # orders come from the limit group, exponents from level i(20)
    level = radius_index(20)
    classes = tight = 0
    for m in iter_ball_classes(20):
        bound = 2 ** certify_exponent(m, level)[0]
        assert order(m) <= bound, m
        classes += 1
        tight += order(m) == bound
    assert (classes, tight) == (9508, 9436)


def test_levels_below_minus_one_are_rejected():
    # level -1 is the last level the ball argument defines
    for level in (-5, -2):
        with pytest.raises(ValueError, match="^level must be >= -1$"):
            certify_exponent("ad", level)
    with pytest.raises(ValueError, match="level must be >= -1"):
        certify_torsion("ad", -5)
    with pytest.raises(ValueError, match="level must be >= -1"):
        verify_nball_proposition(5, level=-7)
    # checked up front, not only when a word reaches the step
    with pytest.raises(ValueError, match="level must be >= -1"):
        verify_nball_proposition(5, words=[], level=-2)
    assert verify_nball_proposition(2, level=-1).word_count == 11


@pytest.mark.parametrize(
    "call",
    [
        lambda level: verify_nball_proposition(5, level=level),
        lambda level: verify_nball_proposition(5, words=[], level=level),
        lambda level: certify_torsion("ab", level),
        lambda level: certify_exponent("ab", level),
    ],
    ids=["sweep", "words", "certify_torsion", "certify_exponent"],
)
@pytest.mark.parametrize("level", [2.5, True, "2"])
def test_levels_that_are_not_ints_are_rejected(call, level):
    # a bool is an int to Python, but True would run as level 1
    with pytest.raises(TypeError, match=f"^level must be an int, not {type(level).__name__}$"):
        call(level)


@pytest.mark.parametrize("words", [None, []], ids=["sweep", "words"])
@pytest.mark.parametrize("level", [None, 3])
@pytest.mark.parametrize("n", [5.5, True, "5"])
def test_radii_that_are_not_ints_are_rejected(n, level, words):
    # True would run as the 1-ball
    with pytest.raises(TypeError, match="radius must be an int"):
        verify_nball_proposition(n, words=words, level=level)


@pytest.mark.parametrize("words", [None, []], ids=["sweep", "words"])
def test_negative_radii_are_rejected(words):
    with pytest.raises(ValueError, match="radius must be >= 0"):
        verify_nball_proposition(-1, words=words, level=3)
    with pytest.raises(ValueError, match="need n >= 2"):
        verify_nball_proposition(-1, words=words)
    assert verify_nball_proposition(0, words=words, level=3).ok


# SHA-256 of the compact JSON of every NBallReport below, captured before
# certification was keyed on conjugacy classes; 44 118 failures, each naming
# the word that left the ball rather than its minimal conjugate
SUBLEVEL_REPORTS_SHA256 = "ba2cb9a093e6f04d0546f4d2b9f97394d1706db8b79084a1dabd2f918ac7c594"


def test_sublevel_failure_output_is_pinned():
    reports = [
        verify_nball_proposition(n, level=level).to_dict()
        for n in (2, 5, 10, 12)
        for level in range(-1, radius_index(n) + 1)
    ]
    assert sum(len(r["failures"]) for r in reports) == 44118
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SUBLEVEL_REPORTS_SHA256


def test_exponent_memo_is_keyed_by_minimal_conjugates(monkeypatch):
    """Word by word over the 12-ball, each (class, level) pair is computed
    once, keyed by its minimal conjugate: at the top level that is one step
    per conjugacy class of the ball, not one per word."""
    steps = []
    real = wreath._class_step

    def counted(m, n):
        steps.append((m, n))
        return real(m, n)

    wreath._class_exponent.cache_clear()
    monkeypatch.setattr(wreath, "_class_step", counted)
    rep = verify_nball_proposition(12, words=iter_ball_free(12))
    assert rep.ok and rep.word_count == 3641
    assert len(steps) == len(set(steps))
    assert all(min_conjugate(m) == m for m, _level in steps)
    level = radius_index(12)
    assert sum(1 for _m, lv in steps if lv == level) == sum(1 for _ in iter_ball_classes(12)) == 230


def test_order_guard_stops_a_cycle(capsys, monkeypatch):
    """A class whose step leads back to itself is not shorter, so it trips
    the guard, and nothing is cached for it."""
    from grigorchuk.cli import main

    wreath._order.cache_clear()
    m = min_conjugate("abacadac")
    real = wreath._class_step
    monkeypatch.setattr(
        wreath, "_class_step", lambda w, n: ("inactive-split", 0, (w,)) if w == m else real(w, n)
    )
    with pytest.raises(CapExceeded, match="recursion guard") as info:
        order("abacadac")
    assert info.value.partial == (m, m)
    assert main(["order", "abacadac"]) == 3
    assert "recursion guard" in capsys.readouterr().err
    assert wreath._order.cache_info().currsize == 0


def test_order_guard_bounds_the_depth(monkeypatch):
    """A step to a class that is not shorter trips the guard at once, so no
    chain of classes grows."""
    wreath._order.cache_clear()
    monkeypatch.setattr(wreath, "_class_step", lambda w, n: ("inactive-split", 0, (w + "ab",)))
    with pytest.raises(CapExceeded) as info:
        order("ab")
    assert info.value.partial == ("ab", "abab")
    assert wreath._order.cache_info().currsize == 0


def test_verify_nball_small():
    rep = verify_nball_proposition(2)
    assert rep.ok
    assert rep.level == 2
    assert rep.word_count == 11
    assert rep.max_exponent <= rep.level + 2


def test_verify_nball_5():
    rep = verify_nball_proposition(5)
    assert rep.ok
    assert rep.level == 6
    assert rep.word_count == 77


@given(reduced_words(max_size=10))
@settings(max_examples=40)
def test_certificate_exponent_bounds_the_order(w):
    from grigorchuk.cubic import radius_index

    n = radius_index(max(len(w), 2))
    cert = certify_torsion(w, n)
    if isinstance(cert, CertificateFailure):
        return
    # 2^exponent kills w at this level, hence in the limit group
    assert order(w) <= 2**cert.exponent
