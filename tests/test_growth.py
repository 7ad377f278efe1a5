import hashlib
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import reduced_words
from grigorchuk import cli, growth
from grigorchuk.errors import CapExceeded
from grigorchuk.permgrp import closure, cyclic, dihedral
from grigorchuk.presentations import index_bounds
from grigorchuk.growth import (
    GrowthTable,
    _PureEquality,
    _SignatureEquality,
    ball_free_product,
    ball_grigorchuk,
    free_sphere_sizes,
    growth_table_free,
    iter_spheres,
)
from grigorchuk.words import (
    FOLLOWERS,
    LETTERS,
    a_parity,
    invert,
    is_reduced,
    iter_ball_free,
    multiply,
    reduce_word,
)
from grigorchuk.wreath import is_trivial, level_action, split

RELATORS = ["ad" * 4, "ac" * 8, "ab" * 16]


@st.composite
def word_pairs(draw, max_size=30, always_equal=False):
    """(u, v) with v = u in the group half of the time (or always): a cyclic
    rotation of a relator inserted anywhere into u."""
    u = draw(reduced_words(max_size=max_size))
    if always_equal or draw(st.booleans()):
        r = draw(st.sampled_from(RELATORS))
        j = draw(st.integers(0, len(r) - 1))
        i = draw(st.integers(0, len(u)))
        return u, reduce_word(u[:i] + r[j:] + r[:j] + u[i:])
    return u, draw(reduced_words(max_size=max_size))


def test_free_sphere_recurrence():
    spheres = free_sphere_sizes(8)
    assert spheres[:4] == [1, 4, 6, 12]
    a, b = 1, 3
    for k in range(2, 9):
        a, b = b, 3 * a
        assert spheres[k] == a + b


def test_free_ball_closed_counts():
    assert [ball_free_product(n) for n in range(6)] == [1, 5, 11, 23, 41, 77]


def test_grigorchuk_ball_counts():
    table = ball_grigorchuk(16)
    assert table.ball_sizes() == [
        1, 5, 11, 23, 40, 68, 108, 176, 271, 427, 643, 999, 1487, 2259, 3313, 4973, 7213
    ]
    assert table.complete


def test_pipelines_agree():
    sig = ball_grigorchuk(16, use_signatures=True)
    pure = ball_grigorchuk(16, use_signatures=False)
    assert sig.ball_sizes() == pure.ball_sizes()
    assert list(iter_spheres(16)) == list(iter_spheres(16, use_signatures=False))


def test_grigorchuk_spheres_pinned_to_radius_24():
    # captured from the string-keyed BFS that the triple arithmetic replaced
    table = ball_grigorchuk(24)
    assert [r.sphere for r in table.rows] == [
        1, 4, 6, 12, 17, 28, 40, 68, 95, 156, 216, 356, 488, 772, 1054, 1660,
        2240, 3448, 4642, 7128, 9518, 14392, 19186, 28984, 38237,
    ]
    # the spheres of iter_spheres(20), the first 21 of the radius-24 BFS
    text = "\n".join(" ".join(sphere) for sphere in iter_spheres(20))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f1c78075c0a01d05bd74d163480c1f9a83875895b264fb0b13688ccca1817c68"
    )


def test_grigorchuk_ball_below_free_ball():
    table = ball_grigorchuk(20)
    assert len(table.rows) == 21
    for row in table.rows:
        assert row.ball <= ball_free_product(row.radius)


@given(word_pairs())
@example(("adadadad", ""))
@example(("b", "badadadad"))
@example(("", "a"))
@example(("b", "aba"))
@example(("d", "ada"))
def test_canonical_key_decides_equality(pair):
    u, v = pair
    eq = _SignatureEquality()
    assert (eq.key(u) == eq.key(v)) == is_trivial(multiply(invert(u), v))


@given(word_pairs(max_size=40, always_equal=True))
@example(("adadadad", ""))
@example(("b", "badadadad"))
@example(("a", "dadadad"))
def test_key_triple_is_the_split(pair):
    # the sections come from wreath.split, not from the triple arithmetic
    eq = _SignatureEquality()
    for w in pair:
        p = a_parity(w)
        w0, w1 = split(multiply(w, "a") if p else w)
        assert eq.triples[eq.key(w)] == (p, eq.key(w0), eq.key(w1))
    # v is u with a relator inserted
    u, v = pair
    assert eq.key(u) == eq.key(v)


def test_packed_bfs_keys_are_the_split():
    # every key the BFS computes for the 10-ball, unpacked, against the
    # sections that wreath.split gives its word
    eq, seen = _SignatureEquality(), 0
    sphere, keys = [""], [eq.identity]
    for _ in range(10):
        sphere, keys = eq.extend(sphere, keys, sys.maxsize)
        for w, key in zip(sphere, keys):
            p = a_parity(w)
            w0, w1 = split(multiply(w, "a") if p else w)
            assert (key & 1, key >> 1 & 0xFFFFFFFF, key >> 33) == (p, eq.key(w0), eq.key(w1))
            seen += 1
    assert seen + 1 == 643


@pytest.mark.parametrize("use_signatures", [True, False], ids=["signatures", "oracle"])
def test_word_free_path_cuts_like_the_word_path(use_signatures):
    # the 6-ball has 108 elements, so budget 108 completes it
    for budget in range(1, 110):
        cut, complete = [], True
        try:
            for sphere in iter_spheres(6, use_signatures, budget):
                cut.append(sphere)
        except CapExceeded:
            complete = False
        table = ball_grigorchuk(6, use_signatures, budget)
        assert [r.sphere for r in table.rows] == [len(s) for s in cut], budget
        assert table.complete == complete == (budget >= 108), budget


@given(word_pairs())
@example(("adadadad", ""))
@example(("b", "aba"))
def test_bucket_key_is_tree_action(pair):
    u, v = pair
    eq = _PureEquality()
    assert eq.key(u) == bytes(level_action(invert(u), 5))
    assert eq.key(v) == bytes(level_action(invert(v), 5))
    if is_trivial(multiply(invert(u), v)):
        assert eq.key(u) == eq.key(v)


@given(reduced_words(max_size=30), st.sampled_from(LETTERS))
@example("", "a")
@example("a", "a")
@example("ab", "d")
@example("ab", "a")
def test_skip_exactly_the_reducing_candidates(rep, g):
    follows = g in FOLLOWERS[rep[-1:]]
    assert follows == is_reduced(rep + g)
    if not follows:
        assert len(multiply(rep, g)) < len(rep) + 1


def test_nucleus_seeds_are_pinned():
    eq = _SignatureEquality()
    # 1, a = (1, 1)·a, b = (a, c), c = (a, d), d = (1, b) as ids 0..4
    assert eq.triples == [(0, 0, 0), (1, 0, 0), (0, 1, 3), (0, 1, 4), (0, 0, 2)]
    # 1·x = x, x·x = 1 and x·y = the third of b, c, d
    # rows per letter, indexed by id; -1 is a product not yet known
    assert eq.rows == {
        "a": [1, 0, -1, -1, -1],
        "b": [2, -1, 0, 4, 3],
        "c": [3, -1, 4, 0, 2],
        "d": [4, -1, 3, 2, 0],
    }


def test_bucket_depth_fits_a_byte():
    # a translate table has 256 entries, one per byte value
    assert 1 << growth._BUCKET_DEPTH <= 256
    assert all(len(t) == 256 for t in _PureEquality().tables.values())


def test_canonical_key_nucleus():
    eq = _SignatureEquality()
    nucleus = [eq.key(w) for w in ["", "a", "b", "c", "d"]]
    assert len(set(nucleus)) == 5
    # a relator reduces to the identity; the conjugates aba, aca, ada of
    # b, c, d split to the swapped sections of the nucleus triples
    assert eq.key("adadadad") == eq.key("acacacacacacacac") == nucleus[0]
    assert eq.key("badadadad") == nucleus[2]
    assert len({eq.key(w) for w in ["aba", "aca", "ada"]} | set(nucleus)) == 8


def test_representatives_are_distinct_elements():
    reps = [w for sphere in iter_spheres(4) for w in sphere]
    assert all(is_reduced(w) for w in reps)
    for i, u in enumerate(reps):
        for v in reps[i + 1:]:
            assert not is_trivial(multiply(invert(u), v))


def test_budget_marks_incomplete():
    table = ball_grigorchuk(8, budget=30)
    assert not table.complete
    assert table.ball_sizes()[-1] <= 30


@pytest.mark.parametrize(
    "budget, maxn, spheres, complete",
    [
        (1, 2, [1, 0], False),
        (5, 2, [1, 4, 0], False),
        (11, 3, [1, 4, 6, 0], False),
        (23, 3, [1, 4, 6, 12], True),
        (30, 8, [1, 4, 6, 12, 7], False),
    ],
)
def test_budget_edge_cases(budget, maxn, spheres, complete):
    # the search counts at most budget elements: budget 11 holds the whole
    # 2-ball, and the first element of radius 3 is one too many, so radius
    # 3 is cut to none of its elements
    table = ball_grigorchuk(maxn, budget=budget)
    assert [r.sphere for r in table.rows] == spheres
    assert table.complete == complete
    cut, ran_out = [], False
    try:
        for sphere in iter_spheres(maxn, budget=budget):
            cut.append(sphere)
    except CapExceeded:
        ran_out = True
    assert ran_out != complete
    full = list(iter_spheres(maxn))
    assert cut[:-1] == full[: len(spheres) - 1]
    assert cut[-1] == full[len(spheres) - 1][: spheres[-1]]


@pytest.mark.parametrize("use_signatures", [True, False], ids=["signatures", "oracle"])
def test_budget_of_the_ball_size_completes_it(use_signatures):
    sizes = ball_grigorchuk(10).ball_sizes()
    for k, size in enumerate(sizes):
        table = ball_grigorchuk(k, use_signatures, budget=size)
        assert table.complete, k
        assert table.ball_sizes() == sizes[: k + 1], k


@pytest.mark.parametrize("maxn, budget", [(-1, None), (3, 0)])
def test_iter_spheres_rejects_on_first_next(maxn, budget):
    spheres = iter_spheres(maxn, budget=budget)
    with pytest.raises(ValueError):
        next(spheres)


def test_iter_spheres_yields_partial_sphere_then_raises():
    full = list(iter_spheres(4))
    spheres = iter_spheres(8, budget=30)
    assert [next(spheres) for _ in range(4)] == full[:4]
    # 23 elements fill the 3-ball; the 7 more of radius 4 reach the budget
    assert next(spheres) == full[4][:7]
    with pytest.raises(CapExceeded):
        next(spheres)


def test_growth_table_keeps_no_words():
    assert list(GrowthTable._fields) == ["rows", "complete"]


def test_entropy_enclosures_bracket_and_decrease():
    series = [row.entropy_enclosure for row in growth_table_free(8).rows[1:]]
    for lo, hi in series:
        assert lo < hi
        assert hi - lo < Fraction(1, 10**6)
    # the tail decreases toward log of the dominant root
    mids = [(lo + hi) / 2 for lo, hi in series]
    assert all(x > y for x, y in zip(mids[1:], mids[2:]))


def test_entropy_series_grig_below_free():
    free = [row.entropy_enclosure for row in growth_table_free(6).rows[1:]]
    grig = [row.entropy_enclosure for row in ball_grigorchuk(6).rows[1:]]
    for (_, ghi), (flo, _) in zip(grig, free):
        assert ghi <= flo or ghi - flo < Fraction(1, 10**6)


def test_growth_table_free_rows():
    t = growth_table_free(5)
    assert [r.sphere for r in t.rows] == [1, 4, 6, 12, 18, 36]
    assert [r.ball for r in t.rows] == [1, 5, 11, 23, 41, 77]


def _cmd_ball_with_cap(cap):
    """Run ``grig ball 3`` with ``cap`` set past the parser, as a library
    caller of cmd_ball may."""
    args = cli.build_parser().parse_args(["ball", "3"])
    args.cap = cap
    return cli.cmd_ball(args)


@pytest.mark.parametrize("value", [2.5, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "build",
    [
        ball_grigorchuk,
        lambda v: ball_grigorchuk(4, budget=v),
        lambda v: list(iter_ball_free(v)),
        growth_table_free,
        _cmd_ball_with_cap,
        lambda v: closure([(1, 0)], cap=v),
        lambda v: closure([], degree=v),
        cyclic,
        dihedral,
        index_bounds,
    ],
    ids=[
        "radius", "budget", "free-ball", "free-table", "free-cap", "closure-cap", "closure-degree", "cyclic", "dihedral", "index-bounds",
    ],
)
def test_sizes_take_only_ints(build, value):
    """A radius, budget, cap or level that is not an int is a TypeError,
    checked before it is compared or used."""
    with pytest.raises(TypeError, match=f"must be an int, not {type(value).__name__}"):
        build(value)
