import random
from itertools import combinations, permutations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from grigorchuk import reports
from grigorchuk.cosets import (
    CosetTable,
    _columns,
    abelian_invariants,
    close_normally,
    maps_onto,
    quotient_group,
    reidemeister_schreier,
    todd_coxeter,
)
from grigorchuk.permgrp import z2_times_d8
from grigorchuk.presentations import (
    Presentation,
    gamma0_coxeter_presentation,
    gamma_presentation,
    xi_generators,
)
from grigorchuk.snf import smith_normal_form


def test_todd_coxeter_trivial_subgroup_of_v4():
    p = Presentation.from_strings("xy", ["xx", "yy", "xyxy"])
    t = todd_coxeter(p)
    assert t.status == "complete"
    assert t.index == 4
    assert t.verify()


def test_todd_coxeter_subgroup_index():
    p = Presentation.from_strings("xy", ["xx", "yy", "xyxyxyxy"])  # D8
    t = todd_coxeter(p, ["x"])
    assert t.index == 4


def test_index_4_quotient_of_level_0():
    p = close_normally(gamma0_coxeter_presentation(), ["ab"])
    t = todd_coxeter(p)
    assert t.status == "complete"
    assert t.index == 4
    assert t.verify()


def test_index_16_quotient_is_z2_times_d8():
    p = close_normally(gamma0_coxeter_presentation(), ["abab"])
    t = todd_coxeter(p)
    assert t.status == "complete" and t.verify()
    target = z2_times_d8()
    assert t.index == target.order == 16
    # an onto map between groups of one order
    assert maps_onto(p, reports._Z2_D8_IMAGES, target)


@pytest.mark.parametrize(
    "images, message",
    [
        ({"a": (1, 0, 2, 3, 4, 5), "b": (0, 1, 2, 3, 5, 4)}, "no image for generator 'd'"),
        ({**reports._Z2_D8_IMAGES, "b": (1, 0, 3, 2)}, "not a permutation of degree 6"),
        ({**reports._Z2_D8_IMAGES, "d": (1, 1, 2, 3, 4, 5)}, "not a permutation of degree 6"),
    ],
    ids=["missing-generator", "four-point-image", "non-permutation"],
)
def test_maps_onto_rejects_bad_images(images, message):
    """A missing generator leaked KeyError, and an image on the wrong
    points was read as a failed homomorphism (False)."""
    p = close_normally(gamma0_coxeter_presentation(), ["abab"])
    with pytest.raises(ValueError, match=message):
        maps_onto(p, images, z2_times_d8())


def test_parity_kernel_has_index_2():
    t = todd_coxeter(gamma_presentation(0), xi_generators())
    assert t.status == "complete"
    assert t.index == 2
    assert t.verify()


def test_cap_overflow_reports_partial_state():
    # the free product itself is infinite, so enumeration must overflow
    t = todd_coxeter(gamma_presentation(-1), cap=200)
    assert t.status == "overflowed"
    assert t.index > 0
    for read in (quotient_group, lambda t: reidemeister_schreier(t.presentation, t)):
        with pytest.raises(ValueError, match="coset table is not complete"):
            read(t)


def test_subgroup_word_with_undeclared_generator_is_rejected():
    with pytest.raises(ValueError, match="subgroup word uses undeclared generator 'c'"):
        todd_coxeter(gamma0_coxeter_presentation(), ["ac"])


def test_subgroup_word_with_a_bad_exponent_is_rejected():
    with pytest.raises(ValueError, match="subgroup word uses exponent 2"):
        todd_coxeter(gamma0_coxeter_presentation(), [(("a", 1), ("b", 2))])


def test_relator_with_a_bad_exponent_is_rejected():
    # the presentation rejects its own relators as it is built
    with pytest.raises(ValueError, match="relator uses exponent 2"):
        todd_coxeter(Presentation(("x",), ((("x", 2), ("x", 1)),)))
    with pytest.raises(ValueError, match="relator uses undeclared generator 'y'"):
        todd_coxeter(Presentation(("x",), ((("y", 1),),)))


def test_a_generator_in_no_relator_is_a_free_factor():
    # <x, y | xx> is C2 * Z: every y entry must be defined, so the trivial
    # subgroup overflows, while the normal closure of y has index 2
    p = Presentation.from_strings("xy", ["xx"])
    assert todd_coxeter(p, cap=100).status == "overflowed"
    t = todd_coxeter(p, ["y", "xyx"], cap=100)
    assert (t.status, t.index) == ("complete", 2)
    assert t.verify()


def _random_presentation(rng):
    """2 or 3 generators and up to 4 relators of 2 to 8 signed letters; a
    generator may occur in no relator."""
    gens = "xyz"[: rng.choice((2, 3))]
    letters = [(g, e) for g in gens for e in (1, -1)]
    relators = tuple(
        tuple(rng.choice(letters) for _ in range(rng.randint(2, 8)))
        for _ in range(rng.randint(len(gens), 4))
    )
    return Presentation(tuple(gens), relators), letters


def test_random_presentations_give_verified_tables():
    rng = random.Random(2025)
    complete = 0
    for _ in range(150):
        p, letters = _random_presentation(rng)
        subgroup = []
        if rng.random() < 0.3:
            subgroup.append(tuple(rng.choice(letters) for _ in range(rng.randint(1, 3))))
        t = todd_coxeter(p, subgroup, cap=2000)
        if t.status != "complete":
            continue
        complete += 1
        assert all(-1 not in row for row in t.rows)
        assert t.verify()
        if not subgroup:
            # the regular representation of the group
            assert quotient_group(t).order == t.index
    assert complete >= 100


def test_relator_order_independence():
    base = gamma0_coxeter_presentation()
    p1 = close_normally(base, ["abab"])
    p2 = Presentation(p1.generators, tuple(reversed(p1.relators)))
    assert todd_coxeter(p1).index == todd_coxeter(p2).index == 16


def test_reidemeister_schreier_h0():
    # enumerate the quotient by the normal closure of (ab)^2 over the
    # trivial subgroup; the same table, read against the unquotiented
    # presentation, is the coset table of that normal closure
    base = gamma0_coxeter_presentation()
    t = todd_coxeter(close_normally(base, ["abab"]))
    sub = reidemeister_schreier(base, t)
    inv = abelian_invariants(sub)
    assert inv.free_rank == 3
    assert inv.divisors == ()
    assert str(inv) == "Z x Z x Z"


@pytest.mark.parametrize(
    "relators",
    [
        # y^-1 rewrites by the inverse step; the lone-generator relators go
        # by the Tietze removal
        ["x y^-1", "x x x x"],
        # x x^-1 is not freely reduced, so its rewrite cancels
        ["x x^-1 y", "x x x x"],
    ],
)
def test_reidemeister_schreier_signed_generators(relators):
    p = Presentation.from_text("gens: x y\n" + "".join(f"rel: {r}\n" for r in relators))
    t = todd_coxeter(p, ["xx"])
    assert t.status == "complete" and t.index == 2
    sub = reidemeister_schreier(p, t)
    assert sub.to_text() == "gens: x1\nrel: x1 x1\nrel: x1 x1\n"
    assert str(abelian_invariants(sub)) == "Z/2"


def test_abelianizations_of_the_tower():
    for n in (-1, 0):
        inv = abelian_invariants(gamma_presentation(n))
        assert inv.divisors == (2, 2, 2)
        assert inv.free_rank == 0
        assert str(inv) == "Z/2 x Z/2 x Z/2"


def test_abelian_invariants_free_group():
    p = Presentation(("x", "y"), ())
    inv = abelian_invariants(p)
    assert inv.free_rank == 2 and inv.divisors == ()


@pytest.mark.parametrize(
    "word, level, invariants, index, shape",
    [
        ("abab", 1, "Z/2 x Z x Z", 16, (128, 49)),
        ("abab", 2, "Z/2 x Z/4 x Z/8", 16, (160, 49)),
        ("adad", 1, "Z/2 x Z/2 x Z/2 x Z/2 x Z/2 x Z/2 x Z/2", 32, (256, 97)),
        ("abababab", 1, "Z x Z x Z x Z x Z x Z", 256, (2048, 769)),
    ],
)
def test_normal_closure_abelianizations(word, level, invariants, index, shape):
    base = gamma_presentation(level)
    t = todd_coxeter(close_normally(base, [word]))
    assert t.status == "complete" and t.index == index
    sub = reidemeister_schreier(base, t)
    assert (len(sub.relators), len(sub.generators)) == shape
    assert str(abelian_invariants(sub)) == invariants


def sparse(A):
    return [{j: x for j, x in enumerate(row) if x} for row in A]


def test_smith_normal_form_known():
    assert smith_normal_form(sparse([[2, 0], [0, 3]])) == [1, 6]
    assert smith_normal_form(sparse([[6, 0], [0, 10]])) == [2, 30]
    assert smith_normal_form([]) == []


matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def leibniz_det(M):
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[k] for i in range(n) for k in range(i + 1, n))
        total += (-1) ** inversions * prod(M[i][perm[i]] for i in range(n))
    return total


def invariant_factors_by_minors(A):
    """d_k = D_k / D_(k-1), where D_k is the gcd of the k x k minors."""
    D = [1]
    for k in range(1, min(len(A), len(A[0])) + 1):
        g = 0
        for rows in combinations(range(len(A)), k):
            for cols in combinations(range(len(A[0])), k):
                g = gcd(g, leibniz_det([[A[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        D.append(g)
    return [D[k] // D[k - 1] for k in range(1, len(D))]


@given(matrices)
@settings(max_examples=60, deadline=None)
def test_smith_normal_form_matches_determinantal_divisors(A):
    assert smith_normal_form(sparse(A)) == invariant_factors_by_minors(A)


def test_coset_table_trace():
    p = Presentation.from_strings("xy", ["xx", "yy", "xyxy"])
    t = todd_coxeter(p)
    rel = p.relators[2]
    for c in range(t.index):
        assert t.trace(c, rel) == c


def test_trace_stops_at_an_undefined_entry():
    """An overflowed table marks undefined entries -1; a trace that meets
    one ends there, so no relator closes through it and ``verify`` fails.
    At cap 3 the relator abab from coset 0 runs 0 -> 1 -> -1."""
    p = close_normally(gamma0_coxeter_presentation(), ["abab"])
    abab = p.relators[-1]
    columns = _columns(p.generators)
    for cap in range(1, 13):
        t = todd_coxeter(p, cap=cap)
        assert t.status == "overflowed"
        assert not t.verify()
        for rel in p.relators:
            for c in range(t.index):
                walk = c
                for letter in rel:
                    walk = t.rows[walk][columns[letter]]
                    if walk < 0:
                        break
                assert t.trace(c, rel) == walk
    assert todd_coxeter(p, cap=3).trace(0, abab) == -1


@pytest.mark.parametrize(
    "coset, word, error",
    [
        (-1, (("a", 1),), ValueError),  # used to wrap round to row 3
        (-4, (), ValueError),  # used to return -4
        (4, (), ValueError),  # used to raise IndexError
        (2.5, (), TypeError),
        (True, (), TypeError),
        (0, (("x", 1),), ValueError),  # a letter not in the presentation
        (0, "ab", ValueError),  # a str word: its letters are not signed generators
    ],
)
def test_trace_rejects_a_coset_off_the_table_or_a_foreign_letter(coset, word, error):
    t = todd_coxeter(Presentation.from_strings("ab", ["aa", "bb", "abab"]))
    assert t.index == 4
    with pytest.raises(error):
        t.trace(coset, word)


_V4 = Presentation.from_strings("ab", ["aa", "bb", "abab"])


@pytest.mark.parametrize(
    "presentation, subgroup_words, rows, status, error, message",
    [
        (None, (), [[0, 0, 0, 0]], "complete", TypeError, "presentation must be"),
        (_V4, ((("x", 1),),), [[0, 0, 0, 0]], "complete", ValueError, "undeclared generator"),
        (_V4, (), [], "complete", ValueError, "at least the coset 0"),
        (_V4, (), [[0, 0, 0]], "complete", ValueError, "3 entries"),
        (_V4, (), None, "complete", TypeError, "has no len"),
        (_V4, (), [[0, 0, 0, 0.0]], "complete", TypeError, "entry must be an int"),
        # verify() used to raise IndexError
        (_V4, (), [[5, 5, 0, 0]], "complete", ValueError, "entry 5 is outside 0..0"),
        # reidemeister_schreier used to raise KeyError (-1, 2)
        (_V4, (), [[1, 1, -1, -1], [0, 0, 1, 1]], "complete", ValueError, "entry -1 is outside 0..1"),
        (_V4, (), [[1, 1, -2, -2], [0, 0, 1, 1]], "overflowed", ValueError, "entry -2 is outside -1..1"),
    ],
    ids=[
        "no-presentation",
        "foreign-subgroup-word",
        "no-rows",
        "short-row",
        "rows-none",
        "float-entry",
        "entry-off-the-table",
        "undefined-entry-in-complete-table",
        "entry-below-minus-one",
    ],
)
def test_coset_table_rejects_rows_that_are_not_a_table(presentation, subgroup_words, rows, status, error, message):
    with pytest.raises(error, match=message):
        CosetTable(presentation, subgroup_words, rows, status)


def test_reidemeister_schreier_rejects_a_table_that_does_not_close_the_relators():
    # aa runs 0 -> 1 -> 1; this used to trip a bare assert
    t = CosetTable(_V4, (), [[1, 1, 1, 1], [1, 1, 0, 0]], "complete")
    with pytest.raises(ValueError, match="does not close a relator at coset 0"):
        reidemeister_schreier(_V4, t)


def test_reidemeister_schreier_rejects_a_table_over_other_generators():
    # the columns of c and d are not in a table over a and b
    with pytest.raises(ValueError, match="other generators"):
        reidemeister_schreier(gamma_presentation(0), todd_coxeter(_V4))
