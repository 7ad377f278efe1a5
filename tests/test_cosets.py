from hypothesis import given, settings, strategies as st

from grigorchuk.cosets import (
    abelian_invariants,
    close_normally,
    quotient_group,
    reidemeister_schreier,
    todd_coxeter,
)
from grigorchuk.permgrp import small_isomorphic, z2_times_d8
from grigorchuk.presentations import (
    Presentation,
    gamma0_coxeter_presentation,
    gamma_presentation,
    xi_generators,
)
from grigorchuk.snf import det, mat_mul, smith_normal_form


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
    assert t.index == 16
    G = quotient_group(t)
    assert G.order == 16
    assert small_isomorphic(G, z2_times_d8())


def test_parity_kernel_has_index_2():
    t = todd_coxeter(gamma_presentation(0), xi_generators())
    assert t.status == "complete"
    assert t.index == 2
    assert t.verify()


def test_cap_overflow_reports_partial_state():
    # the free product itself is infinite, so enumeration must overflow
    t = todd_coxeter(gamma_presentation(-1), cap=200)
    assert t.status == "overflowed"
    assert t.live_count > 0


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


def test_smith_normal_form_known():
    D, _, _ = smith_normal_form([[2, 0], [0, 3]])
    assert [D[0][0], D[1][1]] == [1, 6]
    D, _, _ = smith_normal_form([[6, 0], [0, 10]])
    assert [D[0][0], D[1][1]] == [2, 30]


matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(matrices)
@settings(max_examples=60)
def test_smith_normal_form_properties(A):
    D, U, V = smith_normal_form(A)
    assert mat_mul(mat_mul(U, A), V) == D
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        if y:
            assert x != 0 and y % x == 0


def test_coset_table_trace():
    p = Presentation.from_strings("xy", ["xx", "yy", "xyxy"])
    t = todd_coxeter(p)
    rel = p.relators[2]
    for c in range(t.index):
        assert t.trace(c, rel) == c
