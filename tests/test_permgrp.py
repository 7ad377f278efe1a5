import hashlib

import pytest
from hypothesis import given, strategies as st

from grigorchuk import permgrp
from grigorchuk.errors import CapExceeded
from grigorchuk.permgrp import (
    alternating_4,
    check_core_lemma,
    closure,
    core,
    cyclic,
    dihedral,
    direct_product,
    enumerate_subgroups,
    from_cycles,
    index,
    lemma_corpus,
    normalizer,
    pinv,
    pmul,
    to_cycles,
    z2_times_d8,
)


def test_cycle_roundtrip():
    p = from_cycles(6, [(0, 1, 2), (4, 5)])
    assert to_cycles(p) == [(0, 1, 2), (4, 5)]
    assert pmul(p, pinv(p)) == tuple(range(6))


@pytest.mark.parametrize(
    "degree, cycles, error, message",
    [
        (3, [(0, 1), (1, 2)], ValueError, "point 1 is out of range or in two cycles"),
        (3, [(0, 1, 0)], ValueError, "point 0 is out of range or in two cycles"),
        (3, [(0, 5)], ValueError, "point 5 is out of range"),
        (3, [(-1, 0)], ValueError, "point -1 is out of range"),
        (-1, [], ValueError, "degree must be >= 0"),
        (2.0, [], TypeError, "degree must be an int"),
    ],
    ids=["shared-point", "repeated-point", "point-past-degree", "negative-point",
         "negative-degree", "float-degree"],
)
def test_from_cycles_rejects_bad_input(degree, cycles, error, message):
    """from_cycles(3, [(0, 1), (1, 2)]) returned the non-permutation
    (1, 2, 1), [(0, 5)] leaked IndexError and degree -1 returned ()."""
    with pytest.raises(error, match=message):
        from_cycles(degree, cycles)


def test_to_cycles_rejects_a_non_permutation():
    """to_cycles((1, 2, 1)) never returned."""
    with pytest.raises(ValueError, match="not a permutation of degree 3"):
        to_cycles((1, 2, 1))
    with pytest.raises(ValueError, match="not a permutation of degree 3"):
        permgrp.PermGroup(3, ((1, 2, 1),), ((0, 1, 2),)).generator_cycles()
    assert to_cycles(()) == [] and to_cycles((0, 1)) == []


@given(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
    )
)
def test_pmul_composes_pointwise(pq):
    p, q = (tuple(x) for x in pq)
    r = pmul(p, q)
    assert type(r) is tuple and len(r) == len(q)
    assert all(r[i] == p[q[i]] for i in range(len(q)))


def test_closure_orders():
    assert cyclic(7).order == 7
    assert dihedral(4).order == 8
    assert direct_product(cyclic(2), cyclic(2)).order == 4
    assert alternating_4().order == 12
    assert z2_times_d8().order == 16


def test_closure_cap():
    with pytest.raises(CapExceeded):
        closure([from_cycles(9, [(0, 1, 2, 3, 4, 5, 6, 7, 8)]),
                 from_cycles(9, [(0, 1)])], cap=100)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: dihedral(2), "n must be >= 3"),
        (lambda: cyclic(0), "n must be >= 1"),
        (lambda: closure([], degree=-1), "degree must be >= 0"),
        (lambda: closure([(1, 0)], cap=0), "cap must be >= 1"),
        (lambda: closure([]), "need generators or an explicit degree"),
    ],
    ids=["dihedral-2", "cyclic-0", "degree-negative", "cap-0", "no-generators"],
)
def test_degenerate_sizes_are_rejected(build, message):
    """dihedral(2) would have order 2, not 4, and closure([], degree=-1) a
    degree of -1."""
    with pytest.raises(ValueError, match=message):
        build()


def test_index_and_normality():
    G = dihedral(4)
    rot = closure([from_cycles(4, [(0, 1, 2, 3)])])
    assert index(G, rot) == 2


def test_index_rejects_a_non_subgroup():
    rot = closure([from_cycles(4, [(0, 1, 2, 3)])])
    with pytest.raises(ValueError, match="not a subgroup"):
        index(rot, dihedral(4))


@pytest.mark.parametrize("call", [index, check_core_lemma])
@pytest.mark.parametrize("size", [3, 0])
def test_a_subset_whose_order_does_not_divide_is_not_a_subgroup(call, size):
    # three elements of Z/4 used to trip a bare assert in index
    G = cyclic(4)
    with pytest.raises(ValueError, match="not a subgroup"):
        call(G, permgrp.PermGroup(4, (), G.elements[:size]))


def test_core_of_normal_subgroup_is_itself():
    G = dihedral(4)
    rot = closure([from_cycles(4, [(0, 1, 2, 3)])])
    assert core(G, rot).element_set == rot.element_set


def test_a4_cyclic_subgroup_core():
    G = alternating_4()
    H = closure([from_cycles(4, [(0, 1, 2)])])
    assert index(G, H) == 4
    assert core(G, H).order == 1
    assert index(G, normalizer(G, H)) == 4


def test_core_lemma_a4_inapplicable():
    G = alternating_4()
    H = closure([from_cycles(4, [(0, 1, 2)])])
    rep = check_core_lemma(G, H)
    assert not rep.applicable
    assert rep.core_index == 12
    assert "normalizer" in rep.reason


def test_core_lemma_needs_a_two_power_index():
    G = alternating_4()
    V4 = closure([from_cycles(4, [(0, 1), (2, 3)]), from_cycles(4, [(0, 2), (1, 3)])])
    rep = check_core_lemma(G, V4)
    assert (rep.applicable, rep.reason, rep.index_h, rep.passed) == (
        False, "index is not a 2-power", 3, None
    )


def test_core_lemma_index2_subgroups():
    G = z2_times_d8()
    for H in enumerate_subgroups(G):
        if index(G, H) == 2:
            rep = check_core_lemma(G, H)
            assert rep.applicable and rep.passed
            assert rep.core_index == 2  # index-2 subgroups are normal


def test_core_lemma_corpus_has_no_violations():
    for G in lemma_corpus().values():
        for H in enumerate_subgroups(G):
            rep = check_core_lemma(G, H)
            if rep.applicable:
                assert rep.passed, (G, H.elements, rep)


def test_subgroup_counts():
    assert len(enumerate_subgroups(direct_product(cyclic(2), cyclic(2)))) == 5
    assert len(enumerate_subgroups(dihedral(4))) == 10


def test_subgroup_enumeration_is_limited_to_order_64():
    S5 = closure([from_cycles(5, [(0, 1, 2, 3, 4)]), from_cycles(5, [(0, 1)])])
    assert S5.order == 120
    with pytest.raises(ValueError, match="limited to"):
        enumerate_subgroups(S5)


def test_subgroup_cap(monkeypatch):
    # D8 has 10 subgroups, 7 of them cyclic seeds: the first join is over a cap of 7
    monkeypatch.setattr(permgrp, "_SUBGROUP_CAP", 7)
    with pytest.raises(CapExceeded, match="subgroup cap") as exc:
        enumerate_subgroups(dihedral(4))
    assert exc.value.partial == 8


# (count, sha256 of repr([(S.generators, S.elements) for S in subgroups]))
_CORPUS_SUBGROUPS = {
    "Z2xD8": (35, "a5b9e11d01e60d41c89fd04d0818a90304cad8cbb2657063f6a0835790f5728c"),
    "D16": (19, "bba381a6ad466e58a7ed59f69bc9e0e124b235be65b465b20f7a2640311caf11"),
    "C2xC2xC2": (16, "84ce9be977a3a2b9979a9d0241d1a9e0151301aeb67d78438c6f635e3e0a96b4"),
    "C16": (5, "24e4b8a02bbcaccf59d9d9e2611ac7667c0015059684bb4414662ea5afc68657"),
}


def test_corpus_subgroups_are_pinned_and_each_joined_once(monkeypatch):
    """The subgroups, their generators and their order are pinned; each
    subgroup S is joined once, in the round after the one that found it,
    with one element of each right coset S.g outside S (812 joins when S
    was joined with every element outside it, 1 681 when every round
    rejoined all subgroups found so far).  Every join, the cyclic seeds
    included, is a breadth-first search on G's Cayley table: no subgroup is
    closed over permutations."""
    corpus = lemma_corpus()
    for G in corpus.values():
        G.table
    joins = []
    real = permgrp._bfs
    monkeypatch.setattr(permgrp, "_bfs", lambda *a, **k: joins.append(1) or real(*a, **k))
    monkeypatch.setattr(permgrp, "pmul", None)  # no product of two permutations
    for name, G in corpus.items():
        subgroups = enumerate_subgroups(G)
        pairs = repr([(S.generators, S.elements) for S in subgroups])
        assert (len(subgroups), hashlib.sha256(pairs.encode()).hexdigest()) == _CORPUS_SUBGROUPS[name]
    assert len(joins) == 357


@pytest.mark.parametrize("name", [*lemma_corpus(), "A4"])
def test_cayley_table_is_the_product_of_permutations(name):
    G = alternating_4() if name == "A4" else lemma_corpus()[name]
    position, mul = G.table
    assert G.table is G.table
    assert position == {p: i for i, p in enumerate(G.elements)}
    assert mul == [[G.elements.index(pmul(p, q)) for q in G.elements] for p in G.elements]


def _orbit_cases():
    for G in lemma_corpus().values():
        for H in enumerate_subgroups(G):
            yield G, H
    yield alternating_4(), closure([from_cycles(4, [(0, 1, 2)])])


def test_conjugation_orbit_gives_the_core_and_the_normalizer_index():
    # the oracles conjugate H by every element of G
    for G, H in _orbit_cases():
        orbit = [
            frozenset([G.elements[i] for i in K]) for K in permgrp._conjugation_orbit(G, H)
        ]
        assert orbit[0] == H.element_set and len(set(orbit)) == len(orbit)
        assert frozenset.intersection(*orbit) == core(G, H).element_set
        assert len(orbit) == index(G, normalizer(G, H))


def test_element_set_is_built_once_per_group():
    G = z2_times_d8()
    assert G.element_set is G.element_set == frozenset(G.elements)


def test_deterministic_element_order():
    a = dihedral(4).elements
    b = dihedral(4).elements
    assert a == b


def test_elements_not_closed_under_products_are_rejected():
    # (1 2 0) squared is (2 0 1), which the hand-built elements leave out
    G = permgrp.PermGroup(3, ((1, 2, 0),), ((0, 1, 2), (1, 2, 0)))
    trivial = permgrp.PermGroup(3, (), ((0, 1, 2),))
    message = r"not closed under products: \(2, 0, 1\) is missing"
    with pytest.raises(ValueError, match=message):
        G.table
    with pytest.raises(ValueError, match=message):
        enumerate_subgroups(G)
    with pytest.raises(ValueError, match=message):
        check_core_lemma(G, trivial)


def test_generator_outside_the_elements_is_rejected():
    C3 = cyclic(3)
    G = permgrp.PermGroup(3, ((1, 0, 2),), C3.elements)
    with pytest.raises(ValueError, match=r"generator \(1, 0, 2\) is not an element"):
        check_core_lemma(G, closure([], degree=3))
