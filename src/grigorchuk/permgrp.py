"""Small finite permutation groups by explicit element enumeration.

Everything here is desk scale (orders well below 10^4), so breadth-first
closure replaces stabilizer chains.  A group's Cayley table
(``PermGroup.table``: each element's index and the index of every product)
is built once, on first use, and subgroup joins and conjugation orbits run
on element indices, one list lookup per product.  Subgroups are enumerated
by joins with one element per right coset, and the core-index lemma check
reads the core and the normalizer's index from the one orbit of H under
conjugation by G's generators; ``core`` and ``normalizer``, which conjugate
permutations by every element, are kept as its oracles.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import CapExceeded, check_int, check_type

Permutation = tuple[int, ...]

DEFAULT_CAP = 100_000
# the most subgroups enumerate_subgroups may find
_SUBGROUP_CAP = 10_000


def identity(degree: int) -> Permutation:
    return tuple(range(degree))


def pmul(p: Permutation, q: Permutation) -> Permutation:
    """Composition 'p after q': (p*q)(i) = p(q(i))."""
    try:
        return tuple([p[i] for i in q])
    except (IndexError, KeyError):
        raise ValueError(f"not permutations of one degree: {p!r}, {q!r}") from None


def pinv(p: Permutation) -> Permutation:
    check_permutation(p, len(p))
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def check_permutation(p, degree: int) -> None:
    """ValueError unless p lists 0..degree-1 in some order."""
    if sorted(p) != list(range(degree)):
        raise ValueError(f"not a permutation of degree {degree}: {p}")


def from_cycles(degree: int, cycles) -> Permutation:
    """The permutation of 0..degree-1 with the given disjoint cycles."""
    check_int(degree, "degree", 0)
    img = list(range(degree))
    moved = set()
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            if pt not in range(degree) or pt in moved:
                raise ValueError(f"point {pt!r} is out of range or in two cycles: {cycles}")
            moved.add(pt)
            img[pt] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def to_cycles(p: Permutation) -> list[tuple[int, ...]]:
    check_permutation(p, len(p))
    seen = set()
    out = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        cur = p[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = p[cur]
        out.append(tuple(cyc))
    return out


class PermGroup:
    def __init__(self, degree: int, generators: tuple[Permutation, ...], elements: tuple[Permutation, ...]):
        self.degree = degree
        self.generators = generators
        self.elements = elements  # deterministic BFS order

    @property
    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    @functools.cached_property
    def table(self) -> tuple[dict[Permutation, int], list[list[int]]]:
        """The Cayley table on element indices: ``position[p]`` is the
        index of p in ``elements``, and ``mul[x][y]`` that of
        ``pmul(elements[x], elements[y])``.  Elements that are not closed
        under products raise ValueError."""
        position = dict(zip(self.elements, range(self.order)))
        try:
            mul = [[position[pmul(p, q)] for q in self.elements] for p in self.elements]
        except KeyError as exc:
            missing = exc.args[0]
            raise ValueError(f"elements are not closed under products: {missing} is missing") from None
        return position, mul

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        check_type(other, PermGroup, "other")
        return self.degree == other.degree and self.element_set <= other.element_set

    def generator_cycles(self) -> list[list[tuple[int, ...]]]:
        return [to_cycles(g) for g in self.generators]


def _bfs(ident, gens, mul, cap=DEFAULT_CAP) -> list:
    """The elements of the group generated by ``gens``, in breadth-first
    order from ``ident``, where ``mul(x, g)`` is the product x*g."""
    seen = {ident}
    ordered = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"closure cap {cap} exceeded", partial=len(seen))
                    seen.add(y)
                    ordered.append(y)
                    nxt.append(y)
        frontier = nxt
    return ordered


def closure(generators, degree: int | None = None, cap: int = DEFAULT_CAP) -> PermGroup:
    """Breadth-first closure of a generator list; deterministic element order."""
    check_int(cap, "cap", 1)
    gens = tuple(tuple(g) for g in generators)
    if degree is None:
        if not gens:
            raise ValueError("need generators or an explicit degree")
        degree = len(gens[0])
    check_int(degree, "degree", 0)
    for g in gens:
        check_permutation(g, degree)
    return PermGroup(degree, gens, tuple(_bfs(identity(degree), gens, pmul, cap)))


def _as_group(G: PermGroup, elements) -> PermGroup:
    elems = sorted(elements)
    return PermGroup(G.degree, tuple(elems), tuple(elems))


def _check_subgroup(G: PermGroup, H: PermGroup) -> None:
    """TypeError unless G and H are PermGroups, and ValueError unless H is
    a subset of G whose order divides |G|."""
    check_type(G, PermGroup, "G")
    check_type(H, PermGroup, "H")
    if not H.is_subgroup_of(G) or not H.order or G.order % H.order:
        raise ValueError("H is not a subgroup of G")


def index(G: PermGroup, H: PermGroup) -> int:
    _check_subgroup(G, H)
    return G.order // H.order


def conjugate_subgroup(H: PermGroup, g: Permutation) -> frozenset:
    check_type(H, PermGroup, "H")
    gi = pinv(g)
    return frozenset(pmul(pmul(g, h), gi) for h in H.elements)


def normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    _check_subgroup(G, H)
    hset = H.element_set
    return _as_group(G, (g for g in G.elements if conjugate_subgroup(H, g) == hset))


def core(G: PermGroup, H: PermGroup) -> PermGroup:
    """Intersection of all G-conjugates of H: the largest normal subgroup
    of G inside H."""
    _check_subgroup(G, H)
    current = H.element_set
    for g in G.elements:
        current = current & conjugate_subgroup(H, g)
    return _as_group(G, current)


class CoreLemmaReport(NamedTuple):
    applicable: bool
    reason: str
    index_h: int  # [G : H]
    a: int | None  # index_h = 2**a when applicable
    core_index: int
    b: int | None  # core_index = 2**b when it is a 2-power
    passed: bool | None  # b <= 2a - 1; None when inapplicable


def _two_power_exponent(n: int) -> int | None:
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    return e if n == 1 else None


def _conjugation_orbit(G: PermGroup, H: PermGroup) -> list[frozenset]:
    """The distinct conjugates g.H.g^-1 of a subgroup H by the elements g
    of G, as sets of indices into ``G.elements``, H first: the orbit of H
    under conjugation by G's generators, which generate G.  A generator
    that is not an element of G raises ValueError."""
    position, mul = G.table
    # conj[x] is the index of g.x.g^-1, for each generator g
    conjugations = []
    for g in G.generators:
        try:
            gi = position[pinv(g)]
            conjugations.append([mul[y][gi] for y in mul[position[g]]])
        except KeyError:
            raise ValueError(f"generator {g} is not an element of the group") from None
    orbit = [frozenset(map(position.__getitem__, H.elements))]
    seen = set(orbit)
    for K in orbit:
        for conj in conjugations:
            L = frozenset(map(conj.__getitem__, K))
            if L not in seen:
                seen.add(L)
                orbit.append(L)
    return orbit


def check_core_lemma(G: PermGroup, H: PermGroup) -> CoreLemmaReport:
    """Core-index bound for a proper subgroup of 2-power index normalized
    by an index-<=2 subgroup: the core has index 2^b with b <= 2a - 1.

    Both the core and the normalizer come from the one orbit of H under
    conjugation (``_conjugation_orbit``): the core is the intersection of
    the orbit, and by orbit-stabilizer the normalizer's index is the
    orbit's size.  ``core`` and ``normalizer`` are the element-by-element
    oracles.
    """
    ih = index(G, H)
    orbit = _conjugation_orbit(G, H)
    core_index = G.order // len(frozenset.intersection(*orbit))
    a = _two_power_exponent(ih)
    if ih == 1:
        return CoreLemmaReport(False, "H is not proper", ih, None, core_index, None, None)
    if a is None:
        return CoreLemmaReport(False, "index is not a 2-power", ih, None, core_index, None, None)
    norm_index = len(orbit)
    if norm_index > 2:
        return CoreLemmaReport(
            False, f"normalizer has index {norm_index} > 2", ih, a, core_index, None, None
        )
    b = _two_power_exponent(core_index)
    passed = b is not None and b <= 2 * a - 1
    return CoreLemmaReport(True, "", ih, a, core_index, b, passed)


def enumerate_subgroups(G: PermGroup) -> list[PermGroup]:
    """All subgroups, by join-closure over cyclic seeds; |G| <= 64.

    A join depends only on S and g, so each subgroup is joined in the round
    after the one that found it, and never again.  Since <S, s.g> = <S, g>
    for every s in S, the join with g is the join with every element of its
    right coset S.g.  So S is joined only with the first g of each right
    coset in G's element order, the g that found that join when every g was
    tried: the subgroups, their generators and their order are the same.
    """
    check_type(G, PermGroup, "G")
    if G.order > 64:
        raise ValueError("subgroup enumeration is limited to |G| <= 64")
    position, mul = G.table

    def product(x, y):
        return mul[x][y]

    # the subgroups on element indices: element set -> (generators, BFS order)
    e = position[identity(G.degree)]
    found = {frozenset([e]): ((e,), [e])}
    for g in range(G.order):
        S = _bfs(e, (g,), product)
        found.setdefault(frozenset(S), ((g,), S))
    frontier = list(found.values())
    while frontier:
        new = []
        for gens, S in frontier:
            covered = set(S)
            for g in range(G.order):
                if g in covered:
                    continue
                covered.update([mul[s][g] for s in S])
                J = _bfs(e, gens + (g,), product)
                key = frozenset(J)
                if key not in found:
                    found[key] = joined = gens + (g,), J
                    new.append(joined)
                    if len(found) > _SUBGROUP_CAP:
                        raise CapExceeded("subgroup cap exceeded", partial=len(found))
        frontier = new
    perms = G.elements.__getitem__
    subgroups = [
        PermGroup(G.degree, tuple(map(perms, gens)), tuple(map(perms, S)))
        for gens, S in found.values()
    ]
    return sorted(subgroups, key=lambda S: (S.order, S.elements))


# ---------------------------------------------------------------------------
# catalogue of small groups used by the verification corpus


def cyclic(n: int) -> PermGroup:
    check_int(n, "n", 1)
    return closure([from_cycles(n, [tuple(range(n))])], degree=n)


def dihedral(n: int) -> PermGroup:
    """Dihedral group of order 2n acting on an n-gon, n >= 3."""
    check_int(n, "n", 3)
    rot = from_cycles(n, [tuple(range(n))])
    refl = tuple((n - i) % n for i in range(n))
    return closure([rot, refl], degree=n)


def direct_product(G: PermGroup, H: PermGroup) -> PermGroup:
    check_type(G, PermGroup, "G")
    check_type(H, PermGroup, "H")
    d = G.degree + H.degree
    gens = [g + tuple(i + G.degree for i in range(H.degree)) for g in G.generators]
    gens += [tuple(range(G.degree)) + tuple(v + G.degree for v in h) for h in H.generators]
    return closure(gens, degree=d)


def alternating_4() -> PermGroup:
    return closure(
        [from_cycles(4, [(0, 1, 2)]), from_cycles(4, [(0, 1), (2, 3)])],
        degree=4,
    )


def z2_times_d8() -> PermGroup:
    """Canonical model: square symmetries on points 0-3, direct factor a
    transposition on points 4-5."""
    return direct_product(dihedral(4), cyclic(2))


def elementary_abelian_8() -> PermGroup:
    return direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))


def lemma_corpus() -> dict[str, PermGroup]:
    """Built-in 2-groups for the core-index lemma sweep."""
    return {
        "Z2xD8": z2_times_d8(),
        "D16": dihedral(8),
        "C2xC2xC2": elementary_abelian_8(),
        "C16": cyclic(16),
    }
