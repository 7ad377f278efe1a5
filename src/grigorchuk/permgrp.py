"""Small finite permutation groups by explicit element enumeration.

Everything here is desk scale (orders well below 10^4), so naive
breadth-first closure replaces stabilizer chains.  Subgroups are
enumerated by joins with one element per right coset, and the core-index
lemma check reads the core and the normalizer's index from the one orbit
of H under conjugation by G's generators; ``core`` and ``normalizer``,
which conjugate by every element, are kept as its oracles.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import CapExceeded, check_int

Permutation = tuple[int, ...]

DEFAULT_CAP = 100_000
# the most subgroups enumerate_subgroups may find
_SUBGROUP_CAP = 10_000


def identity(degree: int) -> Permutation:
    return tuple(range(degree))


def pmul(p: Permutation, q: Permutation) -> Permutation:
    """Composition 'p after q': (p*q)(i) = p(q(i))."""
    return tuple([p[i] for i in q])


def pinv(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def from_cycles(degree: int, cycles) -> Permutation:
    img = list(range(degree))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            img[pt] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def to_cycles(p: Permutation) -> list[tuple[int, ...]]:
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


@dataclass(frozen=True)
class PermGroup:
    degree: int
    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]  # deterministic BFS order

    @property
    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and self.element_set <= other.element_set

    def generator_cycles(self) -> list[list[tuple[int, ...]]]:
        return [to_cycles(g) for g in self.generators]


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
        if sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation of degree {degree}: {g}")
    ident = identity(degree)
    seen = {ident}
    ordered = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = pmul(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"closure cap {cap} exceeded", partial=len(seen))
                    seen.add(y)
                    ordered.append(y)
                    nxt.append(y)
        frontier = nxt
    return PermGroup(degree, gens, tuple(ordered))


def _as_group(G: PermGroup, elements) -> PermGroup:
    elems = sorted(elements)
    return PermGroup(G.degree, tuple(elems), tuple(elems))


def index(G: PermGroup, H: PermGroup) -> int:
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    assert G.order % H.order == 0
    return G.order // H.order


def conjugate_subgroup(H: PermGroup, g: Permutation) -> frozenset:
    gi = pinv(g)
    return frozenset(pmul(pmul(g, h), gi) for h in H.elements)


def normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    hset = H.element_set
    return _as_group(G, (g for g in G.elements if conjugate_subgroup(H, g) == hset))


def core(G: PermGroup, H: PermGroup) -> PermGroup:
    """Intersection of all G-conjugates of H: the largest normal subgroup
    of G inside H."""
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    current = H.element_set
    for g in G.elements:
        current = current & conjugate_subgroup(H, g)
    return _as_group(G, current)


@dataclass(frozen=True)
class CoreLemmaReport:
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
    of G, as element sets, H first: the orbit of H under conjugation by G's
    generators, which generate G."""
    orbit = [H.element_set]
    seen = set(orbit)
    for K in orbit:
        for g in G.generators:
            gi = pinv(g)
            conj = frozenset([pmul(pmul(g, h), gi) for h in K])
            if conj not in seen:
                seen.add(conj)
                orbit.append(conj)
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
    if G.order > 64:
        raise ValueError("subgroup enumeration is limited to |G| <= 64")
    found: dict[frozenset, PermGroup] = {}
    triv = _as_group(G, [identity(G.degree)])
    found[triv.element_set] = triv
    for g in G.elements:
        S = closure([g], degree=G.degree)
        found.setdefault(S.element_set, S)
    frontier = list(found.values())
    while frontier:
        new = []
        for S in frontier:
            covered = set(S.element_set)
            for g in G.elements:
                if g in covered:
                    continue
                covered.update([pmul(s, g) for s in S.elements])
                J = closure(list(S.generators) + [g], degree=G.degree)
                if J.element_set not in found:
                    new.append(J)
                    found[J.element_set] = J
                    if len(found) > _SUBGROUP_CAP:
                        raise CapExceeded("subgroup cap exceeded", partial=len(found))
        frontier = new
    return sorted(found.values(), key=lambda S: (S.order, S.elements))


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
    d = G.degree + H.degree
    gens = [g + tuple(i + G.degree for i in range(H.degree)) for g in G.generators]
    gens += [tuple(range(G.degree)) + tuple(v + G.degree for v in h) for h in H.generators]
    return closure(gens, degree=d)


def klein_four() -> PermGroup:
    return closure(
        [from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])],
        degree=4,
    )


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
