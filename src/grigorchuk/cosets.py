"""Todd-Coxeter coset enumeration (HLT with coincidence handling),
Reidemeister-Schreier subgroup presentations, and abelian invariants.

Cosets are numbered from 0 (the subgroup itself); normal closures are
enumerated by adding the closing words as relators over the trivial
subgroup, whose coset action is then the regular representation of the
quotient.  ``maps_onto`` checks generator images in a permutation group
against a presentation: by von Dyck's theorem, images that kill every
relator and generate the group give a homomorphism onto it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import CapExceeded, check_int, check_type
from .permgrp import PermGroup, check_permutation, closure as perm_closure, identity, pinv, pmul
from .presentations import Presentation, Relator, check_words, relator_from_string
from .snf import smith_normal_form

DEFAULT_COSET_CAP = 1_000_000


def _columns(generators) -> dict[tuple[str, int], int]:
    """Table column of each signed generator: 2i for the i-th generator
    and 2i + 1 for its inverse."""
    return {(g, e): 2 * i + (e == -1) for i, g in enumerate(generators) for e in (1, -1)}


class CosetTable:
    """Completed (or overflowed) coset table.

    ``rows[c][2*g]`` is the coset reached from ``c`` by generator ``g``,
    ``rows[c][2*g+1]`` the one reached by its inverse.  For involutory
    generators the two columns coincide.  An overflowed table marks the
    entries it never defined -1.  Anything else (no row, a row that is not
    one entry per column, an entry that is neither a coset nor such a -1, a
    foreign subgroup word) raises ValueError, and a wrong type TypeError.
    """

    def __init__(
        self,
        presentation: Presentation,
        subgroup_words: tuple[Relator, ...],
        rows: list[list[int]],
        status: str,
    ):
        check_type(presentation, Presentation, "presentation")
        check_words(presentation.generators, subgroup_words, "subgroup word")
        index = len(rows)  # rows that have no len raise TypeError
        if index == 0:
            raise ValueError("a coset table has at least the coset 0")
        width = 2 * len(presentation.generators)
        least = 0 if status == "complete" else -1
        for row in rows:
            if len(row) != width:
                raise ValueError(f"a row has {len(row)} entries, not one per column ({width})")
            for v in row:
                check_int(v, "coset table entry")
                if not least <= v < index:
                    raise ValueError(f"coset table entry {v} is outside {least}..{index - 1}")
        self.presentation = presentation
        self.subgroup_words = subgroup_words
        self.rows = rows
        self.status = status  # "complete" | "overflowed"

    @property
    def index(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def _column_map(self) -> dict[tuple[str, int], int]:
        return _columns(self.presentation.generators)

    def trace(self, coset: int, word: Relator) -> int:
        """The coset word leads to from coset; -1 at an undefined entry.
        A coset outside 0..index-1, or a letter that is not a signed
        generator of the presentation, raises ValueError, and a coset that
        is not an int TypeError."""
        check_int(coset, "coset", 0)
        if coset >= self.index:
            raise ValueError(f"coset {coset} is not below the index {self.index}")
        try:
            return self._trace(coset, word)
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]!r} is not a signed generator of the presentation") from None

    def _trace(self, coset: int, word: Relator) -> int:
        for letter in word:
            coset = self.rows[coset][self._column_map[letter]]
            if coset < 0:
                return -1
        return coset

    def verify(self) -> bool:
        """Re-trace every relator at every coset and every subgroup word at 0."""
        for rel in self.presentation.relators:
            for c in range(len(self.rows)):
                if self._trace(c, rel) != c:
                    return False
        return all(self._trace(0, w) == 0 for w in self.subgroup_words)


class _Enumerator:
    def __init__(self, presentation: Presentation, subgroup_words, cap: int):
        self.pres = presentation
        self.columns = _columns(presentation.generators)
        self.sub_words = tuple(subgroup_words)
        self.cap = cap
        self.table: list[list[int | None]] = []
        self.rep: list[int] = []
        self.dead = 0
        self._new_coset()

    # -- union-find over cosets ----------------------------------------

    def find(self, c: int) -> int:
        while self.rep[c] != c:
            self.rep[c] = self.rep[self.rep[c]]
            c = self.rep[c]
        return c

    def _new_coset(self) -> int:
        if len(self.table) - self.dead >= self.cap:
            raise CapExceeded(
                f"coset cap {self.cap} exceeded", partial=len(self.table) - self.dead
            )
        self.table.append([None] * len(self.columns))
        self.rep.append(len(self.table) - 1)
        return len(self.table) - 1

    def get(self, c: int, col: int):
        v = self.table[c][col]
        return None if v is None else self.find(v)

    def set_edge(self, c: int, col: int, d: int) -> None:
        """Record c . col = d (and the inverse edge), merging on conflict."""
        c, d = self.find(c), self.find(d)
        for x, xcol, y in ((c, col, d), (d, col ^ 1, c)):
            cur = self.get(x, xcol)
            if cur is None:
                self.table[x][xcol] = y
            elif cur != y:
                self.coincide(cur, y)

    def coincide(self, a: int, b: int) -> None:
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            # b dies; transplant its edges onto a
            self.rep[b] = a
            self.dead += 1
            for col, target in enumerate(self.table[b]):
                if target is None:
                    continue
                target = self.find(target)
                cur = self.get(a, col)
                if cur is None:
                    self.table[a][col] = target
                    back = self.get(target, col ^ 1)
                    if back is None:
                        self.table[target][col ^ 1] = a
                    elif back != a:
                        queue.append((back, a))
                elif cur != target:
                    queue.append((cur, target))
            self.table[b] = [None] * len(self.columns)

    # -- scanning -------------------------------------------------------

    def scan_and_fill(self, start: int, word: Relator) -> None:
        """Trace ``word`` from start, defining cosets as needed; the trace
        must close back at start."""
        cols = [self.columns[letter] for letter in word]
        c = self.find(start)
        start = c
        for i, col in enumerate(cols):
            nxt = self.get(c, col)
            if nxt is None:
                if i == len(cols) - 1:
                    self.set_edge(c, col, self.find(start))
                    return
                nxt = self._new_coset()
                self.set_edge(c, col, nxt)
                nxt = self.find(nxt)
            c = nxt
            start = self.find(start)
        if c != start:
            self.coincide(c, start)

    def run(self) -> CosetTable:
        """HLT in one pass: the subgroup words at coset 0, then every relator
        at each live coset in order, and a new coset for an entry they leave
        empty.  A closed cycle stays closed when cosets merge, and a merge
        keeps the smaller coset, already scanned: no second pass is needed."""
        try:
            for w in self.sub_words:
                self.scan_and_fill(0, w)
            alpha = hole = 0
            while True:
                while alpha < len(self.table):
                    if self.find(alpha) == alpha:
                        for rel in self.pres.relators:
                            self.scan_and_fill(alpha, rel)
                            if self.find(alpha) != alpha:
                                break
                    alpha += 1
                # a live coset's entries, once defined, stay defined
                while hole < alpha and (self.find(hole) != hole or None not in self.table[hole]):
                    hole += 1
                if hole == alpha:
                    break
                self.set_edge(hole, self.table[hole].index(None), self._new_coset())
            status = "complete"
        except CapExceeded:
            status = "overflowed"
        return self._freeze(status)

    def _freeze(self, status: str) -> CosetTable:
        live = [c for c in range(len(self.table)) if self.find(c) == c]
        renum = {c: i for i, c in enumerate(live)}
        rows = [[-1 if v is None else renum[self.find(v)] for v in self.table[c]] for c in live]
        return CosetTable(
            presentation=self.pres,
            subgroup_words=self.sub_words,
            rows=rows,
            status=status,
        )


def todd_coxeter(
    presentation: Presentation,
    subgroup_words=(),
    cap: int = DEFAULT_COSET_CAP,
) -> CosetTable:
    """HLT coset enumeration of the subgroup generated by ``subgroup_words``.

    Words may be strings over single-letter generators or pre-parsed
    signed relators; a word over an undeclared generator or with an
    exponent other than 1 or -1, or a ``cap`` < 1, raises ValueError, and
    an argument of the wrong type TypeError.  The relators were checked
    when the ``Presentation`` was built.
    """
    check_type(presentation, Presentation, "presentation")
    check_int(cap, "cap", 1)
    words = tuple(
        w if isinstance(w, tuple) else relator_from_string(w) for w in subgroup_words
    )
    check_words(presentation.generators, words, "subgroup word")
    return _Enumerator(presentation, words, cap).run()


def close_normally(presentation: Presentation, words) -> Presentation:
    """Presentation of the quotient by the normal closure of ``words``;
    raises ValueError on a word over an undeclared generator."""
    check_type(presentation, Presentation, "presentation")
    extra = tuple(w if isinstance(w, tuple) else relator_from_string(w) for w in words)
    return Presentation(presentation.generators, presentation.relators + extra)


def quotient_group(table: CosetTable) -> PermGroup:
    """Permutation group of the generator action on cosets; for a
    trivial-subgroup enumeration this is the regular representation, so
    its order equals the coset count."""
    check_type(table, CosetTable, "table")
    if table.status != "complete":
        raise ValueError("coset table is not complete")
    columns = table._column_map
    perms = [tuple(row[columns[g, 1]] for row in table.rows) for g in table.presentation.generators]
    return perm_closure(perms, degree=table.index, cap=max(2 * table.index, 16))


def maps_onto(presentation: Presentation, images, G: PermGroup) -> bool:
    """Whether each generator g -> ``images[g]`` defines a homomorphism of
    the presented group onto G: the images kill every relator and their
    closure is G.  When the presented group has order |G|, it is an
    isomorphism.  ValueError unless every generator has an image, and
    every image is a permutation of G's points."""
    check_type(presentation, Presentation, "presentation")
    check_type(G, PermGroup, "G")
    for g in presentation.generators:
        if g not in images:
            raise ValueError(f"no image for generator {g!r}")
        check_permutation(images[g], G.degree)
    ident = identity(G.degree)
    for rel in presentation.relators:
        p = ident
        for g, e in rel:
            p = pmul(p, images[g] if e == 1 else pinv(images[g]))
        if p != ident:
            return False
    gens = [images[g] for g in presentation.generators]
    return perm_closure(gens, degree=G.degree).element_set == G.element_set


# ---------------------------------------------------------------------------
# Reidemeister-Schreier


def _schreier_tree(table: CosetTable) -> dict[int, tuple[int, int]]:
    """BFS spanning tree: coset -> (parent coset, column used from parent)."""
    tree: dict[int, tuple[int, int]] = {}
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for c in frontier:
            for col, d in enumerate(table.rows[c]):
                if d >= 0 and d not in seen:
                    seen.add(d)
                    tree[d] = (c, col)
                    nxt.append(d)
        frontier = nxt
    return tree


def reidemeister_schreier(presentation: Presentation, table: CosetTable) -> Presentation:
    """Presentation of the subgroup at coset 0, on Schreier generators.

    Uses the breadth-first (lexicographic) Schreier transversal; relators
    are the rewrites of every defining relator at every coset, freely
    cancelled.  Generators occurring exactly once overall are removed with
    their relator; unused generators are kept (they are free factors).
    """
    check_type(presentation, Presentation, "presentation")
    check_type(table, CosetTable, "table")
    if table.status != "complete":
        raise ValueError("coset table is not complete")
    if table.presentation.generators != presentation.generators:
        raise ValueError("the table enumerates cosets over other generators")
    tree = _schreier_tree(table)
    tree_edges = set()
    for d, (c, col) in tree.items():
        tree_edges.add((c, col))
        tree_edges.add((d, col ^ 1))

    # one Schreier generator per non-tree forward edge (coset, generator)
    columns = _columns(presentation.generators)
    gen_name: dict[tuple[int, int], str] = {}
    for c in range(table.index):
        for g in presentation.generators:
            col = columns[g, 1]
            if (c, col) not in tree_edges:
                gen_name[(c, col)] = f"x{len(gen_name)}"

    def rewrite(start: int, word: Relator) -> list[tuple[str, int]]:
        out: list[tuple[str, int]] = []
        c = start
        for letter in word:
            col = columns[letter]
            d = table.rows[c][col]
            if (c, col) not in tree_edges:
                if letter[1] == 1:
                    out.append((gen_name[(c, col)], 1))
                else:
                    # the inverse step crosses the forward edge (d, col - 1)
                    out.append((gen_name[(d, col - 1)], -1))
            c = d
        if c != start:
            raise ValueError(f"the table does not close a relator at coset {start}")
        # free cancellation
        stack: list[tuple[str, int]] = []
        for item in out:
            if stack and stack[-1] == (item[0], -item[1]):
                stack.pop()
            else:
                stack.append(item)
        return stack

    relators = []
    for c in range(table.index):
        for rel in presentation.relators:
            r = rewrite(c, rel)
            if r:
                relators.append(tuple(r))

    generators = tuple(gen_name.values())
    return _simplify_single_occurrences(Presentation(generators, tuple(relators)))


def _simplify_single_occurrences(p: Presentation) -> Presentation:
    """Drop generators whose total occurrence count is one, together with
    the relator containing them (a Tietze move); repeat to a fixpoint."""
    gens = list(p.generators)
    rels = [list(r) for r in p.relators]
    while True:
        counts: dict[str, int] = {g: 0 for g in gens}
        where: dict[str, int] = {}
        for i, rel in enumerate(rels):
            for g, _ in rel:
                counts[g] += 1
                where[g] = i
        victim = next((g for g in gens if counts[g] == 1), None)
        if victim is None:
            break
        rels.pop(where[victim])
        gens.remove(victim)
    return Presentation(tuple(gens), tuple(tuple(r) for r in rels))


# ---------------------------------------------------------------------------
# abelian invariants


class AbelianInvariants(NamedTuple):
    divisors: tuple[int, ...]  # invariant factors > 1, each dividing the next
    free_rank: int

    def __str__(self):
        parts = [f"Z/{d}" for d in self.divisors] + ["Z"] * self.free_rank
        return " x ".join(parts) if parts else "trivial"


def relation_matrix(p: Presentation) -> list[dict[int, int]]:
    """Sparse exponent-sum rows ``{generator column: exponent sum}``."""
    check_type(p, Presentation, "presentation")
    column = {g: i for i, g in enumerate(p.generators)}
    rows = []
    for rel in p.relators:
        row: dict[int, int] = {}
        for g, e in rel:
            j = column[g]
            row[j] = row.get(j, 0) + e
        rows.append(row)
    return rows


def abelian_invariants(p: Presentation) -> AbelianInvariants:
    """Invariant factors and free rank from the Smith normal form of the
    exponent-sum relation matrix."""
    factors = smith_normal_form(relation_matrix(p))
    divisors = tuple(d for d in factors if d > 1)
    return AbelianInvariants(divisors, len(p.generators) - len(factors))
