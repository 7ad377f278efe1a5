"""The check-all verification suite: every desk-scale claim as a
machine-readable report.

Each check carries an ``anchor``: the mathematical statement being
verified, so reports are auditable on their own.  Statuses are ``pass``,
``fail`` or ``skipped``; the suite's aggregate status is ``fail`` if any
check fails, else ``pass``.

Every verdict is exact, and none rests on a sample: each check is a proof
or an exhaustive sweep.  The contraction lemma, for one, is decided from
finitely many facts in Q(L) and the grammar of reduced words.

The suite is fixed: its sizes are the module constants below, and its one
input is the set of n-ball radii that ``check_nball`` sweeps.
"""

from __future__ import annotations

import functools
import time
from bisect import bisect_right
from collections.abc import Iterator
from fractions import Fraction

from . import cubic, growth, permgrp, presentations, wreath
from .cosets import (
    abelian_invariants,
    close_normally,
    maps_onto,
    reidemeister_schreier,
    todd_coxeter,
)
from .cubic import CubicNumber, LAMBDA, LAMBDA_INV, WEIGHT, lambda_length
from .errors import check_int
from .words import _KLEIN, FOLLOWERS, LETTERS
from .wreath import _SPLIT_IMAGE, order


# the n-ball radii swept by default, the radius index's exhaustive range
# and the limit of its threshold edges, and the growth balls' radius
NBALL_RADII = (2, 5, 10, 20)
RADIUS_EXHAUSTIVE = 10_000
RADIUS_MAX = 1_000_000
GROWTH_MAXN = 8

# a -> (1 3), b -> (4 5), d -> (0 1)(2 3): the level-0 group mod (ab)^2 onto permgrp.z2_times_d8()
_Z2_D8_IMAGES = {"a": (0, 3, 2, 1, 4, 5), "b": (0, 1, 2, 3, 5, 4), "d": (1, 0, 3, 2, 4, 5)}


class CheckReport:
    def __init__(self, check_id: str, anchor: str, status: str, witnesses: dict | None = None):
        self.check_id = check_id
        self.anchor = anchor
        self.status = status  # pass | fail | skipped
        self.witnesses = {} if witnesses is None else witnesses
        self.wall_time = 0.0  # set by _timed

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "status": self.status,
            "witnesses": self.witnesses,
            "wall_time": round(self.wall_time, 4),
        }


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def _timed(builder):
    """Run a builder, a generator of CheckReports, into a list; each report's
    wall time runs from the previous report's yield (or from the call) to
    its own."""

    @functools.wraps(builder)
    def timed(*args, **kwargs) -> list[CheckReport]:
        reports = []
        t0 = time.perf_counter()
        for report in builder(*args, **kwargs):
            t1 = time.perf_counter()
            report.wall_time = t1 - t0
            reports.append(report)
            t0 = t1
        return reports

    return timed


# -- individual checks ------------------------------------------------------


@_timed
def check_weight_identities() -> Iterator[CheckReport]:
    a, b, c, d = (WEIGHT[x] for x in "abcd")
    identities = {
        "|a|+|c| = 1/L": a + c == LAMBDA_INV,
        "|a|+|d| = 1/L^2": a + d == LAMBDA**-2,
        "|b| = 1-|a|": b == CubicNumber(1) - a,
        "|b| = 1/L^3": b == LAMBDA**-3,
        "|b| = |c|+|d|": b == c + d,
        "2L^3 = L^2+L+1": 2 * LAMBDA**3 == LAMBDA**2 + LAMBDA + 1,
    }
    yield CheckReport(
        "weight-identities",
        "exact identities among the generator weights in Q(L)",
        _status(all(identities.values())),
        {k: bool(v) for k, v in identities.items()},
    )


def _splitting_identities() -> dict[str, bool]:
    """|g0| + |g1| = (|g| + |a|)/L for each inactive letter g, whose
    splitting is its first-level image (g0, g1)."""
    return {
        g: lambda_length(g0) + lambda_length(g1) == LAMBDA_INV * (WEIGHT[g] + WEIGHT["a"])
        for g, (g0, g1) in _SPLIT_IMAGE.items()
    }


@_timed
def check_splitting_identity() -> Iterator[CheckReport]:
    wit = _splitting_identities()
    yield CheckReport(
        "splitting-length-identity",
        "|x0|+|x1| = (|x|+|a|)/L for each inactive generator's splitting",
        _status(all(wit.values())),
        wit,
    )


# each letter's part in the letter excess n_bcd - n_a of a word
_EXCESS = {"a": -1, "b": 1, "c": 1, "d": 1}


def _excess_values() -> tuple[set[int], set[int]]:
    """The letter excesses of the reduced words, and of the cyclically
    reduced words of length >= 2, decided from ``FOLLOWERS``.

    A nonempty reduced word is a walk that appends a follower of the last
    letter, so its state (first letter, last letter, excess) fixes the
    states of its extensions, and a word of length >= 2 is cyclically
    reduced iff its first letter may follow its last.  A state whose excess
    leaves [-1, 1] is recorded but not extended, so the closure is finite
    for any grammar, and the values are complete when all lie in [-1, 1].
    """
    todo = [(g, g, _EXCESS[g]) for g in FOLLOWERS[""]]
    reduced = {0, *(e for _, _, e in todo)}
    longer: set[tuple[str, str, int]] = set()
    while todo:
        first, last, e = todo.pop()
        if abs(e) > 1:
            continue
        for g in FOLLOWERS[last]:
            state = (first, g, e + _EXCESS[g])
            if state not in longer:
                longer.add(state)
                todo.append(state)
    reduced.update(e for _, _, e in longer)
    cyclic = {e for first, last, e in longer if first in FOLLOWERS[last]}
    return reduced, cyclic


@_timed
def check_lemma_ineq() -> Iterator[CheckReport]:
    """The contraction lemma, proved from finite facts in Q(L):

    (a) every letter weight and 1/L are positive;
    (b) |g0| + |g1| = (|g| + |a|)/L for g in {b, c, d} (``_SPLIT_IMAGE``);
    (c) |k| <= |g| + |h| for every Klein merge gh -> k;
    (d) the excess e = n_bcd - n_a is <= 1 on reduced words and 0 on
        cyclically reduced words of length >= 2.

    ``split`` sends each letter of y = x (or x.a, for odd parity) to its
    image on the two sides and an a to nothing, so by (b) the sides weigh
    (|y| + e(y)|a|)/L before reduction.  Appending or cancelling a final a
    moves |y| by +-|a| and e(y)|a| by -+|a|, so that is (|x| + e(x)|a|)/L
    in both cases.  Each step of the ``reduce_word`` stack cancels a pair,
    lowering the weight by (a), or merges two letters, not raising it by
    (c).  So (d) gives the weak bound for every word and the strong one for
    minimal conjugates outside {b, c, d}: "" and a have e <= 0, the rest
    are cyclically reduced.
    ``lemma_split_contraction_check`` in ``tests/conftest.py`` is the
    word-by-word oracle.
    """
    positive = {f"|{g}|": WEIGHT[g].sign() > 0 for g in LETTERS}
    positive["1/L"] = LAMBDA_INV.sign() > 0
    splitting = _splitting_identities()
    merges = {
        f"{g}{h}->{k}": WEIGHT[k] <= WEIGHT[g] + WEIGHT[h] for (g, h), k in _KLEIN.items()
    }
    reduced, cyclic = _excess_values()
    ok = (
        all(positive.values())
        and all(splitting.values())
        and all(merges.values())
        and reduced <= {-1, 0, 1}
        and cyclic <= {0}
    )
    yield CheckReport(
        "lemma-contraction",
        "splitting contracts weighted length: |x0|+|x1| <= |x|/L for minimal "
        "conjugates outside {b,c,d}; <= (|x|+|a|)/L always",
        _status(ok),
        {
            "weights_positive": positive,
            "splitting_identity": splitting,
            "klein_merges": merges,
            "excess_reduced": sorted(reduced),
            "excess_cyclic": sorted(cyclic),
        },
    )


@_timed
def check_order_table() -> Iterator[CheckReport]:
    expected = {"a": 2, "b": 2, "c": 2, "d": 2, "ad": 4, "ac": 8, "ab": 16}
    got = {w: order(w) for w in expected}
    oracle = {w: wreath.order_by_squaring(w) for w in expected}
    ok = got == expected and oracle == expected
    yield CheckReport(
        "order-table",
        "orders in the limit group: generators 2, ad 4, ac 8, ab 16",
        _status(ok),
        {"computed": got, "squaring_oracle": oracle},
    )


@_timed
def check_nball(radii: tuple[int, ...] = NBALL_RADII) -> Iterator[CheckReport]:
    if not radii:
        yield CheckReport(
            "nball-torsion",
            "every word of length <= n certifies as 2-power torsion at "
            "level i(n)",
            "skipped",
            {"reason": "empty radius set"},
        )
        return
    for n in radii:
        rep = wreath.verify_nball_proposition(n)
        bound = rep.level + 2
        ok = rep.ok and rep.max_exponent <= bound
        yield CheckReport(
            f"nball-torsion-{n}",
            f"every word of length <= {n} certifies as 2-power torsion "
            f"at level i({n}) = {rep.level}, exponent <= i+2",
            _status(ok),
            rep.to_dict(),
        )


@_timed
def check_cosets() -> Iterator[CheckReport]:
    g0c = presentations.gamma0_coxeter_presentation()

    t = todd_coxeter(close_normally(g0c, ["ab"]))
    yield CheckReport(
        "coset-index-4",
        "the normal closure of ab has index 4 in the level-0 group",
        _status(t.status == "complete" and t.index == 4 and t.verify()),
        {"index": t.index, "status": t.status},
    )

    p16 = close_normally(g0c, ["abab"])
    t16 = todd_coxeter(p16)
    target = permgrp.z2_times_d8()
    # a map of the quotient onto a group of its order, the index, is one-to-one
    iso = (
        t16.status == "complete"
        and t16.index == target.order
        and t16.verify()
        and maps_onto(p16, _Z2_D8_IMAGES, target)
    )
    yield CheckReport(
        "coset-index-16-iso",
        "the normal closure of (ab)^2 has index 16 with quotient Z/2 x D8",
        _status(iso),
        {"index": t16.index, "isomorphic": iso},
    )

    txi = todd_coxeter(presentations.gamma_presentation(0), presentations.xi_generators())
    yield CheckReport(
        "coset-xi-index-2",
        "the parity kernel has index 2 at level 0",
        _status(txi.status == "complete" and txi.index == 2 and txi.verify()),
        {"index": txi.index},
    )

    rs = reidemeister_schreier(g0c, t16) if t16.status == "complete" else None
    inv = abelian_invariants(rs) if rs else None
    ok = inv is not None and inv.divisors == () and inv.free_rank == 3
    yield CheckReport(
        "h0-abelianization",
        "the normal closure of (ab)^2 abelianizes to Z^3",
        _status(ok),
        {"invariants": str(inv)},
    )

    inv1 = abelian_invariants(presentations.gamma_presentation(-1))
    inv0 = abelian_invariants(presentations.gamma_presentation(0))
    ok = (
        inv1.divisors == (2, 2, 2)
        and inv1.free_rank == 0
        and inv0.divisors == (2, 2, 2)
        and inv0.free_rank == 0
    )
    yield CheckReport(
        "abelianization-223",
        "the free product and the level-0 group abelianize to (Z/2)^3",
        _status(ok),
        {"free_product": str(inv1), "level_0": str(inv0)},
    )


@_timed
def check_index_bounds() -> Iterator[CheckReport]:
    ok = all(presentations.closed_form_check(n) for n in range(21))
    ib0 = presentations.index_bounds(0)
    ib1 = presentations.index_bounds(1)
    yield CheckReport(
        "index-bounds-closed-form",
        "alpha/beta recursions equal (13*4^n-1)/3 and (13*4^n-15*2^n+2)/3",
        _status(ok and (ib0.alpha, ib0.beta) == (4, 0) and (ib1.alpha, ib1.beta) == (17, 8)),
        {"n1": (ib1.alpha, ib1.beta)},
    )


@_timed
def check_core_lemma_corpus() -> Iterator[CheckReport]:
    violations = []
    applicable = 0
    for name, G in permgrp.lemma_corpus().items():
        for H in permgrp.enumerate_subgroups(G):
            rep = permgrp.check_core_lemma(G, H)
            if rep.applicable:
                applicable += 1
                if not rep.passed:
                    violations.append((name, rep.index_h, rep.core_index))
    yield CheckReport(
        "core-lemma-corpus",
        "for proper 2-power-index subgroups normalized by an index-<=2 "
        "subgroup, the core has index 2^b with b <= 2a-1",
        _status(not violations),
        {"applicable_pairs": applicable, "violations": violations},
    )

    A4 = permgrp.alternating_4()
    H = permgrp.closure([permgrp.from_cycles(4, [(0, 1, 2)])])
    rep = permgrp.check_core_lemma(A4, H)
    yield CheckReport(
        "core-lemma-a4-sharpness",
        "in A4 an index-4 subgroup has normalizer of index 4 (hypothesis "
        "fails) and core of index 12, not a 2-power",
        _status(not rep.applicable and rep.core_index == 12),
        {"applicable": rep.applicable, "core_index": rep.core_index, "reason": rep.reason},
    )


@_timed
def check_growth_cross() -> Iterator[CheckReport]:
    sig = growth.ball_grigorchuk(GROWTH_MAXN, use_signatures=True)
    pure = growth.ball_grigorchuk(GROWTH_MAXN, use_signatures=False)
    free_counts = [growth.ball_free_product(k) for k in range(GROWTH_MAXN + 1)]
    sizes = sig.ball_sizes()
    ok = (
        sizes == pure.ball_sizes()
        and sizes[:3] == [1, 5, 11]
        and all(g <= f for g, f in zip(sizes, free_counts))
    )
    yield CheckReport(
        "growth-cross-pipeline",
        "canonical-key and pure word-problem ball counts agree and are "
        "bounded by the free-product counts",
        _status(ok),
        {"ball_sizes": sizes, "free_sizes": free_counts},
    )


@_timed
def check_radius_index() -> Iterator[CheckReport]:
    """Check i(n) = radius_index(n) for n = 1..RADIUS_EXHAUSTIVE and at both
    ends T_k - 1, T_k of each threshold interval up to RADIUS_MAX, where a
    wrong comparison or threshold first shows.  L^k <= n iff the threshold
    T_k = ``cubic._power_ceiling(k)`` <= n, and each T_k is proved once,
    exactly in Q(L) (L^k <= T_k < L^k + 1), so i(n) = k - 1 on T_k <= n <
    T_(k+1), laid out bracket by bracket and compared with every i(n) in
    one pass; only a failed comparison walks the points to name the
    violations.
    """
    thresholds = [cubic._power_ceiling(0)]
    while thresholds[-1] <= RADIUS_MAX:
        thresholds.append(cubic._power_ceiling(len(thresholds)))
    exact = cubic.compare_power_to_int
    proved = [exact(k, t) <= 0 < exact(k, t - 1) for k, t in enumerate(thresholds)]
    edges = sorted({n for t in thresholds for n in (t - 1, t) if RADIUS_EXHAUSTIVE < n <= RADIUS_MAX})
    points = [*range(1, RADIUS_EXHAUSTIVE + 1), *edges]
    expected = []  # bracket k adds n = len(expected) + 1 .. T_(k+1) - 1, to RADIUS_EXHAUSTIVE
    for k, t in enumerate(thresholds[1:]):
        expected += [k - 1] * (min(t, RADIUS_EXHAUSTIVE + 1) - 1 - len(expected))
    expected += [bisect_right(thresholds, n) - 2 for n in edges]
    got = list(map(cubic.radius_index, points))
    bad = []
    if not all(proved) or got != expected:
        bad = [n for n, m, g in zip(points, expected, got) if g != m or not (proved[m + 1] and proved[m + 2])]
    lo, hi = cubic.log_lambda_enclosure(4)
    rounded_660 = lo >= Fraction(6595, 1000) and hi <= Fraction(6605, 1000)
    yield CheckReport(
        "radius-index-exact",
        "L^(i(n)+1) <= n < L^(i(n)+2) exactly, i nondecreasing; the "
        "enclosure of log_L(4) rounds to 6.60",
        _status(not bad and rounded_660),
        {
            "violations": bad[:10],
            "log_lambda_4": [float(lo), float(hi)],
            "rounds_to_6.60": rounded_660,
        },
    )


def check_all(nball_radii: tuple[int, ...] = NBALL_RADII) -> list[CheckReport]:
    """Every check, sorted by id.  The n-ball radii are checked before any
    check runs: a str or bytes is no sequence of radii, and each radius
    must be an int >= 2."""
    if isinstance(nball_radii, (str, bytes, bytearray)):
        raise TypeError(f"nball radii must be ints, not a {type(nball_radii).__name__}")
    nball_radii = tuple(nball_radii)
    for n in nball_radii:
        check_int(n, "radius", 2)
    reports = [
        *check_weight_identities(),
        *check_splitting_identity(),
        *check_lemma_ineq(),
        *check_order_table(),
        *check_nball(nball_radii),
        *check_cosets(),
        *check_index_bounds(),
        *check_core_lemma_corpus(),
        *check_growth_cross(),
        *check_radius_index(),
    ]
    reports.sort(key=lambda r: r.check_id)
    return reports


def worst_status(reports) -> str:
    return "fail" if any(r.status == "fail" for r in reports) else "pass"
