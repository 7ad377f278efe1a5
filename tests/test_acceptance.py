"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Each criterion asserts on the ``reports.check_*`` builders that
``grig check-all`` runs, at their fixed sizes and, for the n-balls, at
this module's radii, so every check exists once.  Criterion 3 also runs a seeded sample of 10 000 minimal
conjugates, drawn by ``conftest.random_reduced_word``, through
``conftest.lemma_split_contraction_check``, the independent oracle of the
contraction lemma's proof in ``check-all``.

All numeric claims are exact (zero tolerance) unless a rational enclosure
width is stated explicitly.  Criterion 2 is asserted twice over the
exhaustive n-balls for n = 2, 5, 10, 20: once here at a pinned table of
levels i(n) = 2, 6, 9, 13, each checked against its defining bracket
L^(i+1) <= n < L^(i+2) independently of radius_index, and once by the
builder at the levels radius_index computes.  Both use the exponent bound
i(n)+2.  An earlier statement of the claim pinned i(10) = 11 and the bound
i(n)+1; exact arithmetic refutes both.  L^10 ~ 8.17 <= 10 < L^11 ~ 10.08
gives i(10) = 9, and ab has order 16 in the limit group, onto which every
approximant maps, so the 2-ball needs exponent 4 > i(2)+1 = 3.  The pinned
test asserts that tightness.

Criterion 2 is proved for every radius n in 2..30 by an exhaustive sweep at
each of the 13 covering radii, the largest n of each level i(n).  A sweep
reads only its level, so the N-ball's sweep certifies every word that a
radius n <= N with i(n) = i(N) holds.  Each report's word count, exponent,
depth and histogram is pinned, so a smaller sweep cannot pass silently.
"""

import random

import pytest

from conftest import lemma_split_contraction_check, random_reduced_word
from grigorchuk import cubic, permgrp, reports, words, wreath
from grigorchuk.cubic import compare_power_to_int, radius_index
from grigorchuk.reports import (
    check_core_lemma_corpus,
    check_cosets,
    check_growth_cross,
    check_index_bounds,
    check_lemma_ineq,
    check_nball,
    check_order_table,
    check_radius_index,
    check_splitting_identity,
    check_weight_identities,
)
from grigorchuk.words import BCD, min_conjugate
from grigorchuk.wreath import (
    certify_exponent,
    order,
    verify_nball_proposition,
)

SEED = 2025
NBALL_RADII = (2, 5, 10, 20)


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def passed(reports) -> bool:
    return all(r.status == "pass" for r in reports)


# the largest radius of 2..30 at each level i(n)
COVERING_RADII = (2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 23, 28, 30)

# radius -> (level, word_count, max_exponent, max_depth, exponent histogram),
# captured from the sweep as it stood when these sweeps replaced a random
# sample of 2.9 million words over radii 2..30
COVERING_REPORTS = {
    2: (2, 11, 4, 3, {1: 5, 2: 2, 3: 2, 4: 2}),
    3: (4, 23, 4, 4, {1: 11, 2: 4, 3: 4, 4: 4}),
    4: (5, 41, 4, 5, {1: 13, 2: 6, 3: 10, 4: 12}),
    5: (6, 77, 4, 5, {1: 27, 2: 10, 3: 18, 4: 22}),
    6: (7, 131, 4, 5, {1: 27, 2: 24, 3: 32, 4: 48}),
    8: (8, 401, 4, 6, {1: 67, 2: 60, 3: 114, 4: 160}),
    10: (9, 1211, 5, 7, {1: 129, 2: 202, 3: 350, 4: 490, 5: 40}),
    12: (10, 3641, 5, 7, {1: 343, 2: 518, 3: 1040, 4: 1660, 5: 80}),
    15: (11, 19679, 6, 8, {1: 1037, 2: 3014, 3: 5532, 4: 8568, 5: 1248, 6: 280}),
    18: (12, 98411, 7, 9, {1: 3633, 2: 12138, 3: 26318, 4: 45462, 5: 7704, 6: 2832, 7: 324}),
    23: (
        13,
        1594319,
        7,
        9,
        {1: 35393, 2: 168840, 3: 395470, 4: 735744, 5: 171648, 6: 73576, 7: 13648},
    ),
    28: (
        14,
        23914841,
        7,
        9,
        {1: 500905, 2: 1988064, 3: 5782708, 4: 12383148, 5: 2137264, 6: 889408, 7: 233344},
    ),
    30: (
        15,
        71744531,
        7,
        10,
        {1: 999627, 2: 5570632, 3: 15727296, 4: 34355148, 5: 8954640, 6: 4609312, 7: 1527876},
    ),
}


@pytest.fixture(scope="module")
def nball_reports():
    radii = tuple(sorted({*NBALL_RADII, *COVERING_RADII}))
    return {r.check_id: r for r in check_nball(radii)}


@pytest.fixture(scope="module")
def coset_reports():
    return {r.check_id: r for r in check_cosets()}


def test_criterion_01_exact_metric_identities():
    reps = [*check_weight_identities(), *check_splitting_identity()]
    elapsed = sum(r.wall_time for r in reps)
    ok = passed(reps) and elapsed < 1.0
    assert report("01 exact metric identities", ok, f"{elapsed:.3f}s, zero tolerance")


def test_criterion_02_exhaustive_as_stated():
    """Every word of the n-ball certifies as 2-power torsion at the pinned
    level i(n), with exponent <= i(n)+2, for i(n) in {2, 6, 9, 13}.

    Each pinned level is checked by its bracket L^(i+1) <= n < L^(i+2),
    not taken from radius_index.  The claim once read i(10) = 11 and
    exponent <= i(n)+1.  Both are wrong: L^11 ~ 10.08 > 10 gives
    i(10) = 9, and ab has order 16, so any certificate for it needs
    exponent 4 while i(2)+1 = 3.  The base case is 4-torsion (exponent 2)
    and each of at most i(n) split steps adds at most 1, so i(n)+2 is the
    bound the recursion supports, and n = 2 attains it.
    """
    stated_levels = {2: 2, 5: 6, 10: 9, 20: 13}
    ok = True
    details = []
    for n, lvl in stated_levels.items():
        computed = radius_index(n)
        bracket_ok = compare_power_to_int(lvl + 1, n) <= 0 < compare_power_to_int(lvl + 2, n)
        rep = verify_nball_proposition(n, level=lvl)
        exp_ok = rep.ok and rep.max_exponent <= lvl + 2
        details.append(f"n={n}: i={computed} (stated {lvl}), max_exp={rep.max_exponent}")
        ok = ok and bracket_ok and computed == lvl and exp_ok
        if n == 2:
            # tight: ord(ab) = 16 needs exponent 4 = i(2)+2
            ok = (
                ok
                and rep.max_exponent == 4
                and certify_exponent("ab", 2)[0] == 4
                and order("ab") == 16
            )
    assert report("02 n-ball torsion (as stated)", ok, "; ".join(details))


def test_criterion_02_exhaustive_computed_levels(nball_reports):
    """Same sweep at the computed levels with the bound i(n)+2, which the
    recursion's base case (4-torsion at level 0) actually supports."""
    wits = [nball_reports[f"nball-torsion-{n}"].witnesses for n in NBALL_RADII]
    ok = passed(nball_reports[f"nball-torsion-{n}"] for n in NBALL_RADII)
    details = [
        f"n={w['radius']}: i={w['level']}, words={w['word_count']}, max_exp={w['max_exponent']}"
        for w in wits
    ]
    assert report("02 n-ball torsion (computed levels, bound i+2)", ok, "; ".join(details))


def test_criterion_02_covering_radii(nball_reports):
    """Every word of length <= n, for each n in 2..30, certifies at level
    i(n): i is nondecreasing, so the covering radii are one per level."""
    largest = {}
    for n in range(2, 31):
        largest[radius_index(n)] = n
    assert tuple(largest.values()) == COVERING_RADII
    reps = [nball_reports[f"nball-torsion-{n}"] for n in COVERING_RADII]
    for n, rep in zip(COVERING_RADII, reps):
        w = rep.witnesses
        histogram = {int(e): count for e, count in w["exponent_histogram"].items()}
        got = (w["level"], w["word_count"], w["max_exponent"], w["max_depth"], histogram)
        assert got == COVERING_REPORTS[n], n
    words = sum(r.witnesses["word_count"] for r in reps)
    failures = sum(len(r.witnesses["failures"]) for r in reps)
    assert report(
        "02 n-ball torsion (covering radii)",
        passed(reps),
        f"{words} words over the {len(reps)} radii covering n=2..30, {failures} failures",
    )


LEMMA_SAMPLES = 10_000


def sampled_lemma_violations(samples: int = LEMMA_SAMPLES) -> tuple[int, list]:
    """The proof's independent oracle: seeded random reduced words of
    length 0..24, drawn until ``samples`` minimal conjugates lie outside
    {b, c, d}, each run through ``lemma_split_contraction_check``.  Returns
    the number of words drawn and the (bound, word) violations, one verdict
    per distinct word."""
    rng = random.Random(SEED)
    weak: dict[str, bool] = {}
    strong: dict[str, bool] = {}
    drawn = strong_checked = 0
    while strong_checked < samples:
        w = random_reduced_word(rng.randint(0, 24), rng)
        drawn += 1
        if w not in weak:
            weak[w] = lemma_split_contraction_check(w).weak_holds
        m = min_conjugate(w)
        if m in BCD:
            continue
        if m not in strong:
            strong[m] = lemma_split_contraction_check(m).strong_holds
        strong_checked += 1
    violations = [("weak", w) for w, ok in weak.items() if not ok]
    violations += [("strong", m) for m, ok in strong.items() if not ok]
    return drawn, violations


def test_criterion_03_contraction_inequality():
    (rep,) = check_lemma_ineq()
    drawn, violations = sampled_lemma_violations()
    # the words SEED's stream yields before the 10 000th minimal conjugate
    ok = rep.status == "pass" and not violations and drawn == 11_048
    detail = f"proved exactly; oracle: {drawn} words, {LEMMA_SAMPLES} minimal conjugates"
    assert report("03 contraction inequality", ok, detail)


def test_negative_control_lemma_perturbed_weight(monkeypatch):
    """A perturbed letter weight breaks the splitting identities the proof
    rests on."""
    monkeypatch.setitem(cubic.WEIGHT, "c", cubic.WEIGHT["d"])
    (rep,) = check_lemma_ineq()
    assert rep.status == "fail"
    assert rep.witnesses["splitting_identity"] == {"b": True, "c": False, "d": True}


def test_negative_control_lemma_wrong_split_image(monkeypatch):
    """d = (a, b) instead of (1, b): the splitting gains |a| per d, so the
    proof and the sampled oracle both fail."""
    monkeypatch.setitem(wreath._SPLIT_IMAGE, "d", ("a", "b"))
    (rep,) = check_lemma_ineq()
    assert rep.status == "fail"
    assert rep.witnesses["splitting_identity"] == {"b": True, "c": True, "d": False}
    _drawn, violations = sampled_lemma_violations(200)
    assert violations


def test_negative_control_lemma_grammar_allows_bb(monkeypatch):
    """A grammar in which b may follow b reaches letter excess 2, so the
    closure (d) fails the proof."""
    monkeypatch.setitem(words.FOLLOWERS, "b", "ab")
    (rep,) = check_lemma_ineq()
    assert rep.status == "fail"
    assert 2 in rep.witnesses["excess_reduced"]


def test_criterion_04_order_table():
    (rep,) = check_order_table()
    assert report("04 order table", rep.status == "pass", f"{rep.witnesses['computed']}, oracle agrees")


def test_criterion_05_quotient_structure(coset_reports):
    reps = [coset_reports[i] for i in ("coset-index-16-iso", "coset-index-4", "coset-xi-index-2")]
    elapsed = sum(r.wall_time for r in reps)
    iso = coset_reports["coset-index-16-iso"].witnesses["isomorphic"]
    ok = passed(reps) and elapsed < 3.0
    assert report(
        "05 quotient structure",
        ok,
        f"indices 16/4/2, quotient is Z/2 x D8: {iso}, {elapsed:.2f}s",
    )


@pytest.mark.parametrize(
    "change",
    [{"d": (1, 2, 3, 0, 4, 5)}, {"b": (0, 1, 2, 3, 4, 5)}],
    ids=["d-rotation-breaks-dd", "b-trivial-onto-d8"],
)
def test_negative_control_quotient_images(monkeypatch, change):
    """d -> (0 1 2 3) still generates all of Z/2 x D8 but leaves d^2 a
    half-turn; b -> 1 kills every relator but generates only D8: each is
    refused by one half of the certificate alone."""
    monkeypatch.setattr(reports, "_Z2_D8_IMAGES", {**reports._Z2_D8_IMAGES, **change})
    rep = next(r for r in check_cosets() if r.check_id == "coset-index-16-iso")
    assert rep.status == "fail"
    assert rep.witnesses == {"index": 16, "isomorphic": False}


def test_criterion_06_h0_abelianization(coset_reports):
    reps = [coset_reports[i] for i in ("h0-abelianization", "abelianization-223")]
    inv = coset_reports["h0-abelianization"].witnesses["invariants"]
    assert report("06 subgroup abelianization", passed(reps), f"invariants {inv}")


def test_criterion_07_index_bound_arithmetic():
    (rep,) = check_index_bounds()
    assert report("07 index-bound closed forms", rep.status == "pass", "n <= 20, exact bignum")


def test_criterion_08_core_lemma():
    corpus, sharp = check_core_lemma_corpus()
    assert report(
        "08 core-index bound",
        passed([corpus, sharp]),
        f"{corpus.witnesses['applicable_pairs']} applicable pairs, "
        f"{len(corpus.witnesses['violations'])} violations; "
        f"A4 core index {sharp.witnesses['core_index']}",
    )


def test_negative_control_core_lemma_corpus_lists_each_violation(monkeypatch):
    """A core lemma that fails every applicable pair fails the corpus check,
    which lists each pair as a violation."""
    real = permgrp.check_core_lemma

    def failing(G, H):
        rep = real(G, H)
        return rep._replace(passed=False) if rep.applicable else rep

    monkeypatch.setattr(permgrp, "check_core_lemma", failing)
    corpus, _sharp = check_core_lemma_corpus()
    assert corpus.status == "fail"
    assert len(corpus.witnesses["violations"]) == corpus.witnesses["applicable_pairs"] > 0


def test_criterion_09_growth_cross_validation():
    (rep,) = check_growth_cross()
    sizes = rep.witnesses["ball_sizes"]
    ok = rep.status == "pass" and len(sizes) == 9
    assert report("09 growth cross-validation", ok, f"balls {sizes}")


def test_negative_control_radius_threshold_off_by_one(monkeypatch):
    """A threshold ceil(L^k) one off at a single k fails its proof, in
    either direction."""
    real = cubic._power_ceiling
    for delta in (1, -1):
        monkeypatch.setattr(cubic, "_power_ceiling", lambda k: real(k) + delta * (k == 12))
        (rep,) = check_radius_index()
        assert rep.status == "fail"
        assert rep.witnesses["violations"]


def test_negative_control_radius_index_one_off(monkeypatch):
    """i(777) + 1 lies above 777's bracket; i(n) - 1 for every n stays
    nondecreasing but lies below every bracket."""
    real = cubic.radius_index
    monkeypatch.setattr(cubic, "radius_index", lambda n: real(n) + (n == 777))
    (rep,) = check_radius_index()
    assert rep.status == "fail"
    assert rep.witnesses["violations"][0] == 777
    monkeypatch.setattr(cubic, "radius_index", lambda n: real(n) - 1)
    (rep,) = check_radius_index()
    assert rep.status == "fail"
    assert rep.witnesses["violations"] == list(range(1, 11))


def test_radius_index_check_evaluates_each_point_once(monkeypatch):
    """The check evaluates radius_index once at each of its
    RADIUS_EXHAUSTIVE + 44 points, whether it passes or fails: a failed
    comparison names the violations from the same results."""
    real = cubic.radius_index
    for off, status in ((0, "pass"), (1, "fail")):
        points = []
        monkeypatch.setattr(cubic, "radius_index", lambda n: points.append(n) or real(n) + off * (n == 777))
        (rep,) = check_radius_index()
        assert rep.status == status
        assert len(points) == len(set(points)) == reports.RADIUS_EXHAUSTIVE + 44 == 10_044


def test_radius_edge_beyond_exhaustive_is_checked(monkeypatch):
    """i(n) + 1 at the single n = T_60 = ceil(L^60) = 297 626, far past the
    exhaustive range, fails: every threshold's two ends are checked up to
    RADIUS_MAX."""
    real = cubic.radius_index
    monkeypatch.setattr(cubic, "radius_index", lambda n: real(n) + (n == cubic._power_ceiling(60)))
    (rep,) = check_radius_index()
    assert rep.status == "fail"
    assert rep.witnesses["violations"] == [297626]


def test_criterion_10_radius_index_and_log():
    (rep,) = check_radius_index()
    lo, hi = rep.witnesses["log_lambda_4"]
    assert report(
        "10 radius index exactness",
        rep.status == "pass",
        f"{len(rep.witnesses['violations'])} bracket violations, "
        f"log_L(4) in [{lo:.7f}, {hi:.7f}]",
    )
