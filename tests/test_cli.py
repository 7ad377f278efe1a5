import contextlib
import csv
import io
import json
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grigorchuk import cli, growth, presentations, reports
from grigorchuk.cli import main
from grigorchuk.cubic import WEIGHT, CubicNumber
from grigorchuk.words import format_word, iter_ball_free


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "abba")
    assert code == 0
    assert out.strip() == "1"


def test_reduce_min_conjugate(capsys):
    code, out, _ = run(capsys, "reduce", "aba", "--min-conjugate")
    assert code == 0
    assert out.split() == ["aba", "b"]  # already reduced; conjugate is shorter


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "reduce", "abx")
    assert code == 2
    assert "position 2" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_order(capsys):
    assert run(capsys, "order", "ad")[1].strip() == "4"
    assert run(capsys, "order", "ab")[1].strip() == "16"


def test_split(capsys):
    code, out, _ = run(capsys, "split", "b")
    assert code == 0
    assert out.split() == ["a", "c"]


def test_split_active_word_is_usage_error(capsys):
    code, out, err = run(capsys, "split", "ab")
    assert (code, out) == (2, "")
    assert err == "error: ab is active (odd number of a's); split applies to its square or to w*a\n"


def test_certify_json(capsys):
    code, out, _ = run(capsys, "certify", "ad", "--level", "3")
    assert code == 0
    d = json.loads(out)
    assert d["word"] == "ad"
    assert d["exponent"] == 2
    assert d["tree"]["rule"] == "active-square"


def test_certify_radius_failure_exit_1(capsys):
    code, out, _ = run(capsys, "certify", "abab", "--level", "2")
    assert code == 1
    assert json.loads(out)["failed"]


def test_verify_nball(capsys):
    code, out, _ = run(capsys, "verify-nball", "2")
    assert code == 0
    d = json.loads(out)
    assert d["level"] == 2
    assert d["word_count"] == 11
    assert d["failures"] == []


def test_ball_lists_words_and_lengths(capsys):
    code, out, _ = run(capsys, "ball", "2")
    assert code == 0
    assert out.split() == ["1", "a", "b", "c", "d", "ab", "ac", "ad", "ba", "ca", "da"]
    code, out, _ = run(capsys, "ball", "1", "--lengths")
    assert code == 0
    lines = [line.split(" ", 1) for line in out.splitlines()]
    assert [w for w, _ in lines] == ["1", "a", "b", "c", "d"]
    # the printed form is canonical, so equal strings are equal numbers
    assert [x for _, x in lines] == [str(CubicNumber(0))] + [str(WEIGHT[x]) for x in "abcd"]


def test_ball_cap_exit_3(capsys):
    """A ball larger than the cap exits 3 before it prints any word."""
    code, out, err = run(capsys, "ball", "10", "--cap", "50")
    assert code == 3
    assert out == ""
    assert "(partial: 50)" in err


def test_ball_cap_walks_no_word(capsys, monkeypatch):
    """The cap is decided from the ball's size: the 40-ball has over 10^10
    words, and no word is walked to find it over a cap of 10^8."""

    def walk(n):
        raise AssertionError("the cap walked the ball")

    monkeypatch.setattr(cli, "iter_ball_free", walk)
    code, out, _err = run(capsys, "ball", "40", "--cap", "100000000")
    assert code == 3
    assert out == ""


def test_ball_cap_exits_3_exactly_when_the_ball_is_larger(capsys):
    balls = [growth.ball_free_product(k) for k in range(13)]
    for n in range(13):
        for cap in sorted({b + d for b in balls[: n + 1] for d in (-1, 0, 1)} - {0}):
            code, out, _err = run(capsys, "ball", str(n), "--cap", str(cap))
            assert (code, out == "") == ((3, True) if balls[n] > cap else (0, False)), (n, cap)


class _Enough(Exception):
    pass


class _FirstLines(io.StringIO):
    """A stdout that stops the run with _Enough once it holds ``lines``
    lines."""

    def __init__(self, lines: int):
        super().__init__()
        self.lines = lines

    def write(self, s):
        n = super().write(s)
        if self.getvalue().count("\n") >= self.lines:
            raise _Enough
        return n


def test_ball_streams_its_words():
    """The 40-ball has over 10^10 words, and its first 100 are printed
    within a second."""
    out = _FirstLines(100)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), pytest.raises(_Enough):
        main(["ball", "40"])
    assert time.perf_counter() - t0 < 1.0
    assert out.getvalue().split() == [format_word(w) for w in islice(iter_ball_free(40), 100)]


@pytest.mark.parametrize(
    "argv",
    [
        ["ball", "3", "--cap", "-1"],
        ["ball", "3", "--cap", "0"],
        ["coset", "--level", "0", "--xi", "--cap", "-5"],
        ["coset", "--gamma0", "--cap", "0"],
    ],
)
def test_cap_below_one_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "cap must be >= 1" in err


def test_growth_csv(capsys):
    code, out, _ = run(capsys, "growth", "--group", "free", "--maxn", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("radius,ball,sphere")
    assert lines[1].split(",")[:3] == ["0", "1", "1"]
    assert lines[-1].split(",")[:3] == ["3", "23", "12"]


@pytest.mark.parametrize("group", ["grig", "free"])
def test_growth_floats_enclose_the_entropy(capsys, group):
    code, out, _ = run(capsys, "growth", "--group", group, "--maxn", "10")
    assert code == 0
    table = growth.ball_grigorchuk(10) if group == "grig" else growth.growth_table_free(10)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(table.rows) == 11
    for row, exact in zip(rows, table.rows):
        assert int(row["radius"]) == exact.radius
        if exact.radius == 0:
            continue
        lo, hi = exact.entropy_enclosure
        lo_f, hi_f = float(row["entropy_lo"]), float(row["entropy_hi"])
        assert Fraction(lo_f) <= lo and Fraction(hi_f) >= hi, exact.radius
        assert lo_f < hi_f, exact.radius


@pytest.mark.parametrize("option", [["--maxn", "-1"], ["--maxn", "3", "--budget", "0"]])
def test_growth_rejects_bad_radius_or_budget(capsys, option):
    code, out, err = run(capsys, "growth", *option)
    assert code == 2
    assert out == ""
    assert "must be >= " in err


def test_growth_budget_of_the_ball_size_completes(capsys):
    # the 6-ball has 108 elements
    code, out, _ = run(capsys, "growth", "--maxn", "6", "--budget", "108")
    assert code == 0
    assert out.strip().splitlines()[-1].split(",")[:3] == ["6", "108", "40"]


def test_growth_free_rejects_budget(capsys):
    code, out, err = run(capsys, "growth", "--group", "free", "--maxn", "3", "--budget", "5")
    assert code == 2
    assert out == ""
    assert "--budget applies only to --group grig" in err


def test_present_roundtrip(capsys):
    code, out, _ = run(capsys, "present", "--level", "0")
    assert code == 0
    assert out.startswith("gens: a b c d")
    assert "rel: adadadad" in out


def test_present_gamma0_coxeter_roundtrips_through_coset_pres(capsys, tmp_path):
    code, out, _ = run(capsys, "present", "--gamma0-coxeter")
    assert code == 0
    assert out == presentations.gamma0_coxeter_presentation().to_text()
    pres = tmp_path / "gamma0.pres"
    pres.write_text(out)
    from_file = run(capsys, "coset", "--pres", str(pres), "--close", "abab")
    assert from_file == run(capsys, "coset", "--gamma0", "--close", "abab")
    assert json.loads(from_file[1]) == {"index": 16, "status": "complete"}


def test_relators(capsys):
    code, out, _ = run(capsys, "relators", "--level", "0")
    assert code == 0
    assert "u_0: adadadad" in out


def test_coset_gamma0(capsys):
    code, out, _ = run(capsys, "coset", "--gamma0", "--close", "abab")
    assert code == 0
    d = json.loads(out)
    assert d == {"index": 16, "status": "complete"}


def test_coset_emit_quotient(capsys):
    code, out, _ = run(capsys, "coset", "--gamma0", "--close", "abab", "--emit-quotient")
    assert code == 0
    d = json.loads(out)
    assert (d["index"], d["quotient_order"]) == (16, 16)
    # one fixed-point-free involution on the 16 cosets per generator a, b, d
    assert len(d["generator_cycles"]) == 3
    for cycles in d["generator_cycles"]:
        assert sorted(x for c in cycles for x in c) == list(range(16))
        assert all(len(c) == 2 for c in cycles)


def test_coset_emit_subgroup_pres(capsys, tmp_path):
    code, out, _ = run(capsys, "coset", "--level", "0", "--xi", "--emit-subgroup-pres")
    assert code == 0
    head, text = out[: out.index("gens:")], out[out.index("gens:") :]
    assert json.loads(head) == {"index": 2, "status": "complete"}
    assert text.startswith("gens: x0 x1 x2 x3 x4 x5 x6\n")
    # the emitted presentation, lone-generator relators included, reads back
    pres = tmp_path / "xi.pres"
    pres.write_text(text)
    code, out, _ = run(capsys, "abelianize", "--pres", str(pres))
    assert code == 0
    assert json.loads(out)["invariants"] == "Z/2 x Z/2 x Z/2 x Z/2"


def test_coset_emit_subgroup_pres_overflow_exit_3(capsys):
    code, out, _ = run(capsys, "coset", "--level", "0", "--xi", "--cap", "1", "--emit-subgroup-pres")
    assert code == 3
    assert json.loads(out) == {"index": 1, "status": "overflowed"}


def test_coset_missing_source():
    with pytest.raises(SystemExit):
        main(["coset"])


@pytest.mark.parametrize("command", ["coset", "abelianize"])
def test_close_with_undeclared_generator_exit_2(capsys, command):
    code, _, err = run(capsys, command, "--gamma0", "--close", "acac")
    assert code == 2
    assert "undeclared generator 'c'" in err


def test_subgroup_with_undeclared_generator_exit_2(capsys):
    code, _, err = run(capsys, "coset", "--gamma0", "--subgroup", "ac")
    assert code == 2
    assert "subgroup word uses undeclared generator 'c'" in err


def test_abelianize(capsys):
    code, out, _ = run(capsys, "abelianize", "--level", "0")
    assert code == 0
    d = json.loads(out)
    assert d["divisors"] == [2, 2, 2]
    assert d["free_rank"] == 0


def test_check_all_deterministic_json(capsys):
    args = ["check-all", "--no-timestamp"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical without the timestamp
    d = json.loads(out1)
    assert d["status"] == "pass"
    ids = [c["check_id"] for c in d["checks"]]
    assert ids == sorted(ids)


def test_check_all_config_and_csv(capsys, monkeypatch):
    args = ["check-all", "--nball", "2", "--no-timestamp"]
    given = []
    real = reports.check_all
    monkeypatch.setattr(reports, "check_all", lambda radii: given.append(radii) or real(radii))
    code, out, _ = run(capsys, *args)
    assert code == 0
    checks = json.loads(out)["checks"]
    # the radii reach the suite, and the output is their in-process run
    assert given == [(2,)]
    in_process = [{k: v for k, v in r.to_dict().items() if k != "wall_time"} for r in real((2,))]
    assert checks == json.loads(json.dumps(in_process))
    # with the timestamp, csv keeps each check's wall time
    code, out, _ = run(capsys, *(a for a in args if a != "--no-timestamp"), "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == ["check_id", "anchor", "status", "witnesses", "wall_time"]
    assert [r["check_id"] for r in rows] == [c["check_id"] for c in checks]
    assert [json.loads(r["witnesses"]) for r in rows] == [c["witnesses"] for c in checks]


def test_check_all_nball_skip(capsys):
    code, out, _ = run(capsys, "check-all", "--no-timestamp", "--nball", "0")
    assert code == 0
    d = json.loads(out)
    nball = [c for c in d["checks"] if c["check_id"].startswith("nball")]
    assert len(nball) == 1
    assert nball[0]["status"] == "skipped"


def test_check_all_repeated_radius_is_checked_once(capsys):
    """Each radius is swept once, in the order given, however often it is
    named."""
    code, out, _ = run(capsys, "check-all", "--no-timestamp", "--nball", "5,2,5,0,2")
    assert code == 0
    ids = [c["check_id"] for c in json.loads(out)["checks"]]
    assert [i for i in ids if i.startswith("nball")] == ["nball-torsion-2", "nball-torsion-5"]
    assert len(ids) == len(set(ids))
    assert cli._nball_radii("5,2,5,0,2") == (5, 2)


_BAD_NBALL = {
    "1": "--nball radii must be >= 2 (or 0 to skip), not 1",
    "-3": "--nball radii must be >= 2 (or 0 to skip), not -3",
    "5,1": "--nball radii must be >= 2 (or 0 to skip), not 1",
    "x": "--nball radii must be integers, not 'x'",
}


@pytest.mark.parametrize("radii", list(_BAD_NBALL))
def test_check_all_rejects_bad_nball_before_any_check(capsys, monkeypatch, radii):
    def no_checks(radii):
        raise AssertionError("a check ran before --nball was validated")

    monkeypatch.setattr(reports, "check_all", no_checks)
    code, out, err = run(capsys, "check-all", "--nball", radii)
    assert (code, out) == (2, "")
    assert _BAD_NBALL[radii] in err


@pytest.mark.parametrize(
    "radii, error", [(b"ab", TypeError), ("25", TypeError), ((1,), ValueError), ((5, 2.0), TypeError)]
)
def test_check_all_rejects_bad_radii_before_any_check(monkeypatch, radii, error):
    def no_check():
        raise AssertionError("a check ran before the radii were validated")

    monkeypatch.setattr(reports, "check_weight_identities", no_check)
    with pytest.raises(error):
        reports.check_all(radii)


_BUILDERS = [
    reports.check_weight_identities,
    reports.check_splitting_identity,
    reports.check_lemma_ineq,
    reports.check_order_table,
    reports.check_nball,
    reports.check_cosets,
    reports.check_index_bounds,
    reports.check_core_lemma_corpus,
    reports.check_growth_cross,
    reports.check_radius_index,
]


@pytest.mark.parametrize("builder", _BUILDERS, ids=lambda b: b.__name__)
def test_single_report_builders_time_themselves(builder):
    """Every check-all builder returns a list of reports, each timed."""
    out = builder()
    assert isinstance(out, list) and out
    assert all(r.status == "pass" and r.wall_time > 0 for r in out)


def test_timed_charges_each_report_its_own_part():
    """Each report's wall time runs from the previous yield to its own, so
    it covers the work before it and none of the work before or after."""
    import time

    naps = (0.1, 0.3, 0.0)

    @reports._timed
    def builder():
        for i, nap in enumerate(naps):
            time.sleep(nap)
            yield reports.CheckReport(f"fake-{i}", "a sleep", "pass")

    out = builder()
    assert [r.check_id for r in out] == ["fake-0", "fake-1", "fake-2"]
    assert naps[0] <= out[0].wall_time < naps[1]
    assert naps[1] <= out[1].wall_time < naps[1] + naps[0]
    assert out[2].wall_time < naps[0]


def test_negative_control_tampered_weight(capsys, monkeypatch):
    """A corrupted letter weight must trip the exact identity check."""
    from grigorchuk import cubic

    tampered = dict(cubic.WEIGHT)
    tampered["c"] = tampered["d"]
    monkeypatch.setattr(reports, "WEIGHT", tampered)
    (rep,) = reports.check_weight_identities()
    assert rep.status == "fail"
    assert rep.witnesses["|a|+|c| = 1/L"] is False


def test_negative_control_wrong_order(monkeypatch):
    """A wrong order must trip the order table."""
    monkeypatch.setattr(reports, "order", lambda w: 2)
    (rep,) = reports.check_order_table()
    assert rep.status == "fail"
    assert rep.witnesses["computed"]["ab"] == 2


def test_negative_control_nball_level_too_low(monkeypatch):
    """At level 1 the word ab leaves the ball of the radius test, so the
    2-ball check must report its failures."""
    from grigorchuk import wreath

    real = wreath.cubic.radius_index
    monkeypatch.setattr(wreath.cubic, "radius_index", lambda n: 1 if n == 2 else real(n))
    (rep,) = reports.check_nball((2,))
    assert rep.status == "fail"
    assert rep.witnesses["level"] == 1
    assert rep.witnesses["failures"]


# SHA-256 of `grig check-all --no-timestamp` at the default radii;
# it must change only with a deliberate change to some check's output
_CHECK_ALL_SHA256 = "cc81952bff7346bd3dd08dff3078f486cbbff2b1abff498ae40f9f25def5318c"


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_check_all_output_is_pinned(hash_seed):
    import hashlib
    import os
    import subprocess
    import sys

    import grigorchuk

    src = os.path.dirname(os.path.dirname(grigorchuk.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run(
        [sys.executable, "-m", "grigorchuk.cli", "check-all", "--no-timestamp"],
        env=env,
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == _CHECK_ALL_SHA256


def test_lemma_witnesses_are_pinned():
    """The proof's facts, each exact: positive weights, the splitting
    identities, the Klein merges and the letter excesses."""
    (rep,) = reports.check_lemma_ineq()
    assert rep.status == "pass"
    assert rep.witnesses == {
        "weights_positive": {"|a|": True, "|b|": True, "|c|": True, "|d|": True, "1/L": True},
        "splitting_identity": {"b": True, "c": True, "d": True},
        "klein_merges": dict.fromkeys(["bc->d", "cb->d", "bd->c", "db->c", "cd->b", "dc->b"], True),
        "excess_reduced": [-1, 0, 1],
        "excess_cyclic": [0],
    }


def test_check_all_ids_match_the_benchmark_reference():
    """The benchmark times each check by the ids its reference lists, so a
    renamed or added check must fail here first."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    assert [r.check_id for r in reports.check_all()] == reference.CHECK_IDS


# odd inputs for every subcommand, with the exit code each must give; MISSING
# stands for a file that does not exist and PRES for a valid presentation
# file (caps below 1, bad --nball radii and undeclared generators have their
# own tests above)
_ODD_INPUTS = [
    (["reduce", ""], 0),
    (["reduce", "1"], 0),
    (["reduce", "xyz"], 2),
    (["order", ""], 0),
    (["order", "e"], 2),
    (["split", "1"], 0),
    (["split", "q"], 2),
    (["certify", ""], 0),
    (["certify", "ab", "--level", "-1"], 1),
    (["certify", "ab", "--level", "-2"], 2),
    (["verify-nball", "1"], 2),
    (["verify-nball", "-1"], 2),
    (["ball", "0"], 0),
    (["ball", "-1"], 2),
    (["ball", "1000000", "--cap", "10"], 3),
    (["ball", "3", "--cap", "5"], 3),
    (["growth", "--maxn", "0"], 0),
    (["growth", "--group", "free", "--maxn", "-1"], 2),
    (["relators", "--level", "-1"], 2),
    (["relators", "--level", "40"], 2),
    (["present", "--level", "-2"], 2),
    (["present", "--level", "40"], 2),
    (["coset"], 2),
    (["coset", "--level", "40"], 2),
    (["coset", "--gamma0"], 2),  # nothing to close or quotient by: infinite index
    (["coset", "--level", "1"], 2),
    (["coset", "--pres", "MISSING"], 2),
    # one presentation source at a time
    (["coset", "--gamma0", "--level", "3", "--close", "abab"], 2),
    # no closing word: still the infinite group
    (["coset", "--gamma0", "--close", ","], 2),
    (["abelianize"], 2),
    (["abelianize", "--level", "-5"], 2),
    (["abelianize", "--level", "-1", "--pres", "PRES"], 2),
    (["abelianize", "--gamma0", "--close", ""], 0),
    (["check-all", "--config", "MISSING"], 2),
    (["check-all", "--seed", "7"], 2),
]


@pytest.mark.parametrize("argv, expected", _ODD_INPUTS, ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_odd_inputs_exit_cleanly_and_fast(capsys, tmp_path, argv, expected):
    """Each odd input gives its exit code within a second, and only a usage
    error or an exceeded cap writes to stderr, and then nothing to stdout;
    an exception other than SystemExit would fail the test, as a traceback
    would show."""
    pres = tmp_path / "gamma0.pres"
    pres.write_text(presentations.gamma0_coxeter_presentation().to_text())
    files = {"MISSING": str(tmp_path / "missing"), "PRES": str(pres)}
    argv = [files.get(a, a) for a in argv]
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse, and a presentation source left out
        code = exc.code
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == expected
    assert (err != "") == (expected in (2, 3))
    if err:
        assert out == ""
    assert elapsed < 1.0


# the vocabulary of the argv property test: odd words, integers -3..6 and a
# file that does not exist (MISSING) as values; as options, each
# subcommand's own (True when it takes a value) and --format csv.  coset and
# abelianize always name a presentation source, and coset always ends in a
# cap of at most 5000 cosets; check-all takes well under a second
_VALUES = [
    "", "1", "a", "abba", "xyz", "a b", "ab,ad", "adadadad", "dcb", "-a", "acab", "free",
    *(str(n) for n in range(-3, 7)),
    "MISSING",
]
_POSITIONAL = {"reduce", "order", "split", "certify", "verify-nball", "ball"}
_PRES_OPTIONS = {"--pres": True, "--gamma0": False, "--level": True, "--close": True}
_OPTIONS = {
    "reduce": {"--min-conjugate": False},
    "order": {},
    "split": {},
    "certify": {"--level": True},
    "verify-nball": {},
    "ball": {"--cap": True, "--lengths": False},
    "growth": {"--group": True, "--maxn": True, "--budget": True},
    "relators": {"--level": True},
    "present": {"--level": True, "--gamma0-coxeter": False},
    "coset": {
        **_PRES_OPTIONS, "--subgroup": True, "--xi": False,
        "--emit-quotient": False, "--emit-subgroup-pres": False,
    },
    "abelianize": _PRES_OPTIONS,
    "check-all": {"--nball": True, "--no-timestamp": False},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    values = st.sampled_from(_VALUES)
    chunks = st.one_of(
        values.map(lambda v: [v]),
        st.just(["--format", "csv"]),
        *(
            values.map(lambda v, o=option: [o, v]) if takes_value else st.just([option])
            for option, takes_value in _OPTIONS[command].items()
        ),
    )
    argv = [command]
    if command in _POSITIONAL:
        argv.append(draw(values))
    if command in ("coset", "abelianize"):
        argv += draw(st.sampled_from([["--gamma0"]] + [["--level", str(n)] for n in range(-3, 7)]))
    for chunk in draw(st.lists(chunks, max_size=4)):
        argv.extend(chunk)
    if command == "coset":
        argv += ["--cap", str(draw(st.integers(-3, 5000)))]
    return argv


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_any_argv_exits_cleanly_and_fast(tmp_path_factory, argv):
    """Every argv from the vocabulary exits 0, 1, 2 or 3 within a second
    and prints no traceback; any exception other than SystemExit fails."""
    missing = str(tmp_path_factory.getbasetemp() / "no-such-dir" / "missing")
    argv = [missing if a == "MISSING" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse, and a presentation source left out
            code = exc.code
    elapsed = time.perf_counter() - t0
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert elapsed < 1.0
