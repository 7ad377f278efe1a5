"""Benchmark of the grigorchuk library: cold-process workloads, checked
against reference outputs, with per-layer timings from a traced run.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root; the library is imported from ``src``.
Workloads: growth and check-all, the two that BENCHMARK.json lists, and
nball-exhaustive and nball-random for focused before/after measurements
(see perfbench/README.md for why each was chosen and what it stresses).

Every repetition runs in a fresh single-threaded process (``worker.py``),
one at a time, because the library's memos are module-global and a warm
process would mislead.  With ``--trace 0`` repetitions run until their
processes have taken ``--seconds`` seconds, and every end-to-end metric is
the median over repetitions.  Times are divided by the host's slowness,
which ``speed.py`` samples during the timed calls.  With ``--trace 1`` one untraced and one traced
repetition run, and the per-layer metrics come from the traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable table
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import CHECK_IDS
from spans import TRACED

HERE = Path(__file__).resolve().parent
WORKLOADS = ["nball-exhaustive", "nball-random", "growth", "check-all"]
SETUP_SAMPLES = 9  # import timings per run, including the repetitions' own
DEADLINE_S = 170.0  # a run must end within 180 s
SPAN_DIR = ".bench_out"

# per-layer spans reported as <name>.calls and <name>.self_s; the growth
# spans are reported as the ratios of layer_metrics instead
LAYER_SPANS = [name for name, _, _ in TRACED if not name.startswith("growth.")]
GAUGES = [
    "wreath.exponent_memo.entries",
    "wreath.trivial_memo.entries",
    "wreath.order_memo.entries",
    "wreath.letter_action_memo.entries",
    "cubic.enclosure_bits",
]
ABSENT = -1  # value of a gauge or span whose attribute the library no longer has


class BenchError(Exception):
    pass


def run_worker(root: Path, args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 1:
        raise BenchError("out of time before starting a repetition")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(root: Path, seed: int, have: list[float], deadline: float) -> list[float]:
    samples = list(have)
    while len(samples) < SETUP_SAMPLES:
        samples.append(run_worker(root, ["setup", str(seed), "0"], deadline)["setup_s"])
    return samples


def measure(root: Path, workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    """Untraced repetitions until their processes have taken ``seconds``."""
    reps = []
    spent = 0.0
    longest = 0.0
    while spent < seconds:
        if reps and time.monotonic() + 1.5 * longest > deadline:
            break
        t = time.monotonic()
        reps.append(run_worker(root, [workload, str(seed), "0"], deadline))
        took = time.monotonic() - t
        spent += took
        longest = max(longest, took)
    setups = setup_samples(root, seed, [r["setup_s"] for r in reps], deadline)
    metrics = {
        "work_s": (statistics.median(r["work_s"] for r in reps), "s"),
        "items_per_s": (statistics.median(r["items"] / r["work_s"] for r in reps), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, reps


def layer_metrics(plain: dict, traced: dict) -> dict:
    layers = traced["layers"]
    calls, self_s, missing = layers["calls"], layers["self_s"], set(layers["missing"])

    def span(name, table, default=0):
        return ABSENT if name in missing else table.get(name, default)

    out = {}
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = (span(name, calls), "count")
        out[f"{name}.self_s"] = (span(name, self_s), "s")
    for name in GAUGES:
        value = plain["gauges"].get(name)
        out[name] = (ABSENT if value is None else value, "bits" if name.endswith("bits") else "count")

    before = traced["gauges_before"].get("wreath.exponent_memo.entries")
    after = traced["gauges"].get("wreath.exponent_memo.entries")
    n_cert = span("wreath.certify_exponent", calls)
    if before is None or after is None or n_cert == ABSENT:
        hit_ratio = ABSENT
    else:
        hit_ratio = 1 - (after - before) / n_cert if n_cert else 0.0
    out["wreath.certify_exponent.memo_hit_ratio"] = (hit_ratio, "ratio")

    probes = span("growth.probe", calls)
    if probes == ABSENT:
        new_ratio = per_probe = ABSENT
    else:
        new_ratio = layers["truthy"].get("growth.probe", 0) / probes if probes else 0.0
        per_probe = layers["children"].get("wreath.is_trivial<growth.probe", 0) / probes if probes else 0.0
    out["growth.ball_grigorchuk.self_s"] = (span("growth.ball_grigorchuk", self_s), "s")
    out["growth.probe.calls"] = (probes, "count")
    out["growth.probe.new_ratio"] = (new_ratio, "ratio")
    out["growth.word_problem_per_probe"] = (per_probe, "calls/probe")

    # the program's own per-check timings, from the untraced repetition
    for check_id in CHECK_IDS:
        out[f"reports.check.{check_id}.wall_s"] = (plain["check_wall_s"].get(check_id, 0.0), "s")
    out["host.wall_s"] = (plain["wall_s"], "s")
    out["host.slowness"] = (plain["wall_s"] / plain["work_s"], "ratio")
    out["trace.overhead_s"] = (traced["work_s"] - plain["work_s"], "s")
    out["trace.spans"] = (layers["spans"], "count")
    return out


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    # compiles the byte code once, so no repetition pays for it
    run_worker(root, ["setup", str(seed), "0"], deadline)
    if trace:
        plain = run_worker(root, [workload, str(seed), "0"], deadline)
        (root / SPAN_DIR).mkdir(exist_ok=True)
        stem = str(root / SPAN_DIR / workload)
        traced = run_worker(root, [workload, str(seed), "1", stem], deadline)
        reps = [plain, traced]
        metrics = layer_metrics(plain, traced)
    else:
        metrics, reps = measure(root, workload, seed, seconds, deadline)
    errors = [r["error"] for r in reps if r["error"]]
    for err in errors:
        print(err, file=sys.stderr)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "repetitions": [(r["wall_s"], r["work_s"]) for r in reps],
    }


def report(workload: str, result: dict) -> None:
    reps = result["repetitions"]
    walls = ", ".join(f"{wall:.3f}/{work:.3f}" for wall, work in reps)
    print(
        f"# {workload}: correct={result['correct']}, failed {result['failed']} of "
        f"{result['attempted']}; wall_s/work_s of the {len(reps)} repetitions: {walls}",
        file=sys.stderr,
    )
    for name, m in result["metrics"].items():
        print(f"  {name:52s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # subprocess.run kills and reaps its worker on any exception, this one too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "grigorchuk" / "__init__.py").is_file():
        print("error: run from the repository root; src/grigorchuk is missing", file=sys.stderr)
        return 2
    print(
        f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"workers one at a time, seed {args.seed}",
        file=sys.stderr,
    )
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
            report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
