"""The four workloads, their correctness gates against ``reference.py``, and
the cache gauges.  Imported by ``worker.py`` after it has timed the package
import.

Inputs are generated here from the seed, outside the timed calls; the
library only receives them.
"""

import random
import time
from itertools import zip_longest

from grigorchuk import cubic, growth, reports, wreath
from reference import (
    CHECK_IDS,
    GROWTH_BALLS,
    GROWTH_PURE_RADIUS,
    GROWTH_RADIUS,
    NBALL_HISTOGRAM,
    NBALL_MAX_DEPTH,
    NBALL_MAX_EXPONENT,
    NBALL_RADIUS,
    NBALL_WORDS,
    RANDOM_RADII,
    RANDOM_WORDS_PER_RADIUS,
)

# (gauge name, module, attribute): read-only views of the program's caches;
# an attribute that no longer exists is reported as absent (None)
MEMO_GAUGES = [
    ("wreath.exponent_memo.entries", wreath, "_exponent_memo"),
    ("wreath.trivial_memo.entries", wreath, "_trivial_memo"),
    ("wreath.order_memo.entries", wreath, "_order_memo"),
    ("wreath.letter_action_memo.entries", wreath, "_letter_action_memo"),
]


class Clock:
    """Sums the time spent inside library calls, and nothing else.

    ``wall_s`` is that time as measured, less the speed sampler's samples.
    ``work_s`` divides the time of each call by the host's slowness during
    the call, as the sampler measured it, so that it reads the same in a slow
    phase of the host as in a fast one.
    """

    def __init__(self, sampler):
        self.sampler = sampler
        self.wall_s = 0.0
        self.work_s = 0.0
        self.check_wall_s: dict[str, float] = {}  # CheckReport.wall_time by check

    def call(self, fn, *args, **kwargs):
        spent = self.sampler.spent
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        took = end - t - (self.sampler.spent - spent)
        self.wall_s += took
        self.work_s += took / self.sampler.slowness(t, end)
        return out


def random_reduced_word(length: int, rng: random.Random) -> str:
    """First letter uniform over abcd, then a and a uniform letter of bcd
    alternate, so the word is reduced."""
    if length == 0:
        return ""
    first = rng.choice("abcd")
    if first == "a":
        word = "".join("a" + x for x in rng.choices("bcd", k=length // 2))
        return word + "a" if length % 2 else word
    word = "a".join([first] + rng.choices("bcd", k=(length - 1) // 2))
    return word if length % 2 else word + "a"


def histogram_distance(got: dict, want: dict) -> int:
    """Words that must have a different exponent for the histograms to differ."""
    return sum(abs(got.get(e, 0) - want.get(e, 0)) for e in set(got) | set(want))


def sphere_distance(balls: list, want: list) -> int:
    """Elements missing or extra, radius by radius, between two ball series."""
    diffs = [a - b for a, b in zip_longest(balls, want, fillvalue=0)]
    return sum(abs(d - prev) for d, prev in zip(diffs, [0] + diffs))


# Each workload takes (seed, clock) and returns (items, attempted, failed):
# items are the units of useful work, attempted and failed are the inputs
# tried and those that failed, raised or disagreed with the reference.


def nball_exhaustive(seed, clock):
    rep = clock.call(wreath.verify_nball_proposition, NBALL_RADIUS)
    failed = (
        len(rep.failures)
        + abs(rep.word_count - NBALL_WORDS)
        + histogram_distance(rep.exponent_histogram, NBALL_HISTOGRAM)
    )
    if not failed and (rep.max_exponent, rep.max_depth) != (NBALL_MAX_EXPONENT, NBALL_MAX_DEPTH):
        failed = 1
    return rep.word_count - len(rep.failures), rep.word_count, failed


def nball_random(seed, clock):
    rng = random.Random(seed)
    items = attempted = failed = 0
    for n in RANDOM_RADII:
        # generated outside the timed call, one radius at a time, so the
        # inputs never dominate resident memory
        words = [random_reduced_word(rng.randint(0, n), rng) for _ in range(RANDOM_WORDS_PER_RADIUS)]
        rep = clock.call(wreath.verify_nball_proposition, n, words=words)
        too_big = sum(k for e, k in rep.exponent_histogram.items() if e > rep.level + 2)
        bad = len(rep.failures) + too_big + abs(rep.word_count - len(words))
        attempted += len(words)
        failed += bad
        items += rep.word_count - len(rep.failures)
    return items, attempted, failed


def growth_balls(seed, clock):
    sig = clock.call(growth.ball_grigorchuk, GROWTH_RADIUS)
    pure = clock.call(growth.ball_grigorchuk, GROWTH_PURE_RADIUS, use_signatures=False)
    sizes, pure_sizes = sig.ball_sizes(), pure.ball_sizes()
    failed = sphere_distance(sizes, GROWTH_BALLS)
    failed += sphere_distance(pure_sizes, sizes[: GROWTH_PURE_RADIUS + 1])
    failed += sum(max(0, s - growth.ball_free_product(k)) for k, s in enumerate(sizes))
    attempted = GROWTH_BALLS[GROWTH_RADIUS] + GROWTH_BALLS[GROWTH_PURE_RADIUS]
    return sizes[-1] + pure_sizes[-1], attempted, failed


def check_all(seed, clock):
    out = clock.call(reports.check_all)
    status = {r.check_id: r.status for r in out}
    clock.check_wall_s = {r.check_id: r.wall_time for r in out}
    failed = sum(status.get(c) != "pass" for c in CHECK_IDS) + len(set(status) - set(CHECK_IDS))
    return len(out), len(CHECK_IDS), failed


WORKLOADS = {
    "nball-exhaustive": (nball_exhaustive, NBALL_WORDS),
    "nball-random": (nball_random, len(RANDOM_RADII) * RANDOM_WORDS_PER_RADIUS),
    "growth": (growth_balls, GROWTH_BALLS[GROWTH_RADIUS] + GROWTH_BALLS[GROWTH_PURE_RADIUS]),
    "check-all": (check_all, len(CHECK_IDS)),
}


def gauges() -> dict:
    out = {}
    for name, module, attr in MEMO_GAUGES:
        memo = getattr(module, attr, None)
        out[name] = len(memo) if memo is not None else None
    out["cubic.enclosure_bits"] = getattr(getattr(cubic, "_ENCLOSURE", None), "k", None)
    return out
