"""Samples how fast this host runs Python while a workload runs.

A shared host drifts: the same pure-Python work can take 1.7 times longer
in a slow phase than in a fast one, and phases change within seconds.
``SpeedSampler`` runs a small fixed task from a SIGALRM handler every
``INTERVAL_S`` seconds of wall time, so its samples interleave with the
library's own work and see the same host.  The task's work is like the
library's: short tuples, lookups in a dict of many entries and small calls.
``Clock`` in ``workloads.py`` subtracts the samples' own time from a timed
call and divides what is left by the host's slowness over that call: the
geometric mean of the samples taken during the call, relative to
``REF_SAMPLE_S``.  See README.md, "Noise".
"""

import signal
import statistics
import time

INTERVAL_S = 0.025  # wall time between timer samples
TABLE = 50_000  # entries of the task's lookup table
STEPS = 1_500  # lookups per sample
# one sample on the reference machine in a fast phase: interleaved with a
# workload (cold caches), and back to back (warm caches)
REF_SAMPLE_S = 0.00055
REF_BURST_S = 0.00032
BURST = 40  # samples taken back to back before and after the package import


def _step(key: tuple, i: int) -> tuple:
    a, b, c = key
    return (b, c, (a * 5 + i) % 9973) if i & 1 else (c, a, (b + i * 7) % 9973)


class SpeedSampler:
    def __init__(self):
        self.table = {}
        key = (1, 2, 3)
        for i in range(TABLE):
            key = _step(key, i & 7)
            self.table[key] = i
        self.start_key = key
        self.samples: list[tuple[float, float]] = []  # timer samples: (start, duration)
        self.spent = 0.0  # time taken by all samples so far

    def _task(self) -> float:
        t = time.perf_counter()
        table, key, total = self.table, self.start_key, 0
        for i in range(STEPS):
            key = _step(key, i & 7)
            total += table.get(key, i)
        d = time.perf_counter() - t
        self.spent += d
        return d

    def _on_timer(self, signum, frame):
        t = time.perf_counter()
        self.samples.append((t, self._task()))

    def burst(self, n: int) -> list[float]:
        """Runs the task n times back to back; returns the durations."""
        return [self._task() for _ in range(n)]

    def start(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowness(self, since: float, until: float) -> float:
        """The host's slowness between two instants, from the timer samples."""
        ds = [d for t, d in self.samples if since <= t <= until]
        return statistics.geometric_mean(ds) / REF_SAMPLE_S if ds else 1.0


def burst_slowness(durations: list[float]) -> float:
    return statistics.geometric_mean(durations) / REF_BURST_S
