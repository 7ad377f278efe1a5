"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> [<span file stem>]

Run from the repository root with ``src`` on PYTHONPATH; ``perfbench/run.py``
does that.  Every memo of the library is module-global, so each repetition
needs its own cold process.  The workload ``setup`` only imports the
package.  The last line of standard output is one JSON object.
"""

import sys
import time

from speed import BURST, SpeedSampler, burst_slowness


def main(argv) -> int:
    # the import is too short for the timer's samples, so bursts of samples
    # just before and after it measure the host's speed at the time
    sampler = SpeedSampler()
    burst = sampler.burst(BURST)
    t0 = time.perf_counter()
    import grigorchuk  # noqa: F401  (package import plus its set-up is setup_s)

    setup_wall_s = time.perf_counter() - t0
    setup_s = setup_wall_s / burst_slowness(burst + sampler.burst(BURST))

    import json
    import resource
    import traceback

    import workloads

    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    result = {"workload": workload, "seed": seed, "trace": trace, "setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if workload == "setup":
        print(json.dumps(result))
        return 0
    run, expected = workloads.WORKLOADS[workload]
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    before = workloads.gauges()
    clock = workloads.Clock(sampler)
    sampler.start()
    error = None
    try:
        items, attempted, failed = run(seed, clock)
    except Exception:  # the workload failed: count every input as failed
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        items, attempted, failed = 0, expected, expected
    sampler.stop()
    result.update(
        wall_s=clock.wall_s,
        work_s=clock.work_s,
        items=items,
        attempted=attempted,
        failed=failed,
        error=error,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        gauges_before=before,
        gauges=workloads.gauges(),
        check_wall_s=clock.check_wall_s,
    )
    if tracer is not None:
        result["layers"] = tracer.summary()
        if len(argv) > 3:
            tracer.write(argv[3])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
