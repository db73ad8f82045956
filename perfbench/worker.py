"""One repetition of one workload, in a fresh interpreter.

Usage (normally started by run.py): python3 worker.py '<job json>'

Prints ``ready <monotonic clock>`` once the library is imported and the table
loaded (the end of set-up), then one JSON line with the reference kernel's
time right after set-up, the timed phase's raw and reference-speed times (see
hostclock.py), peak RSS, per-operation verdicts and, when traced, the layer
metrics.
A fresh process per repetition keeps the library's in-process caches
(``reporting._TABLE_CACHE``, the Gauss-Legendre nodes, mpmath's caches) from
making later repetitions faster than a user's real run.
"""
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    job = json.loads(sys.argv[1])
    import zetacontour  # noqa: F401  (import is part of set-up)
    import hostclock
    import tracing
    import workloads

    work = Path(job["work"])
    table = None
    if job["workload"] == "contour":
        from zetacontour import zero_finder
        table = zero_finder.load_table(job["table"])
    print("ready", time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
    clock = hostclock.HostClock()
    if job["setup_only"]:
        print(json.dumps({"kernel_s": clock.first_kernel_s}), flush=True)
        return 0
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer(clock.now)
        tracing.install(tracer)
    hostclock.install_hooks(clock)

    if job["workload"] == "zeros":
        ops = workloads.zeros_ops(job["inputs"], work)
    elif job["workload"] == "contour":
        ops = workloads.contour_ops(table)
    else:
        ops = workloads.suite_ops(job["table"], work)

    results = []
    clock.start()
    for op in ops:
        clock.lap()
        try:
            results.append((True, op.run()))
        except Exception:  # a raising operation is a failed one; keep going
            traceback.print_exc(file=sys.stderr)
            results.append((False, None))
    clock.lap(force=True)

    verdicts = []
    for op, (ran, value) in zip(ops, results):
        try:
            verdicts += op.check(value) if ran else [(op.name, False, "raised")]
        except Exception:  # a result the check cannot even read is wrong
            traceback.print_exc(file=sys.stderr)
            verdicts.append((op.name, False, "unreadable result"))
    out = {"kernel_s": clock.first_kernel_s,
           "wall_s": clock.ref_s(),
           "wall_raw_s": clock.raw_s(),
           "segments": len(clock.segments),
           "kernel_median_s": clock.kernel_median_s(),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "verdicts": verdicts}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
