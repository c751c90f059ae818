"""One fresh interpreter per measured run or per set-up probe.

    worker.py probe WORKLOAD        import rulesat, warm up, print "ready"
    worker.py run WORKLOAD SEED SECONDS TRACE WORKDIR

A run prints one JSON line of raw measurements; run.py turns it into
the reported metrics.  rulesat must be importable (run.py puts src/ on
PYTHONPATH).
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibration import calibrate
from workloads import WORKLOADS, Workload


def package(workload: str) -> str:
    """What set-up imports: the library workloads never load the CLI module."""
    return "rulesat.cli" if WORKLOADS[workload].cli else "rulesat"


def warm_up(workload: str) -> None:
    from rulesat import BinDataset, Scope, minimize_perfect

    ds = BinDataset(num_features=2, classes=["0", "1"], feature_names=["a", "b"],
                    examples=[((0, 0), 0, 1), ((0, 1), 1, 1), ((1, 0), 1, 1), ((1, 1), 0, 1)])
    minimize_perfect(ds, Scope.aggregated())
    if WORKLOADS[workload].cli:
        from rulesat import cli

        cli.build_parser().parse_args(["cv", "--data", "x.csv", "--mode", "mopt"])


def probe(workload: str) -> None:
    importlib.import_module(package(workload))
    warm_up(workload)
    print("ready", flush=True)


def timed(wl: Workload, task, in_process: bool):
    """(seconds, failure or None); errors count as failures, not crashes."""
    t0 = time.perf_counter()
    try:
        result = wl.run(task, in_process)
    except Exception:
        return time.perf_counter() - t0, "error: " + traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, wl.check(task, result)
    except Exception:
        return elapsed, "error: " + traceback.format_exc(limit=3)


def forked(wl: Workload, task):
    """timed() in a forked child, with a calibration pass on each side.

    Returns (seconds, failure or None, kernel seconds, peak RSS MB).
    Every task starts from the same warmed-up parent, and the child's
    peak RSS is that of the process that ran this one task (for cv-cli,
    of the CLI process it started).  The passes run in the child, on
    the CPU that runs the task; the first one after the fork is not used.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            calibrate()
            before = calibrate()
            elapsed, why = timed(wl, task, in_process=False)
            kernel = (before + calibrate()) / 2
            who = resource.RUSAGE_CHILDREN if wl.spec.cli else resource.RUSAGE_SELF
            rss = resource.getrusage(who).ru_maxrss / 1024.0
            os.write(write_end, json.dumps([elapsed, why, kernel, rss]).encode())
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return 0.0, "error: task process ended with status %d" % status, 1.0, 0.0
    return tuple(json.loads(data))


def run_plain(wl: Workload, seconds: float) -> dict:
    """Closed loop, one forked child per task."""
    # warm-up, not counted: a tiny solve in this process, so that the
    # children start from a small heap, and one task in a child
    warm_up(wl.name)
    forked(wl, wl.task(0))
    times, kernel, failures, rss = [], [], [], []
    start = time.perf_counter()
    j = 0
    while time.perf_counter() - start < seconds:
        elapsed, why, passes, peak = forked(wl, wl.task(j))
        times.append(elapsed)
        kernel.append(passes)
        rss.append(peak)
        if why:
            failures.append([j, why])
        j += 1
    wall = time.perf_counter() - start
    return {"times": times, "kernel": kernel, "failures": failures, "wall_s": wall,
            "rss_mb": rss}


def run_traced(wl: Workload, seconds: float) -> dict:
    """Each task runs untraced, traced, and (in the trace set) traced again.

    Per-layer numbers cover the trace set, the first spec.trace_set
    tasks; their counts must repeat exactly between the two traced
    executions.  The overhead compares the untraced and the first traced
    execution of every task run.
    """
    from tracing import COUNT_METRICS, Tracer

    tracer = Tracer()
    plain, traced, failures = [], [], []
    start = time.perf_counter()
    j = 0
    while j < wl.spec.trace_set or time.perf_counter() - start < seconds:
        task = wl.task(j)
        elapsed, why = timed(wl, task, in_process=True)
        plain.append(elapsed)
        outcomes = [why]
        for rep in (1, 2) if j < wl.spec.trace_set else (1,):
            with tracer.active((j, rep)):
                elapsed, why = timed(wl, task, in_process=True)
            if rep == 1:
                traced.append(elapsed)
            outcomes.append(why)
        failures.extend([j, why] for why in outcomes if why)
        j += 1
    trace_set = range(min(j, wl.spec.trace_set))
    first = tracer.totals((t, 1) for t in trace_set)
    second = tracer.totals((t, 2) for t in trace_set)
    mismatched = [name for name in COUNT_METRICS if first[name] != second[name]]
    metrics = {name: first[name] if name in COUNT_METRICS else (first[name] + second[name]) / 2
               for name in first}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"metrics": metrics, "mismatched_counts": mismatched, "failures": failures,
            "attempted": len(plain) + len(traced) + len(trace_set),
            "tasks": j, "plain_p50_s": statistics.median(plain),
            "traced_p50_s": statistics.median(traced), "wall_s": time.perf_counter() - start}


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> None:
    t0 = time.perf_counter()
    importlib.import_module(package(workload))
    import_s = time.perf_counter() - t0
    wl = Workload(workload, seed, workdir)
    out = run_traced(wl, seconds) if trace else run_plain(wl, seconds)
    if trace:
        out["metrics"]["cli.import_s"] = import_s
    out["import_s"] = import_s
    print(json.dumps(out), flush=True)


def main(argv: list[str]) -> int:
    if argv[:1] == ["probe"]:
        probe(argv[1])
    else:
        _, workload, seed, seconds, trace, workdir = argv
        run(workload, int(seed), float(seconds), trace == "1", Path(workdir))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
