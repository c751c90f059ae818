"""rulesat benchmark: one workload, one seed, closed loop, checked results.

    python3 benchmark/run.py --workload opt-agg --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; rulesat is imported from src/.  One
task runs at a time, each in a child forked from a single worker
process.  --trace 0 prints the end-to-end metrics, at reference speed
(calibration.py), --trace 1 the per-layer ones from a traced run.
Human-readable lines come first, then a `record:` line with the run
record, and last one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import REFERENCE_S, calibrate, scaled  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import TASK_BUDGET_S, WORKLOADS  # noqa: E402

SETUP_PROBES = 5  # timed before the loop, and as many again after it
DEADLINE_S = 170.0  # the whole run, set-up included, ends well inside 180 s


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_probes(workload: str, env: dict, count: int) -> list[float]:
    """count set-up times at reference speed, a calibration pass around each."""
    times = []
    before = calibrate()
    for _ in range(count):
        wall = setup_seconds(workload, env)
        after = calibrate()
        times.append(scaled(wall, (before + after) / 2))
        before = after
    return times


def setup_seconds(workload: str, env: dict) -> float:
    """Fresh interpreter up to the import of rulesat plus warm-up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "probe", workload],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=30) != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe failed (exit code %s)" % proc.returncode)
    return elapsed


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with ten samples or
    fewer it is the maximum.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def run_worker(args, env: dict, workdir: Path, budget: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "run", args.workload, str(args.seed),
           str(args.seconds), str(args.trace), str(workdir)]
    # its own session, so that a kill also reaches the CLI processes it runs
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d:\n%s" % (proc.returncode, stderr[-2000:]))
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result:\n%s" % stderr[-2000:])
    return json.loads(lines[-1])


def wrong(failures) -> list:
    """Failures that are wrong answers or errors, not timeouts."""
    return [f for f in failures if not f[1].startswith("timeout")]


def report_plain(out: dict, setup: list[float]) -> tuple[dict, dict]:
    wall = out["times"]
    times = [scaled(w, c) for w, c in zip(wall, out["kernel"])]
    attempted, failed = len(times), len(out["failures"])
    tail_s, tail_pct, beyond = tail(times)
    speed = REFERENCE_S / statistics.median(out["kernel"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "task_s.p50": (statistics.median(times), "s"),
        "task_s.tail": (tail_s, "s"),
        "tasks_per_s": ((attempted - failed) / sum(times), "1/s"),
        "peak_rss_mb": (tail(out["rss_mb"])[0], "MB"),
    }
    notes = {
        "setup_s": "median of %d fresh interpreters" % len(setup),
        "task_s.p50": "median of %d tasks; %.6g s wall" % (attempted, statistics.median(wall)),
        "task_s.tail": "p%.1f, %d of %d tasks beyond; %.6g s wall"
                       % (tail_pct, beyond, attempted, tail(wall)[0]),
        "tasks_per_s": "%d completed in %.2f s of task time; %.6g/s over %.2f s wall"
                       % (attempted - failed, sum(times), (attempted - failed) / out["wall_s"],
                          out["wall_s"]),
        "peak_rss_mb": "peak RSS of the process that ran a task, at the tail percentile; "
                       "median %.6g MB, largest %.6g MB" % (statistics.median(out["rss_mb"]),
                                                          max(out["rss_mb"])),
    }
    print("times at reference speed; the machine ran at %.3f of it (median over %d tasks)"
          % (speed, len(out["kernel"])))
    for name, (value, unit) in metrics.items():
        print("%-14s %12.6g %-4s %s" % (name, value, unit, notes[name]))
    print("%-14s %12.6g %-4s %d of %d tasks" % ("fail_frac", failed / attempted, "", failed,
                                                 attempted))
    record = {"tasks": attempted, "tail_percentile": round(tail_pct, 2),
              "tail_beyond": beyond, "setup_samples_s": setup, "speed": speed,
              "wall_p50_s": statistics.median(wall)}
    return metrics, record


def report_traced(out: dict, trace_set: int) -> tuple[dict, dict]:
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    metrics = {name: (out["metrics"][name], units[name]) for name in units}
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6g %s" % (name, value, unit))
    print("tracing overhead: traced p50 %.6f s - untraced p50 %.6f s over %d tasks"
          % (out["traced_p50_s"], out["plain_p50_s"], out["tasks"]))
    if out["mismatched_counts"]:
        print("counts differ between the two traced executions: %s"
              % ", ".join(out["mismatched_counts"]))
    record = {"tasks": out["tasks"], "mismatched_counts": out["mismatched_counts"],
              "per_layer_over": "the first %d tasks, mean of two traced executions"
              % min(out["tasks"], trace_set)}
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rulesat" / "__init__.py").is_file():
        print("error: %s has no src/rulesat to benchmark" % ROOT, file=sys.stderr)
        return 2
    start = time.perf_counter()
    env = worker_env()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    setup = []
    probes = 0 if args.trace else SETUP_PROBES
    try:
        # the first probe writes the bytecode caches and is not counted;
        # probing on both sides of the loop averages over machine load
        setup_seconds(args.workload, env)
        setup += setup_probes(args.workload, env, probes)
        out = run_worker(args, env, workdir, DEADLINE_S - (time.perf_counter() - start))
        setup += setup_probes(args.workload, env, probes)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("workload=%s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds,
                                                       args.trace))
    if args.trace:
        metrics, record = report_traced(out, WORKLOADS[args.workload].trace_set)
        correct = not wrong(out["failures"]) and not out["mismatched_counts"]
        attempted = out["attempted"]
    else:
        metrics, record = report_plain(out, setup)
        correct = not wrong(out["failures"])
        attempted = len(out["times"])
    for j, why in out["failures"][:5]:
        print("task %d failed: %s" % (j, why.strip().splitlines()[-1]))
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "task_budget_s": TASK_BUDGET_S,
        "cv_jobs": os.cpu_count() if WORKLOADS[args.workload].cli else None,
        "import_s": out["import_s"],
    })
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(out["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
