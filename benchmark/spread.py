"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmark/spread.py --workload opt-agg --seeds 1-10 [--seconds 30]

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median and the interquartile range as a share of the median,
next to the bound BENCHMARK.json fixes for it.  The last line repeats
the figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=HERE.parent, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record = json.loads(lines[-2].partition("record: ")[2])
        if not result["correct"] or result["failed"]:
            print("seed %d: correct=%s failed=%d" % (seed, result["correct"], result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        # context, not metrics: the machine's speed and the unscaled median
        for name in ("speed", "wall_p50_s"):
            values.setdefault(name, []).append(record[name])
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % (n, v[-1]) for n, v in values.items())),
              flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                         "values": vals}
        print("%-12s median %.6g  spread %.3f  bound %s" % (name, median, (q3 - q1) / median,
                                                           bounds.get(name)))
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
