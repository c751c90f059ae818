"""Seeded inputs, task runners and result checks for the two workloads.

opt-agg cycles through a fixed family of base problems and presents
each one under a random isomorphism drawn from the run seed: features
are permuted and flipped, the two class labels may swap, and rows are
shuffled.  An isomorphism keeps the optimal objective, so
reference.json certifies every task of every seed, while the renumbered
variables send the CDCL search down a different path.  Because the
family is fixed, two runs (and a parent and a change) time the same mix
of problems; drawing fresh random datasets per seed made the median task
time jump between the clusters of the optimum size.

The family holds the first FAMILY_SIZE candidates (drawn from
FAMILY_SEED) whose optimum lies in OPTIMA; make_reference.py picks them
and stores their objectives.  4 and 7 node optima solve in under 0.1 s,
13 to 15 node ones take 1.5 to 3 s and would decide every run's total
alone.

cv-cli draws fresh CSV rows per seed instead: with 12k rows every one of
the 12 distinct feature vectors lands in every training fold, so the
optimum per fold is fixed by the class function alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

FAMILY_SEED = 2007
TASK_BUDGET_S = 30.0  # per task; the slowest task at the baseline takes about 2 s
REFERENCE = Path(__file__).with_name("reference.json")

OPT_ROWS, OPT_FEATURES = 10, 6
CV_ROWS, CV_FILES, CV_FOLDS = 12000, 3, 3
CV_COLORS = ("red", "green", "blue")


FAMILY_SIZE = 24
OPTIMA = (11, 12)  # node counts of the optima the opt-agg family keeps


@dataclass(frozen=True)
class Spec:
    trace_set: int  # leading tasks whose per-layer numbers a traced run reports
    cli: bool  # the task is a `rulesat cv` invocation, not a library call


WORKLOADS = {
    "opt-agg": Spec(trace_set=8, cli=False),
    "cv-cli": Spec(trace_set=4, cli=True),
}


def planted(bits) -> int:
    """Class 1 iff (f0 and not f1) or (f2 and f3)."""
    return 1 if (bits[0] and not bits[1]) or (bits[2] and bits[3]) else 0


def _bits(v: int, k: int) -> tuple[int, ...]:
    return tuple((v >> f) & 1 for f in range(k))


def opt_base(i: int) -> list[tuple[tuple[int, ...], int]]:
    """Noise-free planted-rule rows over distinct feature vectors."""
    rng = random.Random("%d:opt-agg:%d" % (FAMILY_SEED, i))
    vecs = rng.sample(range(1 << OPT_FEATURES), OPT_ROWS)
    return [(b, planted(b)) for b in (_bits(v, OPT_FEATURES) for v in vecs)]


def dataset(rows):
    from rulesat import BinDataset

    k = len(rows[0][0])
    return BinDataset(num_features=k, classes=["0", "1"],
                      feature_names=["f%d" % f for f in range(k)],
                      examples=[(bits, cls, 1) for bits, cls in rows])


def isomorphic(rows, rng: random.Random):
    k = len(rows[0][0])
    perm = list(range(k))
    rng.shuffle(perm)
    flip = [rng.randrange(2) for _ in range(k)]
    swap = rng.randrange(2)
    out = [(tuple(bits[perm[f]] ^ flip[f] for f in range(k)), cls ^ swap) for bits, cls in rows]
    rng.shuffle(out)
    return out


def cv_label(color: str, flag: int) -> str:
    if color == "red":
        return "A"
    if color == "green":
        return "B"
    return "C" if flag else "A"


def write_cv_csv(path: Path, seed: int, index: int) -> None:
    """One numeric distractor, a 3-level colour, a binary flag, 3 classes.

    Binarized that is 5 features and 12 distinct vectors; the class
    depends on colour and flag only.  Column order varies with the seed.
    """
    rng = random.Random("cv-cli:%d:%d" % (seed, index))
    order = ["x", "color", "flag"]
    rng.shuffle(order)
    lines = [",".join(order + ["label"])]
    for _ in range(CV_ROWS):
        row = {"x": "%.3f" % rng.uniform(0, 10), "color": rng.choice(CV_COLORS),
               "flag": str(rng.randrange(2))}
        lines.append(",".join([row[c] for c in order] + [cv_label(row["color"], int(row["flag"]))]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


@dataclass
class Task:
    index: int
    base: int  # candidate index of the base problem, or CSV number for cv-cli
    data: object  # BinDataset for library tasks, CSV path for cv-cli
    fold_seed: int | None = None  # cv-cli only


class Workload:
    """Task stream and checks for one workload and one run seed."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.reference = load_reference()[name]
        self.family = [] if self.spec.cli else sorted(int(i) for i in self.reference)
        self._bases = {}
        self.csvs = []
        if self.spec.cli:
            workdir.mkdir(parents=True, exist_ok=True)
            for i in range(CV_FILES):
                path = workdir / ("cv-%d.csv" % i)
                write_cv_csv(path, seed, i)
                self.csvs.append(path)

    def task(self, j: int) -> Task:
        rng = random.Random("%s:%d:%d" % (self.name, self.seed, j))
        if self.spec.cli:
            return Task(j, j % CV_FILES, self.csvs[j % CV_FILES], rng.randrange(1 << 30))
        base = self.family[j % len(self.family)]
        if base not in self._bases:
            self._bases[base] = opt_base(base)
        return Task(j, base, dataset(isomorphic(self._bases[base], rng)))

    # -- running -------------------------------------------------------

    def cli_argv(self, task: Task) -> list[str]:
        return ["cv", "--data", str(task.data), "--folds", str(CV_FOLDS), "--mode", "mopt",
                "--seed", str(task.fold_seed), "--time-limit", str(TASK_BUDGET_S)]

    def run(self, task: Task, in_process: bool = False):
        """Run one task; returns what check() needs."""
        if self.spec.cli:
            return self._run_cli(task, in_process)
        from rulesat import Scope, SearchLimits, optimizer

        limits = SearchLimits(wall_time_budget=TASK_BUDGET_S, per_solve_budget=TASK_BUDGET_S)
        return optimizer.minimize_perfect(task.data, Scope.aggregated(), limits=limits)

    def _run_cli(self, task: Task, in_process: bool):
        argv = self.cli_argv(task)
        if in_process:
            from rulesat import cli

            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue()
        try:  # rulesat is found through the PYTHONPATH run.py set
            proc = subprocess.run([sys.executable, "-m", "rulesat.cli"] + argv,
                                  capture_output=True, text=True, timeout=TASK_BUDGET_S)
        except subprocess.TimeoutExpired:
            return None, "killed after %.0f s" % TASK_BUDGET_S
        return proc.returncode, proc.stdout

    # -- checking ------------------------------------------------------

    def check(self, task: Task, result) -> str | None:
        """None when the result is right, else why it is not."""
        if self.spec.cli:
            return self._check_cli(result)
        from rulesat import evaluate

        if result.status != "optimal":
            kind = "timeout" if result.status == "timeout" else "wrong"
            return "%s: status %s" % (kind, result.status)
        dset = result.decision_set
        report = evaluate(dset, task.data)
        expected = self.reference[str(task.base)]
        if report.errors != 0:
            return "%d training errors" % report.errors
        if dset.total_size != result.objective:
            return "total_size %d != objective %d" % (dset.total_size, result.objective)
        if result.objective != expected:
            return "objective %d != reference %d" % (result.objective, expected)
        return None

    def _check_cli(self, result) -> str | None:
        code, out = result
        if code is None or code == 2:
            return "timeout: %s" % (out.strip()[-200:] or "exit code 2")
        if code != 0:
            return "exit code %s: %s" % (code, out.strip()[-200:])
        folds = [line for line in out.splitlines() if line.startswith("fold ")]
        if len(folds) != CV_FOLDS:
            return "%d fold lines, expected %d" % (len(folds), CV_FOLDS)
        want = "accuracy=100.0 total_size=%d status=optimal" % self.reference["fold_total_size"]
        for line in folds:
            if not line.endswith(want):
                return "fold line %r, expected %r" % (line, want)
        return None
