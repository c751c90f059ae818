"""Rebuild reference.json: the opt-agg family and its optima, and cv-cli's.

    PYTHONPATH=src python3 benchmark/make_reference.py

opt-agg candidates are scanned in order and the first FAMILY_SIZE whose
optimum lies in OPTIMA form the family.  Every kept problem is solved
in opt and in mopt mode, as given and under one random isomorphism;
all answers for a problem must agree.  cv-cli's per-fold
optimum is the per-class optimum of the 12 distinct vectors its CSVs
hold, solved both ways.
Run it only when a workload's inputs change: the table certifies that
later code still finds the same optima.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

from workloads import (FAMILY_SIZE, OPTIMA, REFERENCE, dataset, isomorphic, opt_base,
                       write_cv_csv)


def solve(ds, mode: str):
    from rulesat import Scope, minimize_bounded, minimize_perfect

    minimize = minimize_perfect if mode == "opt" else minimize_bounded
    outcome = minimize(ds, Scope.aggregated())
    if outcome.status != "optimal":
        raise SystemExit("opt-agg %s: status %s" % (mode, outcome.status))
    return outcome


def family() -> dict[str, int]:
    """Candidate index -> optimal objective, for the kept opt-agg candidates."""
    kept = {}
    i = 0
    while len(kept) < FAMILY_SIZE:
        rows = opt_base(i)
        first = solve(dataset(rows), "opt")
        if first.objective in OPTIMA:
            copies = [rows, isomorphic(rows, random.Random("reference:%d" % i))]
            answers = {solve(dataset(r), m).objective for r in copies for m in ("opt", "mopt")}
            if answers != {first.objective}:
                raise SystemExit("opt-agg candidate %d: answers disagree %s"
                                 % (i, answers | {first.objective}))
            kept[str(i)] = first.objective
            print("opt-agg", i, first.objective, flush=True)
        i += 1
    return kept


def cv_fold_size(workdir: Path) -> int:
    from rulesat import (Scope, binarize, load_csv, minimize_bounded, minimize_perfect,
                         sanitize)

    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "cv.csv"
    write_cv_csv(path, 0, 0)
    ds, _ = sanitize(binarize(load_csv(str(path))), "perfect")
    total = 0
    for target in range(len(ds.classes)):
        scope = Scope.per_class(target)
        answers = {minimize_perfect(ds, scope).objective, minimize_bounded(ds, scope).objective}
        if len(answers) != 1:
            raise SystemExit("cv-cli class %d: answers disagree %s" % (target, answers))
        total += answers.pop()
    return total


def main() -> int:
    workdir = Path(__file__).resolve().parent.parent / ".bench_work" / "reference"
    try:
        table = {"opt-agg": family()}
        table["cv-cli"] = {"fold_total_size": cv_fold_size(workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
