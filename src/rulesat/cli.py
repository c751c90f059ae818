"""Command-line front end: learn, eval, cv, and encode subcommands.

Exit codes: 0 on success, 1 on argument/data/config errors, 2 when the
time budget ran out before any usable model was found.

Per-class scope (the default) runs one optimizer per class and reports
the union of the learned rule sets; classes absent from the training
data contribute no rules.  Per-class runs and cross-validation folds run
one after another, in input order.  --time-limit is one clock for the
whole command, started when the command starts: each run gets an equal
share of the time left on it among the runs still to come, so time an
early run leaves unused goes to the later ones, and the last run gets
all that is left.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .dataset import BinDataset, DatasetError, binarize, kfold_split, load_csv, sanitize
from .dimacs import emit_dimacs
from .encoder import (EncodingError, Scope, build_bounded, build_perfect, build_sparse,
                      lam_to_cost)
from .formula import FormulaError
from .model import DecisionSet, ModelError, evaluate, load_model, save_model
from .optimizer import (ContradictionError, OptimizerError, SearchLimits, SolveOutcome,
                        _Clock, _join, _remaining_limits, first_budget, minimize_bounded,
                        minimize_perfect, minimize_sparse)

MODES = ("opt", "mopt", "sparse")
ENCODINGS = {"opt": "perfect", "mopt": "bounded", "sparse": "sparse"}  # the library's names
SCOPES = ("aggregated", "per-class")


class CliError(ValueError):
    """Configuration problem detected after argument parsing."""


@dataclass
class RunConfig:
    mode: str
    scope: str
    lam: float | None
    bins: int
    n0: int | None
    seed: int
    limits: SearchLimits
    verbose: bool

    @staticmethod
    def from_args(args) -> "RunConfig":
        mode = getattr(args, "mode", "opt")
        lam = getattr(args, "lam", None)
        if mode == "sparse" and lam is None:
            raise CliError("--lambda is required with --mode sparse")
        if mode != "sparse" and lam is not None:
            raise CliError("--lambda only applies to --mode sparse")
        if lam is not None and lam < 0:
            raise CliError("--lambda must be >= 0")
        n0 = getattr(args, "n0", None)
        # encode writes an opt encoding of --n0 nodes; opt searches take no budget
        if mode == "opt" and n0 is not None and args.command != "encode":
            raise CliError("--n0 only applies to --mode mopt and sparse")
        limits = SearchLimits(wall_time_budget=args.time_limit,
                              per_solve_budget=args.solve_limit)
        limits.validate()
        return RunConfig(mode=mode, scope=getattr(args, "scope", "per-class"), lam=lam,
                         bins=args.bins, n0=n0, seed=args.seed, limits=limits,
                         verbose=args.verbose)


def _load_bindata(path: str, bins: int, numeric_bins: dict | None = None) -> BinDataset:
    return binarize(load_csv(path), q=bins, numeric_bins=numeric_bins)


def _sanitized(ds: BinDataset, config: RunConfig) -> BinDataset:
    """Deduplicate for training; exact-fit modes refuse contradictory data."""
    kind = "sparse" if config.mode == "sparse" else "perfect"
    clean, report = sanitize(ds, kind)
    if kind == "perfect" and report.removed > 0:
        raise CliError(
            "dataset has contradictory examples (weight %d removed by sanitize); "
            "clean the data or use --mode sparse" % report.removed
        )
    return clean


def _run_one(ds: BinDataset, scope: Scope, config: RunConfig, clock: _Clock,
             context: dict, runs_left: int) -> SolveOutcome:
    """One optimizer run, given its share of the time left on the command's
    clock among runs_left runs, this one included."""
    def progress(record):
        if config.verbose:
            print(json.dumps({**context, **record}, sort_keys=True), file=sys.stderr)

    limits = _remaining_limits(clock, runs_left)
    if config.mode == "opt":
        outcome = minimize_perfect(ds, scope, limits=limits, progress=progress)
    elif config.mode == "mopt":
        outcome = minimize_bounded(ds, scope, n0=config.n0, limits=limits, progress=progress)
    else:
        outcome = minimize_sparse(ds, scope, config.lam, config.n0, limits, progress)
    if outcome.decision_set is None:
        raise CliTimeout(outcome)
    return outcome


def _learn_model(ds: BinDataset, config: RunConfig, clock: _Clock,
                 context: dict | None = None, later_models: int = 0):
    """Train per the configured scope; returns (DecisionSet, status) or
    raises CliTimeout when nothing usable was found in time.

    The time left is shared among this model's runs and those of
    later_models more models, counted at as many runs as this one.
    """
    context = context or {}
    if config.scope == "aggregated":
        outcome = _run_one(ds, Scope.aggregated(), config, clock, context, 1 + later_models)
        return outcome.decision_set, outcome.status
    targets = sorted({cls for _, cls, _ in ds.examples})
    outcomes = [_run_one(ds, Scope.per_class(target), config, clock,
                         {**context, "class": ds.classes[target]},
                         len(targets) * (1 + later_models) - done)
                for done, target in enumerate(targets)]
    joined = _join(outcomes, ds, config.mode, "per-class")
    metadata = joined.decision_set.metadata
    metadata["per_class_objectives"] = {ds.classes[target]: outcome.objective
                                        for target, outcome in zip(targets, outcomes)}
    if config.mode == "sparse":
        metadata["lambda_cost"] = lam_to_cost(config.lam, ds.total_weight)
    return joined.decision_set, joined.status


class CliTimeout(Exception):
    def __init__(self, outcome: SolveOutcome):
        super().__init__("time budget exhausted before a usable model was found")
        self.outcome = outcome


def _print_model(dset: DecisionSet, status: str, ds: BinDataset) -> None:
    for rule in dset.rules:
        print("rule: %s" % rule.render(ds.feature_names, ds.classes))
    objective = dset.metadata.get("objective", dset.total_size)
    print("status=%s total_size=%d objective=%s rules=%d"
          % (status, dset.total_size, objective, dset.num_rules))


def cmd_learn(args) -> int:
    config = RunConfig.from_args(args)
    clock = _Clock(config.limits)
    ds = _sanitized(_load_bindata(args.data, config.bins), config)
    try:
        dset, status = _learn_model(ds, config, clock)
    except CliTimeout as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    # normalize to the CLI vocabulary; the library names its modes
    # perfect/bounded/sparse and its scopes aggregated/per_class
    dset.metadata["mode"] = config.mode
    dset.metadata["scope"] = config.scope
    dset.metadata["feature_names"] = list(ds.feature_names)  # for eval's check
    dset.metadata["numeric_bins"] = ds.numeric_bins  # eval bins with the training cuts
    _print_model(dset, status, ds)
    if args.out:
        save_model(dset, args.out)
        print("model written to %s" % args.out)
    return 0


def _check_features(dset: DecisionSet, ds: BinDataset) -> None:
    """Rules name features by index, so the eval data must binarize to
    the features the model was trained on, when the model stored them."""
    trained = dset.metadata.get("feature_names")
    if trained is None or trained == ds.feature_names:
        return
    f = 0
    while f < min(len(trained), len(ds.feature_names)) and trained[f] == ds.feature_names[f]:
        f += 1
    model, data = (repr(names[f]) if f < len(names) else "absent"
                   for names in (trained, ds.feature_names))
    raise CliError("the data's features differ from the model's: feature %d is %s in the "
                   "model and %s in the data" % (f, model, data))


def cmd_eval(args) -> int:
    dset = load_model(args.model)
    ds = _load_bindata(args.data, args.bins, dset.metadata.get("numeric_bins"))
    _check_features(dset, ds)
    report = evaluate(dset, ds, mode="standard")
    counts = {}
    for outcome in report.per_example:
        counts[outcome] = counts.get(outcome, 0) + 1
    print("examples=%d misclassified=%d accuracy=%.1f"
          % (report.num_examples, report.errors, report.accuracy))
    print("outcomes: " + " ".join("%s=%d" % (k, counts[k]) for k in sorted(counts)))
    return 0


def cmd_cv(args) -> int:
    config = RunConfig.from_args(args)
    clock = _Clock(config.limits)
    if args.folds < 2:
        raise CliError("--folds must be >= 2")
    ds = _load_bindata(args.data, config.bins)
    plan = kfold_split(ds, args.folds, config.seed)
    accuracies = []
    sizes = []
    for fold in range(args.folds):
        train = _sanitized(ds.subset(plan.train_indices(fold)), config)
        try:
            dset, status = _learn_model(train, config, clock, context={"fold": fold},
                                        later_models=args.folds - fold - 1)
        except CliTimeout as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        report = evaluate(dset, ds.subset(plan.test_indices(fold)), mode="standard")
        accuracies.append(report.accuracy)
        sizes.append(dset.total_size)
        print("fold %d: accuracy=%.1f total_size=%d status=%s"
              % (fold, report.accuracy, dset.total_size, status))
    print("mean accuracy=%.1f mean total_size=%.1f"
          % (sum(accuracies) / len(accuracies), sum(sizes) / len(sizes)))
    return 0


def _encode_one(ds: BinDataset, scope: Scope, config: RunConfig, path: str) -> None:
    n = first_budget(ds, scope, ENCODINGS[config.mode], config.n0, config.limits.max_nodes)
    if config.mode == "opt":
        bundle = build_perfect(ds, n, scope)
    elif config.mode == "mopt":
        bundle = build_bounded(ds, n, scope)
    else:
        bundle = build_sparse(ds, n, lam_to_cost(config.lam, ds.total_weight), scope)
    emit_dimacs(bundle.formula, path)
    sidecar = {
        "varmap": bundle.varmap.to_json_dict(),
        "mode": bundle.mode,
        "scope": scope.kind,
        "target": None if scope.target is None else ds.classes[scope.target],
        "classes": list(ds.classes),
        "feature_names": list(ds.feature_names),
        "lambda_cost": bundle.lambda_cost,
    }
    with open(path + ".map.json", "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s and %s" % (path, path + ".map.json"))


def cmd_encode(args) -> int:
    config = RunConfig.from_args(args)
    ds = _sanitized(_load_bindata(args.data, config.bins), config)
    if config.scope == "aggregated":
        _encode_one(ds, Scope.aggregated(), config, args.dimacs)
        return 0
    root, ext = os.path.splitext(args.dimacs)
    for target in range(len(ds.classes)):
        path = "%s.class%d%s" % (root, target, ext)
        _encode_one(ds, Scope.per_class(target), config, path)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; config errors are exit 1
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _add_common(sub, learning: bool) -> None:
    sub.add_argument("--data", required=True, help="input CSV (last column is the class)")
    sub.add_argument("--bins", type=int, default=2,
                     help="quantization bins for numeric features (default 2)" + (
                         "" if learning else "; a column whose training cuts the model "
                                             "stores is binned with those"))
    sub.add_argument("--seed", type=int, default=1234)
    sub.add_argument("--verbose", action="store_true",
                     help="line-delimited JSON progress on stderr")
    if learning:
        sub.add_argument("--mode", choices=MODES, default="opt")
        sub.add_argument("--scope", choices=SCOPES, default="per-class")
        sub.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="per-node penalty rate (sparse mode only)")
        sub.add_argument("--n0", type=int, default=None,
                         help="first node budget (mopt/sparse); default for mopt: the size "
                              "of a greedy exact-fit decision set, for sparse: 2*(K+2); both "
                              "at most min(2*(K+2), 32). A later budget, if any, follows "
                              "from what the first round proves")
        sub.add_argument("--time-limit", type=float, default=600.0,
                         help="total seconds for the whole command, across classes and folds")
        sub.add_argument("--solve-limit", type=float, default=60.0,
                         help="seconds per solver call")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rulesat",
                     description="Learn minimum-size decision sets with a SAT solver.")
    subs = parser.add_subparsers(dest="command", required=True)

    learn = subs.add_parser("learn", help="train a decision set from a CSV file")
    _add_common(learn, learning=True)
    learn.add_argument("--out", default=None, help="write the model JSON here")
    learn.set_defaults(func=cmd_learn)

    ev = subs.add_parser("eval", help="score a saved model against a CSV file")
    _add_common(ev, learning=False)
    ev.add_argument("--model", required=True, help="model JSON from learn")
    ev.set_defaults(func=cmd_eval)

    cv = subs.add_parser("cv", help="stratified k-fold cross-validation")
    _add_common(cv, learning=True)
    cv.add_argument("--folds", type=int, default=5)
    cv.set_defaults(func=cmd_cv)

    enc = subs.add_parser("encode", help="write the training CNF/WCNF without solving")
    _add_common(enc, learning=True)
    enc.add_argument("--dimacs", required=True, help="output DIMACS path")
    enc.set_defaults(func=cmd_encode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (CliError, DatasetError, EncodingError, ModelError, FormulaError,
            OptimizerError, ContradictionError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
