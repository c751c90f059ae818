"""Command-line front end: learn, eval, cv, and encode subcommands.

Exit codes: 0 on success, 1 on argument/data/config errors, 2 when the
time budget ran out before any usable model was found.

learn and cv search one class at a time, in class order, through
optimizer._search_each_class, and report the union of the rule sets;
classes absent from the training data contribute no rules.  Only
aggregated sparse is one joint search, so for opt and mopt --scope
changes only the model's labels.  The command runs the searches inside
the drivers, cover._cover_class and optimizer._sparse_search.  encode
searches nothing: it has no clock, and no node cap bounds its --n0.
--time-limit is one clock for the whole command.  cv hands each fold an
equal share of the time left among the folds to come
(optimizer._Clock.share), and the class loop hands each class search an
equal share of its model's time left among the classes to come, so time
a search leaves unused goes to the rest of its own fold first.  A share
never ends after the command's deadline, so past it no search starts.

cv copies no rows per fold: dataset.fold_carriers groups the rows once
into their distinct examples, and each fold trains on its training
rows' carriers and is scored on its test rows', each weighted by its
count.  opt and mopt refuse contradictory data before fold 0, on the
whole dataset's carriers, as learn does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from .cover import _cover_class
from .dataset import (BinDataset, DatasetError, binarize, fold_carriers, kfold_split, load_csv,
                      sanitize)
from .dimacs import emit_dimacs
from .encoder import (EncodingError, Scope, build_bounded, build_perfect, build_sparse,
                      lam_to_cost)
from .formula import FormulaError
from .model import DecisionSet, ModelError, evaluate, load_model, save_model
# the benchmark's tracer patches load_csv, binarize, sanitize,
# kfold_split, evaluate, minimize_* and main by their names in this
# module, so the commands call them through those names; the minimize_*
# drivers are not called here and stay importable only for it
from .optimizer import (MAX_NODES, ContradictionError, OptimizerError, SearchLimits,  # noqa: F401
                        _Clock, _search_each_class, _sparse_search, first_budget,
                        minimize_bounded, minimize_perfect, minimize_sparse)

MODES = ("opt", "mopt", "sparse")
ENCODINGS = {"opt": "perfect", "mopt": "bounded", "sparse": "sparse"}  # the library's names
SCOPES = ("aggregated", "per-class")


class CliError(ValueError):
    """Configuration problem detected after argument parsing."""


def _check_flags(args) -> None:
    """The --lambda and --n0 combinations the mode allows."""
    if args.mode == "sparse" and args.lam is None:
        raise CliError("--lambda is required with --mode sparse")
    if args.mode != "sparse" and args.lam is not None:
        raise CliError("--lambda only applies to --mode sparse")
    if args.lam is not None and args.lam < 0:
        raise CliError("--lambda must be >= 0")
    # encode writes an encoding of --n0 nodes; opt and mopt learn by set cover
    if args.mode != "sparse" and args.n0 is not None and args.command != "encode":
        raise CliError("--n0 only applies to --mode sparse and to encode")


def _command_clock(args) -> _Clock:
    """The one clock of a learn or cv command, after its flags check out."""
    _check_flags(args)
    return _Clock(SearchLimits(wall_time_budget=args.time_limit,
                               per_solve_budget=args.solve_limit))


def _load_bindata(path: str, bins: int, numeric_bins: dict | None = None) -> BinDataset:
    return binarize(load_csv(path), q=bins, numeric_bins=numeric_bins)


def _sanitized(ds: BinDataset, mode: str) -> BinDataset:
    """Deduplicate for training; exact-fit modes refuse contradictory data."""
    kind = "sparse" if mode == "sparse" else "perfect"
    clean, report = sanitize(ds, kind)
    if kind == "perfect" and report.removed > 0:
        raise CliError(
            "dataset has contradictory examples (weight %d removed by sanitize); "
            "clean the data or use --mode sparse" % report.removed
        )
    return clean


def _learn_model(ds: BinDataset, args, clock: _Clock, context: dict | None = None):
    """Train per --scope; returns (DecisionSet, status) or raises
    CliTimeout when nothing usable was found in time.  The searches (one
    per class, or one joint search for aggregated sparse) run on clock,
    the model's share of the command's clock."""
    def progress(record):
        if args.verbose:
            print(json.dumps({**(context or {}), **record}, sort_keys=True), file=sys.stderr)

    if args.mode == "sparse" and args.scope == "aggregated":
        outcome = _sparse_search(ds, Scope.aggregated(), args.lam, args.n0, clock, progress)
    else:
        if args.scope == "aggregated":  # a two-class model, though searched per class
            Scope.aggregated().validate(len(ds.classes))
        if args.mode == "sparse":
            def search(scope, clock, progress):
                return _sparse_search(ds, scope, args.lam, args.n0, clock, progress)
        else:  # an exact fit: opt and mopt run the same search
            search = partial(_cover_class, ds)
        outcome = _search_each_class(ds, search, args.mode, clock, progress)
        if args.scope == "per-class" and outcome.decision_set is not None:
            metadata = outcome.decision_set.metadata
            metadata["per_class_objectives"] = outcome.stats["objectives"]
            if args.mode == "sparse":
                metadata["lambda_cost"] = lam_to_cost(args.lam, ds.total_weight)
    if outcome.decision_set is None:
        raise CliTimeout("time budget exhausted before a usable model was found")
    return outcome.decision_set, outcome.status


class CliTimeout(Exception):
    """No usable model was found in the command's time: exit code 2."""


def _print_model(dset: DecisionSet, status: str, ds: BinDataset) -> None:
    for rule in dset.rules:
        print("rule: %s" % rule.render(ds.feature_names, ds.classes))
    objective = dset.metadata.get("objective", dset.total_size)
    print("status=%s total_size=%d objective=%s rules=%d"
          % (status, dset.total_size, objective, dset.num_rules))


def cmd_learn(args) -> int:
    clock = _command_clock(args)
    ds = _sanitized(_load_bindata(args.data, args.bins), args.mode)
    dset, status = _learn_model(ds, args, clock)
    # the searches were handed --mode and record it; the library names
    # its scopes aggregated/per_class
    dset.metadata["scope"] = args.scope
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
    clock = _command_clock(args)
    if args.folds < 2:
        raise CliError("--folds must be >= 2")
    ds = _load_bindata(args.data, args.bins)
    whole, folds = fold_carriers(ds, kfold_split(ds, args.folds, args.seed))
    _sanitized(whole, args.mode)  # refuses contradictory data before fold 0, as learn does
    accuracies = []
    sizes = []
    for fold, (train, test) in enumerate(folds):
        dset, status = _learn_model(_sanitized(train, args.mode), args,
                                    clock.share(args.folds - fold), context={"fold": fold})
        report = evaluate(dset, test, mode="standard")
        accuracies.append(report.accuracy)
        sizes.append(dset.total_size)
        print("fold %d: accuracy=%.1f total_size=%d status=%s"
              % (fold, report.accuracy, dset.total_size, status))
    print("mean accuracy=%.1f mean total_size=%.1f"
          % (sum(accuracies) / len(accuracies), sum(sizes) / len(sizes)))
    return 0


def _encode_one(ds: BinDataset, scope: Scope, args, path: str) -> None:
    n = first_budget(ds, scope, ENCODINGS[args.mode], args.n0)
    if args.mode == "opt":
        bundle = build_perfect(ds, n, scope)
    elif args.mode == "mopt":
        bundle = build_bounded(ds, n, scope)
    else:
        bundle = build_sparse(ds, n, lam_to_cost(args.lam, ds.total_weight), scope)
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
    _check_flags(args)
    ds = _sanitized(_load_bindata(args.data, args.bins), args.mode)
    if args.scope == "aggregated":
        _encode_one(ds, Scope.aggregated(), args, args.dimacs)
        return 0
    root, ext = os.path.splitext(args.dimacs)
    for target in range(len(ds.classes)):
        path = "%s.class%d%s" % (root, target, ext)
        _encode_one(ds, Scope.per_class(target), args, path)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; config errors are exit 1
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _add_flags(sub, model: bool = False, search: bool = False) -> None:
    """The data flags, with model those that pick what to learn or encode,
    and with search those of a search (learn and cv)."""
    sub.add_argument("--data", required=True, help="input CSV (last column is the class)")
    sub.add_argument("--bins", type=int, default=2,
                     help="quantization bins for numeric features: 2, 3 or 4 (default 2)" + (
                         "" if model else "; a column whose training cuts the model "
                                          "stores is binned with those"))
    if model:
        sub.add_argument("--mode", choices=MODES, default="opt",
                         help="opt and mopt: a smallest exact-fit decision set (learn and cv "
                              "run one search for both, by prime rules and a set cover); "
                              "sparse: misclassified weight plus a per-node penalty")
        sub.add_argument("--scope", choices=SCOPES, default="per-class",
                         help="per-class (default): a rule set per class, joined; aggregated: "
                              "one model of exactly 2 classes, which for opt and mopt changes "
                              "only the model's labels, and for sparse is one joint search")
        sub.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="per-node penalty rate (sparse mode only)")
        sub.add_argument("--n0", type=int, default=None, help=(
            "first node budget of --mode sparse, 1..%d (the node cap, which also caps a later "
            "budget that the first round proves); default 2*(K+2) for K binarized features, "
            "at most 32" % MAX_NODES if search else
            "node count to write, any n0 >= 1; default for mopt: the size of a greedy exact-fit "
            "decision set, else 2*(K+2) for K binarized features; both at most min(2*(K+2), 32)"))
    if search:
        sub.add_argument("--verbose", action="store_true",
                         help="line-delimited JSON progress on stderr")
        sub.add_argument("--time-limit", type=float, default=600.0,
                         help="total seconds for the whole command, across classes and folds")
        sub.add_argument("--solve-limit", type=float, default=60.0,
                         help="seconds per solver call")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rulesat",
                     description="Learn minimum-size decision sets with a SAT solver.")
    subs = parser.add_subparsers(dest="command", required=True)

    learn = subs.add_parser("learn", help="train a decision set from a CSV file")
    _add_flags(learn, model=True, search=True)
    learn.add_argument("--out", default=None, help="write the model JSON here")
    learn.set_defaults(func=cmd_learn)

    ev = subs.add_parser("eval", help="score a saved model against a CSV file")
    _add_flags(ev)
    ev.add_argument("--model", required=True, help="model JSON from learn")
    ev.set_defaults(func=cmd_eval)

    cv = subs.add_parser("cv", help="stratified k-fold cross-validation")
    _add_flags(cv, model=True, search=True)
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--seed", type=int, default=1234, help="seed of the fold assignment")
    cv.set_defaults(func=cmd_cv)

    enc = subs.add_parser("encode", help="write the training CNF/WCNF without solving")
    _add_flags(enc, model=True)
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
    except CliTimeout as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (CliError, DatasetError, EncodingError, ModelError, FormulaError,
            OptimizerError, ContradictionError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
