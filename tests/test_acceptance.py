"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each test prints one PASS line with its measured numbers; a failure of
any assertion marks the corresponding criterion as failed.
"""

import random
import time

import numpy as np

from rulesat.dataset import BinDataset
from rulesat.encoder import Scope, build_bounded, build_perfect, build_sparse
from rulesat.formula import Formula, check_model
from rulesat.model import DecisionSet, Rule, evaluate, verify_perfect
from rulesat.optimizer import (
    maxsat_solve,
    minimize_perfect,
    minimize_sparse,
)
from rulesat.solver import Solver

from conftest import make_ex1, random_dataset
from oracles import all_models, brute_min_cost, oracle_min_size, php_clauses

AGG = Scope.aggregated()


def test_criterion_1_example_minimum_aggregated_size():
    start = time.monotonic()
    out = minimize_perfect(make_ex1(), AGG)
    elapsed = time.monotonic() - start
    assert out.status == "optimal"
    assert out.objective == 7
    ok, witness = verify_perfect(out.decision_set, make_ex1(), AGG)
    assert ok, witness
    # sizes 1-6 are UNSAT for the aggregated encoding itself
    for n in range(1, 8):
        solver = Solver()
        solver.add_formula(build_perfect(make_ex1(), n, AGG).formula)
        assert solver.solve() is (n == 7), n
    # the search runs per class: class 0 fits 4 nodes, class 1 fits 3, and
    # each starts at its lower bound, which here is its optimum
    rounds = out.stats["rounds"]
    assert [(r["class"], r["n"], r["status"]) for r in rounds] == [("0", 4, "sat"), ("1", 3, "sat")]
    assert out.stats["lower_bound"] == 7
    assert elapsed < 5.0, elapsed
    print("PASS criterion 1: aggregated size 7, sizes 1-6 unsat, %.2fs" % elapsed)


def test_criterion_2_example_per_class_sizes():
    ex1 = make_ex1()
    start = time.monotonic()
    out0 = minimize_perfect(ex1, Scope.per_class(0))
    out1 = minimize_perfect(ex1, Scope.per_class(1))
    elapsed = time.monotonic() - start
    assert out1.objective == 3
    assert out0.objective == 4
    union = DecisionSet(
        rules=out0.decision_set.rules + out1.decision_set.rules,
        classes=["0", "1"],
        total_size=out0.objective + out1.objective,
    )
    ok, witness = verify_perfect(union, ex1, AGG)
    assert ok, witness
    assert elapsed < 5.0, elapsed
    print("PASS criterion 2: per-class sizes 3 and 4, union exact, %.2fs" % elapsed)


def test_criterion_3_bounded_budget_leaves_two_nodes_unused():
    ex1 = make_ex1()
    bundle = build_bounded(ex1, 9, AGG)
    res = maxsat_solve(bundle)
    assert res.status == "optimal"
    assert res.cost == 7
    vm = bundle.varmap
    unused = [j for j in range(1, 10) if res.assignment.value(vm.unused_var(j))]
    assert len(unused) == 2, unused
    print("PASS criterion 3: budget 9 uses 7 nodes, unused flags %s" % unused)


def test_criterion_4_sparse_tradeoff_points():
    ex1 = make_ex1()
    cheap = minimize_sparse(ex1, AGG, lam=0.5)
    assert cheap.status == "optimal"
    assert cheap.objective == 7
    assert cheap.decision_set.rules == [Rule(body=(), head=0)]
    assert cheap.decision_set.metadata["lambda_cost"] == 4
    dear = minimize_sparse(ex1, AGG, lam=1.2)
    assert dear.decision_set.metadata["lambda_cost"] == 10  # above total weight 8
    assert dear.status == "optimal"
    assert dear.objective == 8
    assert dear.decision_set.rules == []
    print("PASS criterion 4: lambda 0.5 gives unit rule at cost 7, "
          "lambda 1.2 gives empty set at cost 8")


def test_criterion_5_perfect_search_matches_oracle_en_masse():
    rng = random.Random(20260819)
    start = time.monotonic()
    datasets = 0
    runs = 0
    while datasets < 200:
        ds = random_dataset(rng, max_m=6, max_k=4)
        datasets += 1
        for scope in (AGG, Scope.per_class(0), Scope.per_class(1)):
            expected = oracle_min_size(ds, scope, cap=30)
            out = minimize_perfect(ds, scope)
            assert out.status == "optimal", (datasets, scope)
            assert out.objective == expected, (datasets, scope, ds)
            ok, witness = verify_perfect(out.decision_set, ds, scope)
            assert ok, (datasets, scope, witness)
            runs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, elapsed
    print("PASS criterion 5: %d datasets, %d scoped searches match the "
          "oracle exactly, %.1fs" % (datasets, runs, elapsed))


def test_criterion_6_maxsat_matches_exhaustive_minimum():
    rng = random.Random(4242)
    solved = 0
    infeasible = 0
    trial = 0
    while solved < 200 and trial < 800:
        trial += 1
        num_vars = rng.randint(4, 12)
        f = Formula(num_vars=num_vars)
        for _ in range(rng.randint(3, 18)):
            width = rng.randint(1, 3)
            f.add_hard([
                rng.choice([-1, 1]) * v
                for v in rng.sample(range(1, num_vars + 1), width)
            ])
        for _ in range(rng.randint(1, 8)):
            width = rng.randint(1, 2)
            f.add_soft([
                rng.choice([-1, 1]) * v
                for v in rng.sample(range(1, num_vars + 1), width)
            ], rng.randint(1, 7))
        expected = brute_min_cost(num_vars, f.hard, f.soft)
        res = maxsat_solve(f)
        if expected is None:
            assert res.status == "infeasible", trial
            infeasible += 1
            continue
        assert res.status == "optimal", trial
        assert res.cost == expected, (trial, res.cost, expected)  # zero tolerance
        solved += 1
    assert solved >= 200
    print("PASS criterion 6: %d weighted instances exact "
          "(%d optima, %d infeasible)" % (trial, solved, infeasible))


def test_criterion_7_solver_agrees_with_enumeration():
    rng = random.Random(777)
    plan = [(3, 12)] * 470 + [(13, 16)] * 25 + [(17, 20)] * 5
    sat_count = 0
    for trial, (lo, hi) in enumerate(plan):
        num_vars = rng.randint(lo, hi)
        f = Formula(num_vars=num_vars)
        for _ in range(rng.randint(2, 3 * num_vars)):
            width = rng.randint(1, 3)
            f.add_hard([
                rng.choice([-1, 1]) * v
                for v in rng.sample(range(1, num_vars + 1), width)
            ])
        expected = all_models(num_vars, f.hard).size > 0
        solver = Solver()
        solver.add_formula(f)
        got = solver.solve()
        assert got == expected, trial
        if got:
            ok, bad = check_model(f, solver.model)
            assert ok, (trial, bad)
            sat_count += 1
    num_vars, clauses = php_clauses(3, 2)
    pigeons = Solver()
    pigeons.ensure_vars(num_vars)
    for clause in clauses:
        pigeons.add_clause(clause)
    assert pigeons.solve() is False
    assert sat_count >= 100
    print("PASS criterion 7: 500 formulas agree with enumeration "
          "(%d models all check), pigeonhole 3-into-2 unsat" % sat_count)


def test_criterion_8_evaluation_accuracy_values():
    ex1 = make_ex1()
    partial = DecisionSet(
        rules=[Rule(body=((0, False),), head=1)], classes=["0", "1"], total_size=2,
    )
    report = evaluate(partial, ex1)
    assert report.accuracy == 37.5  # exact: 3 of 8 correct
    perfect = DecisionSet(
        rules=[
            Rule(body=((0, True),), head=0),
            Rule(body=((0, False), (1, False)), head=1),
            Rule(body=((1, True),), head=0),
        ],
        classes=["0", "1"],
        total_size=7,
    )
    assert evaluate(perfect, ex1).accuracy == 100.0
    print("PASS criterion 8: single negated-literal rule scores exactly "
          "37.5, exact-fit set scores 100.0")


def _pattern_dataset(m: int, k: int) -> BinDataset:
    examples = [
        (tuple((i >> (f % 16)) & 1 for f in range(k)), i % 2, 1)
        for i in range(m)
    ]
    return BinDataset(num_features=k, classes=["0", "1"],
                      feature_names=["f%d" % f for f in range(k)],
                      examples=examples)


def _r_squared(xs, ys):
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * np.asarray(xs) + intercept
    resid = np.asarray(ys, dtype=float) - pred
    total = np.asarray(ys, dtype=float) - np.mean(ys)
    return float(1.0 - (resid @ resid) / (total @ total)), slope


def test_criterion_9_encoding_size_is_linear_per_dimension():
    checks = []
    for builder in (
        lambda ds, n: build_perfect(ds, n, AGG),
        lambda ds, n: build_sparse(ds, n, 2, AGG),
    ):
        node_counts = [4, 8, 12, 16, 20]
        ys = [builder(_pattern_dataset(8, 4), n).formula.literal_count()
              for n in node_counts]
        checks.append(("nodes", _r_squared(node_counts, ys)))

        example_counts = [4, 8, 12, 16, 20]
        ys = [builder(_pattern_dataset(m, 4), 8).formula.literal_count()
              for m in example_counts]
        checks.append(("examples", _r_squared(example_counts, ys)))

        # feature sweep above the pairwise threshold, where the node
        # selector uses the ladder encoding and stays linear
        feature_counts = [25, 30, 35, 40, 45]
        ys = [builder(_pattern_dataset(6, k), 8).formula.literal_count()
              for k in feature_counts]
        checks.append(("features", _r_squared(feature_counts, ys)))
    for dimension, (r2, slope) in checks:
        assert r2 > 0.99, (dimension, r2)
        assert slope > 0, dimension
    summary = ", ".join("%s R2=%.4f" % (d, r2) for d, (r2, _) in checks)
    print("PASS criterion 9: literal counts linear per dimension (%s)" % summary)
