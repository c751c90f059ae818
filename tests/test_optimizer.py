"""Search driver correctness against exhaustive reference oracles."""

import itertools
import random
import time
from functools import partial
from math import inf
from types import SimpleNamespace

import pytest

from rulesat import cover, optimizer
from rulesat.dataset import BinDataset
from rulesat.encoder import (EncodingError, Encoder, Scope, build_bounded, build_perfect,
                             build_sparse, lam_to_cost)
from rulesat.formula import Formula, check_model
from rulesat.model import DecisionSet, Rule, decode, evaluate, verify_perfect
from rulesat.optimizer import (
    ContradictionError,
    OptimizerError,
    SearchLimits,
    default_node_budget,
    maxsat_solve,
    minimize_bounded,
    minimize_perfect,
    minimize_sparse,
)
from rulesat.solver import SolveBudgetExceeded, Solver

from conftest import forced_rules, make_ex1, make_untight, random_dataset
from oracles import brute_min_cost, oracle_min_size, sequence_min_size, sparse_min_objective

AGG = Scope.aggregated()


def make_loose() -> BinDataset:
    """Class 0's lower bound, 2, is below its optimum, 4: its four vectors
    share rules pairwise (s(v) = 2 each), but no one rule of size 2 covers
    them all."""
    rows = [((0, 0, 1), 0), ((1, 1, 0), 1), ((1, 0, 1), 0), ((0, 1, 1), 0), ((0, 0, 0), 0)]
    return BinDataset(3, ["0", "1"], ["a", "b", "c"], [(bits, cls, 1) for bits, cls in rows])


# ---------------------------------------------------------------- maxsat


def test_maxsat_fixed_instance():
    f = Formula()
    f.add_hard([1, 2])
    f.add_soft([-1], 3)
    f.add_soft([-2], 2)
    res = maxsat_solve(f)
    assert res.status == "optimal"
    assert res.cost == 2
    # paying the weight-2 soft is forced: var 1 stays false, var 2 true
    assert not res.assignment.value(1)
    assert res.assignment.value(2)


def test_maxsat_differential_random():
    rng = random.Random(2024)
    optima = 0
    for trial in range(150):
        num_vars = rng.randint(3, 10)
        f = Formula(num_vars=num_vars)
        for _ in range(rng.randint(2, 12)):
            width = rng.randint(1, 3)
            lits = [
                rng.choice([-1, 1]) * v
                for v in rng.sample(range(1, num_vars + 1), width)
            ]
            f.add_hard(lits)
        for _ in range(rng.randint(1, 6)):
            width = rng.randint(1, 2)
            lits = [
                rng.choice([-1, 1]) * v
                for v in rng.sample(range(1, num_vars + 1), width)
            ]
            f.add_soft(lits, rng.randint(1, 5))
        if not f.soft:
            continue
        expected = brute_min_cost(num_vars, f.hard, f.soft)
        res = maxsat_solve(f)
        if expected is None:
            assert res.status == "infeasible", trial
            assert res.assignment is None and res.cost is None
            continue
        assert res.status == "optimal", trial
        assert res.cost == expected, trial
        ok, bad = check_model(f, res.assignment)
        assert ok, (trial, bad)
        falsified = sum(
            w for clause, w in f.soft
            if not any(res.assignment.lit_true(l) for l in clause)
        )
        assert falsified == expected, trial
        optima += 1
    assert optima > 50  # the generator must produce plenty of feasible cases


def test_maxsat_rejects_pure_sat_problems():
    f = Formula()
    f.add_hard([1])
    with pytest.raises(OptimizerError, match="at least one soft clause"):
        maxsat_solve(f)


def test_maxsat_infeasible_hard_clauses():
    f = Formula()
    f.add_hard([1])
    f.add_hard([-1])
    f.add_soft([2], 1)
    res = maxsat_solve(f)
    assert res.status == "infeasible"
    assert res.assignment is None and res.cost is None


def test_maxsat_timeout_with_exhausted_budget():
    f = Formula()
    f.add_hard([1, 2])
    f.add_soft([-1], 1)
    res = maxsat_solve(f, SearchLimits(wall_time_budget=1e-9))
    assert res.status == "timeout"
    assert res.assignment is None


def counting(calls, name, fn):
    """fn, appending name to calls on every call."""
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


def test_maxsat_builds_no_counter_past_the_deadline(ex1, monkeypatch):
    calls = []
    monkeypatch.setattr(optimizer, "_cost_levels",
                        counting(calls, "_cost_levels", optimizer._cost_levels))
    res = maxsat_solve(build_sparse(ex1, 3, 4, AGG), SearchLimits(wall_time_budget=1e-9))
    assert res.status == "timeout"
    assert res.assignment is None
    assert calls == []


def test_maxsat_counter_stops_between_totalizers_past_the_deadline(ex1, monkeypatch):
    # example weights 1 and a node cost of 4: two totalizers; the clock
    # runs out once the first is built
    calls = []
    monkeypatch.setattr(optimizer, "build_totalizer",
                        counting(calls, "build_totalizer", optimizer.build_totalizer))
    monkeypatch.setattr(optimizer._Clock, "expired", lambda self: bool(calls))
    res = maxsat_solve(build_sparse(ex1, 3, 4, AGG))
    assert res.status == "timeout"
    assert res.assignment is None
    assert calls == ["build_totalizer"]


def test_maxsat_counter_stops_between_merges_past_the_deadline(ex1, monkeypatch):
    # the same two totalizers, both built before the clock runs out: the
    # merge of their levels is not started
    calls = []
    monkeypatch.setattr(optimizer, "build_totalizer",
                        counting(calls, "build_totalizer", optimizer.build_totalizer))
    monkeypatch.setattr(optimizer, "_merge", counting(calls, "_merge", optimizer._merge))
    monkeypatch.setattr(optimizer._Clock, "expired", lambda self: len(calls) == 2)
    res = maxsat_solve(build_sparse(ex1, 3, 4, AGG))
    assert res.status == "timeout"
    assert res.assignment is None
    assert calls == ["build_totalizer", "build_totalizer"]


def test_cost_levels_are_exact_at_every_bound():
    # no hard clauses: a bound b admits a model exactly when some
    # assignment falsifies at most weight b, and every model it admits does
    rng = random.Random(2110)
    for trial in range(300):
        num_vars = rng.randint(1, 6)
        soft = [([rng.choice([-1, 1]) * v for v in rng.sample(range(1, num_vars + 1),
                                                              rng.randint(1, min(2, num_vars)))],
                 rng.randint(1, 7))
                for _ in range(rng.randint(1, 8))]
        solver = Solver()
        solver.ensure_vars(num_vars)
        levels = optimizer._cost_levels(solver, soft, optimizer._Clock(SearchLimits()))
        assert [value for value, _ in levels] == sorted({value for value, _ in levels}), trial
        least = brute_min_cost(num_vars, [], soft)
        for bound in range(sum(w for _, w in soft) + 1):
            sat = solver.solve([-lit for value, lit in levels if value > bound])
            assert sat == (least <= bound), (trial, bound, soft)
            if sat:
                assert optimizer._model_cost(soft, solver.model) <= bound, (trial, bound, soft)


def recorded_solves(monkeypatch, late_after=None):
    """Totals of every Solver.solve call and the conflicts it added, also
    of a call that raises.  With late_after, a solve's deadline passes
    once it has added that many conflicts, so it times out mid-search."""
    totals = {"solve_calls": 0, "conflicts": 0}
    solve = Solver.solve
    current = []

    def recorded(solver, *args, **kwargs):
        totals["solve_calls"] += 1
        current[:] = [solver, solver.conflicts]
        try:
            return solve(solver, *args, **kwargs)
        finally:
            totals["conflicts"] += solver.conflicts - current[1]

    monkeypatch.setattr(Solver, "solve", recorded)
    if late_after is not None:
        def monotonic():
            solver, before = current
            return inf if solver.conflicts - before >= late_after else 0.0
        monkeypatch.setattr("rulesat.solver._DEADLINE_CHECK", 1)
        monkeypatch.setattr("rulesat.solver.time", SimpleNamespace(monotonic=monotonic))
    return totals


def test_stats_count_every_solve_and_its_conflicts(ex1, monkeypatch):
    totals = recorded_solves(monkeypatch)
    searches = [
        # ex1's classes have witnesses, so their node searches make no
        # conflict; make_untight's have none
        lambda scope: minimize_perfect(make_untight(), scope),
        lambda scope: minimize_bounded(make_untight(), scope),
        # stage 1 of the cover calls no solver, and on ex1 stage 2 meets no
        # conflict
        lambda scope: cover.minimize_exact_fit(planted_probe(20, 1), scope),
        lambda scope: minimize_sparse(ex1, scope, lam=0.05),
        lambda scope: maxsat_solve(build_sparse(ex1, 3, 4, scope)),
    ]
    for search in searches:
        for scope in (AGG, Scope.per_class(0), Scope.per_class(1)):
            totals.update(solve_calls=0, conflicts=0)
            stats = search(scope).stats
            assert totals["conflicts"] > 0, scope
            assert {key: stats[key] for key in totals} == totals, scope


def test_stats_count_a_solve_cut_off_mid_search(ex1, monkeypatch):
    totals = recorded_solves(monkeypatch, late_after=2)
    for search in (lambda: minimize_perfect(make_untight(), AGG),
                   lambda: minimize_sparse(ex1, AGG, lam=0.05),
                   lambda: maxsat_solve(build_sparse(ex1, 3, 4, AGG))):
        totals.update(solve_calls=0, conflicts=0)
        out = search()
        # a solve raised: a search that ran out of time keeps its best model
        assert out.status in ("timeout", "feasible")
        assert {key: out.stats[key] for key in totals} == totals


def planted_8(seed=11):
    """60 distinct rows over 8 features, the class a 3-clause rule
    (the CSV of the CLI time-limit tests)."""
    rng = random.Random(seed)
    examples = []
    for code in rng.sample(range(1 << 8), 60):
        f = tuple((code >> i) & 1 for i in range(8))
        cls = int((f[0] and not f[1]) or (f[2] and f[3]) or (f[4] and f[5] and not f[6]))
        examples.append((f, cls, 1))
    return BinDataset(num_features=8, classes=["0", "1"],
                      feature_names=["f%d" % i for i in range(8)], examples=examples)


def test_maxsat_first_model_needs_no_conflict(monkeypatch):
    # the first solve starts from the phase that falsifies every soft
    # clause (each example misclassified, each node used), a model
    # propagation alone completes; the second solve is cut off
    per_call = []

    class FirstOnly(Solver):
        def solve(self, *args, **kwargs):
            if per_call:
                raise SolveBudgetExceeded
            before = self.conflicts
            sat = super().solve(*args, **kwargs)
            per_call.append(self.conflicts - before)
            return sat

    monkeypatch.setattr(optimizer, "Solver", FirstOnly)
    ds = planted_8()
    n = optimizer.default_node_budget(ds.num_features)
    for scope in (AGG, Scope.per_class(0), Scope.per_class(1)):
        per_call.clear()
        bundle = build_sparse(ds, n, lam_to_cost(0.01, ds.total_weight), scope)
        res = maxsat_solve(bundle)
        assert res.status == "timeout" and res.assignment is not None, scope
        assert per_call == [0], scope


# ---------------------------------------------------------------- perfect


def test_minimize_perfect_aggregated_example():
    events = []
    out = minimize_perfect(make_ex1(), AGG, progress=events.append)
    assert out.status == "optimal"
    assert out.objective == 7
    assert out.decision_set.total_size == 7
    assert out.decision_set.metadata == {
        "mode": "perfect", "scope": "aggregated", "objective": 7,
    }
    assert evaluate(out.decision_set, make_ex1()).accuracy == 100.0
    # one search per class: class 0's optimum 4, then class 1's optimum 3,
    # each proven by its lower bound with no unsatisfiable round
    rounds = out.stats["rounds"]
    assert [(r["class"], r["n"], r["status"]) for r in rounds] == [("0", 4, "sat"), ("1", 3, "sat")]
    assert out.stats["lower_bound"] == 7
    assert events == rounds
    assert [rule.head for rule in out.decision_set.rules] == [0, 0, 1]


def test_minimize_perfect_per_class_union_matches_aggregated():
    ex1 = make_ex1()
    out1 = minimize_perfect(ex1, Scope.per_class(1))
    out0 = minimize_perfect(ex1, Scope.per_class(0))
    assert out1.objective == 3
    assert out0.objective == 4
    assert all(r.head == 1 for r in out1.decision_set.rules)
    assert all(r.head == 0 for r in out0.decision_set.rules)
    assert out0.objective + out1.objective == 7


def test_minimize_perfect_matches_oracles_on_micro_data():
    rng = random.Random(99)
    for trial in range(40):
        ds = random_dataset(rng, max_m=5, max_k=3)
        scopes = [AGG, Scope.per_class(0), Scope.per_class(1)]
        for scope in scopes:
            expected = oracle_min_size(ds, scope, cap=24)
            assert expected is not None  # consistent data always fits
            out = minimize_perfect(ds, scope)
            assert out.status == "optimal", (trial, scope)
            assert out.objective == expected, (trial, scope, ds)
            assert out.stats["lower_bound"] <= expected, (trial, scope, ds)
            if expected <= 5:
                assert sequence_min_size(ds, scope, cap=expected) == expected


def test_opt_sets_reencode_in_class_order_at_their_size():
    # the rules of an aggregated opt set, shuffled and then listed class 0
    # first, are a model of the perfect encoding at the set's size that
    # decodes to those rules; with a class-1 rule before a class-0 rule
    # they are excluded
    rng = random.Random(98)
    mixed = 0
    for trial in range(40):
        ds = random_dataset(rng, max_m=8, max_k=4)
        out = minimize_perfect(ds, AGG)
        assert out.objective == oracle_min_size(ds, AGG, cap=32), (trial, ds)
        rules = list(out.decision_set.rules)
        rng.shuffle(rules)
        bundle = build_perfect(ds, out.objective, AGG)
        solver = Solver()
        solver.add_formula(bundle.formula)
        in_class_order = sorted(rules, key=lambda rule: rule.head)
        assert solver.solve(forced_rules(bundle.varmap, in_class_order)), (trial, ds)
        dset = decode(solver.model, bundle.varmap, AGG, ds.classes)
        assert (dset.rules, dset.total_size) == (in_class_order, out.objective), trial
        if len({rule.head for rule in rules}) == 2:
            mixed += 1
            class_1_first = sorted(rules, key=lambda rule: -rule.head)
            assert not solver.solve(forced_rules(bundle.varmap, class_1_first)), trial
    assert mixed > 15


def test_minimize_perfect_rounds_match_fresh_solves(monkeypatch):
    # one growing encoding on one solver answers every round as a fresh
    # solver does on that round's full perfect encoding; the rounds start
    # at the lower bound, and a fresh solver refutes every budget below it
    created = []

    class CountedSolver(Solver):
        def __init__(self):
            super().__init__()
            created.append(self)

    monkeypatch.setattr(optimizer, "Solver", CountedSolver)
    rng = random.Random(123)
    for trial in range(25):
        ds = random_dataset(rng, max_m=5, max_k=3)
        per_class = []
        for scope in (Scope.per_class(0), Scope.per_class(1)):
            del created[:]
            out = minimize_perfect(ds, scope)
            rounds = out.stats["rounds"]
            assert len(created) == 1
            assert out.stats["solve_calls"] == len(rounds)
            first = max(1, out.stats["lower_bound"])
            assert [r["n"] for r in rounds] == list(range(first, first + len(rounds)))
            for n in range(1, first):
                fresh = Solver()
                fresh.add_formula(build_perfect(ds, n, scope).formula)
                assert not fresh.solve(), (trial, scope, n)
            for r in rounds:
                fresh = Solver()
                fresh.add_formula(build_perfect(ds, r["n"], scope).formula)
                expected = "sat" if fresh.solve() else "unsat"
                assert r["status"] == expected, (trial, scope, r["n"])
            if any(cls == scope.target for _, cls, _ in ds.examples):
                per_class += [(ds.classes[scope.target], r["n"], r["status"]) for r in rounds]
        # aggregated: the rounds of each class with examples, one solver each
        del created[:]
        out = minimize_perfect(ds, AGG)
        assert [(r["class"], r["n"], r["status"]) for r in out.stats["rounds"]] == per_class
        assert len(created) == len({cls for _, cls, _ in ds.examples})


def test_minimize_perfect_rejects_contradictions():
    ds = BinDataset(1, ["0", "1"], ["a"], [((1,), 0, 1), ((1,), 1, 1)])
    with pytest.raises(ContradictionError, match="sanitize"):
        minimize_perfect(ds, AGG)
    with pytest.raises(ContradictionError):
        minimize_bounded(ds, AGG, n0=4)


def test_minimize_perfect_immediate_timeout(ex1):
    out = minimize_perfect(ex1, AGG, SearchLimits(wall_time_budget=1e-9))
    assert out.status == "timeout"
    assert out.decision_set is None


def test_the_prime_facts_clauses_change_no_status():
    # the clauses the node search adds from optimizer._prime_facts hold in
    # every exact fit: at every budget up to the optimum + 1, the perfect
    # and the bounded encoding with them are satisfiable exactly when the
    # ones without them are, and both drivers still find the optimum.  Some
    # rows repeat a vector, so a vector's facts reach each of its rows
    rng = random.Random(2828)
    apart = shortest = 0
    for trial in range(100):
        ds = random_dataset(rng, max_m=6, max_k=3)
        examples = ds.examples + rng.sample(ds.examples, min(2, ds.num_examples))
        ds = BinDataset(ds.num_features, ds.classes, ds.feature_names, examples)
        for target in sorted({cls for _, cls, _ in ds.examples}):
            scope = Scope.per_class(target)
            optimum = oracle_min_size(ds, scope, cap=24)
            facts = optimizer._prime_facts(ds, scope, optimizer._Clock(SearchLimits()))
            apart += bool(facts.apart)
            shortest += bool(facts.shortest)
            for mode, build in (("perfect", build_perfect), ("bounded", build_bounded)):
                for n in range(1, optimum + 2):
                    implied = Formula()
                    Encoder(ds, scope, mode, implied, apart=facts.apart,
                            shortest=facts.shortest).build(n)
                    answers = []
                    for formula in (build(ds, n, scope).formula, implied):
                        solver = Solver()
                        solver.add_formula(formula)
                        answers.append(solver.solve())
                    assert answers[0] == answers[1], (trial, scope, mode, n)
                    assert answers[0] == (n >= optimum) or mode == "perfect", (trial, scope, n)
            for search in (minimize_perfect, minimize_bounded):
                out = search(ds, scope)
                assert (out.status, out.objective) == ("optimal", optimum), (trial, scope, search)
    assert apart > 20 and shortest > 80


def five_sets():
    """Vector 0 of class 1 against 300 random five-feature vectors of class
    0 at k=30: its prime bodies are the minimal hitting sets of those 300
    sets, a search that runs for more than 5 s unless the clock cuts it
    short."""
    k, rng = 30, random.Random(30)
    sets = set()
    while len(sets) < 300:
        sets.add(frozenset(rng.sample(range(k), 5)))
    rows = [((0,) * k, 1, 1)] + [(tuple(int(f in s) for f in range(k)), 0, 1) for s in sets]
    return BinDataset(k, ["0", "1"], ["f%d" % f for f in range(k)], rows)


def test_lower_bound_stops_at_the_deadline():
    ds = five_sets()
    scope = Scope.per_class(1)
    with pytest.raises(SolveBudgetExceeded):
        optimizer._prime_facts(ds, scope, optimizer._Clock(SearchLimits(wall_time_budget=0.2)))
    for search in (minimize_perfect, minimize_bounded):
        start = time.monotonic()
        out = search(ds, scope, limits=SearchLimits(wall_time_budget=0.2))
        assert time.monotonic() - start < 2.0, search
        assert (out.status, out.decision_set) == ("timeout", None), search
        assert [r["status"] for r in out.stats["rounds"]] == ["timeout"], search
        assert out.stats["solve_calls"] == 0, search


def test_minimize_perfect_covers_impossible_target_class():
    # no example of class 0 exists and both values of the only feature
    # occur, so the cheapest rule set covering nothing needs a
    # contradictory two-literal body: three nodes
    ds = BinDataset(1, ["0", "1"], ["a"], [((0,), 1, 1), ((1,), 1, 1)])
    scope = Scope.per_class(0)
    assert oracle_min_size(ds, scope, cap=5) == 3
    out = minimize_perfect(ds, scope)
    assert out.objective == 3
    (rule,) = out.decision_set.rules
    assert rule.head == 0
    assert set(rule.body) == {(0, True), (0, False)}


# ---------------------------------------------------------------- bounded


def test_minimize_bounded_rounds_match_fresh_solves(monkeypatch):
    # one growing encoding on one solver answers every round as a fresh
    # solver does on that round's full bounded encoding; the first round
    # runs at n0 raised to the lower bound, and a fresh solver refutes
    # every budget from n0 below it; an infeasible budget is followed by
    # the greedy set's size, the last round.  An aggregated search runs
    # the rounds of each class's own search
    created = []

    class CountedSolver(Solver):
        def __init__(self):
            super().__init__()
            created.append(self)

    monkeypatch.setattr(optimizer, "Solver", CountedSolver)
    rng = random.Random(321)
    below = above = raised = 0
    for trial in range(26):
        ds = make_loose() if trial == 25 else random_dataset(rng, max_m=5, max_k=3)
        present = sorted({cls for _, cls, _ in ds.examples})
        for scope in [AGG] + [Scope.per_class(cls) for cls in present]:
            optimum = oracle_min_size(ds, scope, cap=24)
            n0 = rng.randint(1, optimum + 2)
            del created[:]
            out = minimize_bounded(ds, scope, n0=n0)
            assert (out.status, out.objective) == ("optimal", optimum), (trial, scope)
            if scope.is_aggregated:
                assert len(created) == len(present)
                assert [(r["class"], r["n"], r["status"], r["cost"])
                        for r in out.stats["rounds"]] == [
                    (ds.classes[c], r["n"], r["status"], r["cost"]) for c in present
                    for r in minimize_bounded(ds, Scope.per_class(c), n0=n0).stats["rounds"]]
                continue
            below += n0 < optimum
            above += n0 > optimum
            assert len(created) == 1
            rounds = out.stats["rounds"]
            greedy = optimizer._greedy_budget(ds, scope, optimizer.MAX_NODES)
            first = max(n0, out.stats["lower_bound"])
            raised += first > n0
            assert [r["n"] for r in rounds] == ([first] if first >= optimum else [first, greedy])
            for n in range(n0, first):
                fresh = Solver()
                fresh.add_formula(build_bounded(ds, n, scope).formula)
                assert not fresh.solve(), (trial, scope, n)
            for r in rounds:
                fresh = Solver()
                fresh.add_formula(build_bounded(ds, r["n"], scope).formula)
                expected = "optimal" if fresh.solve() else "infeasible"
                assert r["status"] == expected, (trial, scope, n0, r["n"])
                if expected == "optimal":
                    assert r["cost"] == optimum, (trial, scope, r["n"])
    assert below > 10 and above > 10  # budgets on both sides of the optimum
    assert raised > 5


def test_model_events_share_the_rounds_time_base(ex1):
    events = []
    out = minimize_bounded(make_loose(), Scope.per_class(0), n0=2, progress=events.append)
    assert [r["n"] for r in out.stats["rounds"]] == [2, 4]  # 4: the greedy budget
    models = [e for e in events if e.get("event") == "model"]
    assert models and all(e["n"] == 4 for e in models)
    assert all("n" in e for e in events)
    times = [e["elapsed"] for e in events]
    assert times == sorted(times)
    # aggregated: both classes' records, tagged, on the one clock of the
    # call; at its greedy budget 6, class 1's first model is its witness,
    # of its optimum 3, so it does not climb
    events.clear()
    out = minimize_bounded(ex1, AGG, progress=events.append)
    assert [(r["class"], r["n"]) for r in out.stats["rounds"]] == [("0", 4), ("1", 6)]
    models = [(e["class"], e["n"], e["cost"]) for e in events if e.get("event") == "model"]
    assert models == [("0", 4, 4), ("1", 6, 3)]
    times = [e["elapsed"] for e in events]
    assert times == sorted(times)
    assert out.stats["rounds"] == [e for e in events if "status" in e]


def test_no_round_starts_after_the_deadline(ex1, monkeypatch):
    calls = []
    monkeypatch.setattr(optimizer, "_cost_levels",
                        counting(calls, "_cost_levels", optimizer._cost_levels))
    monkeypatch.setattr(Encoder, "append_node",
                        counting(calls, "append_node", Encoder.append_node))
    monkeypatch.setattr(Solver, "solve", counting(calls, "solve", Solver.solve))
    tiny = SearchLimits(wall_time_budget=1e-9)
    # what a run started after a command's deadline is handed
    left = optimizer._Clock(tiny).share()
    for out in (minimize_bounded(ex1, AGG, limits=tiny),
                minimize_sparse(ex1, AGG, lam=0.5, limits=tiny),
                minimize_perfect(ex1, AGG, limits=tiny),
                optimizer._exact_search(ex1, AGG, "bounded", None, left, None),
                optimizer._sparse_search(ex1, AGG, 0.5, None, left, None),
                optimizer._exact_search(ex1, AGG, "perfect", None, left, None)):
        assert out.status == "timeout"
        (record,) = out.stats["rounds"]
        assert (record["status"], record["cost"]) == ("timeout", None)
    assert calls == []


def test_no_class_search_starts_past_the_deadline(monkeypatch):
    # time stands still 5 s past a 1 s deadline: every class search runs
    # on an expired share of the clock and makes no solve call
    now = [100.0]
    monkeypatch.setattr(optimizer, "time", SimpleNamespace(monotonic=lambda: now[0]))
    calls = []
    monkeypatch.setattr(Solver, "solve", counting(calls, "solve", Solver.solve))
    xor = BinDataset(num_features=2, classes=["0", "1"], feature_names=["a", "b"],
                     examples=[((a, b), a ^ b, 1) for a in (0, 1) for b in (0, 1)])
    searches = {
        "perfect": lambda scope, clock, progress: optimizer._exact_search(
            xor, scope, "perfect", None, clock, progress),
        "exact_fit": partial(cover._cover_class, xor),
        "sparse": lambda scope, clock, progress: optimizer._sparse_search(
            xor, scope, 0.5, None, clock, progress),
    }
    for mode, search in searches.items():
        clock = optimizer._Clock(SearchLimits(wall_time_budget=1.0))
        now[0] += 6.0
        out = optimizer._search_each_class(xor, search, mode, clock, None)
        assert (out.status, out.decision_set) == ("timeout", None), mode
    assert calls == []


def test_a_round_builds_no_node_after_the_deadline(ex1, monkeypatch):
    # the clock runs out while the first of nine nodes is encoded: the
    # round builds no further node and times out without a solve
    calls = []
    monkeypatch.setattr(Encoder, "append_node",
                        counting(calls, "append_node", Encoder.append_node))
    monkeypatch.setattr(optimizer._Clock, "expired", lambda self: bool(calls))
    for search in (lambda: minimize_bounded(ex1, AGG, n0=9),
                   lambda: minimize_sparse(ex1, AGG, lam=0.5, n0=9)):
        calls.clear()
        out = search()
        assert calls == ["append_node"]
        assert out.status == "timeout"
        (record,) = out.stats["rounds"]
        assert (record["status"], record["cost"]) == ("timeout", None)
        assert out.stats["solve_calls"] == 0


def test_a_round_climbs_above_the_budgets_proven_infeasible(monkeypatch):
    # a budget n proven infeasible rules out every set of at most n used
    # nodes, so a later round asks for "at most c used" only from c = n + 1;
    # the lower bound b rules out every set of at most b - 1, so no round
    # asks below c = b
    asked, encoders = [], []

    class Recording(Solver):
        def solve(self, assumptions=(), deadline=None):
            asked.append(list(assumptions))
            return super().solve(assumptions, deadline)

    class Kept(Encoder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            encoders.append(self)

    monkeypatch.setattr(optimizer, "Solver", Recording)
    monkeypatch.setattr(optimizer, "Encoder", Kept)

    def climbs(ds, scope, n0):
        """The search's outcome and, per round, the largest budget the
        lower bound or an earlier round proved infeasible with the c of
        each climbing solve."""
        out, _ = asks(ds, scope, n0)
        (enc,) = encoders
        c_of = {enc.vm.unused_var(j): j - 1 for j in range(1, enc.vm.n_nodes + 1)}
        rounds = iter(out.stats["rounds"])
        floor, record, per_round = out.stats["lower_bound"] - 1, None, []
        for assumptions in asked:
            if len(assumptions) == 1:  # a round's first solve, under its guard alone
                if record is not None and record["status"] == "infeasible":
                    floor = max(floor, record["n"])
                record = next(rounds)
                per_round.append((floor, []))
            else:
                per_round[-1][1].append(c_of[assumptions[1]])
        return out, per_round

    def asks(ds, scope, n0):
        """The search's outcome and the assumptions of its solves."""
        del asked[:], encoders[:]
        return minimize_bounded(ds, scope, n0=n0), list(asked)

    out, per_round = climbs(make_loose(), Scope.per_class(0), 2)
    assert out.objective == 4
    assert per_round[0] == (1, [])
    floor, cs = per_round[1]
    assert floor == 2 and cs[0] == 3
    # a class with a witness ends its first round at the bound with no
    # climb; with no witness laid out, the first model of an aggregated n0
    # above a class's optimum is often above it, and the round climbs
    for hinted in (True, False):
        if not hinted:
            monkeypatch.setattr(optimizer, "_lay_out", lambda *args: None)
        rng = random.Random(606)
        above_a_floor = 0
        for trial in range(25):
            ds = random_dataset(rng, max_m=5, max_k=3)
            present = sorted({cls for _, cls, _ in ds.examples})
            for scope in [AGG] + [Scope.per_class(cls) for cls in present]:
                optimum = oracle_min_size(ds, scope, cap=24)
                n0 = rng.randint(1, optimum)
                if scope.is_aggregated:
                    # the solves and climbs of each class's own search, in class order
                    out, agg_asked = asks(ds, scope, n0)
                    per_round, per_class_asked = [], []
                    for c in present:
                        per_round += climbs(ds, Scope.per_class(c), n0)[1]
                        per_class_asked += asked
                    assert agg_asked == per_class_asked, trial
                else:
                    out, per_round = climbs(ds, scope, n0)
                assert (out.status, out.objective) == ("optimal", optimum), (trial, scope)
                for floor, cs in per_round:
                    assert cs == list(range(floor + 1, floor + 1 + len(cs))), (trial, scope)
                    above_a_floor += floor >= 0 and bool(cs)
        assert above_a_floor == 0 if hinted else above_a_floor > 5


def test_minimize_bounded_with_roomy_budget(ex1):
    out = minimize_bounded(ex1, AGG, n0=9)
    assert out.status == "optimal"
    assert out.objective == 7
    assert out.decision_set.total_size == 7
    assert out.decision_set.metadata["mode"] == "bounded"
    assert evaluate(out.decision_set, make_ex1()).accuracy == 100.0
    # n0 is the first budget of each class
    assert [(r["class"], r["n"], r["cost"]) for r in out.stats["rounds"]] == [
        ("0", 9, 4), ("1", 9, 3)]


def test_minimize_bounded_grows_past_infeasible_budget():
    out = minimize_bounded(make_loose(), Scope.per_class(0), n0=2)
    assert out.status == "optimal"
    assert out.objective == 4
    rounds = out.stats["rounds"]
    assert [r["n"] for r in rounds] == [2, 4]  # 4: the greedy budget
    assert rounds[0]["status"] == "infeasible"
    assert rounds[1]["status"] == "optimal"
    # aggregated: class 0 grows past 3 to its greedy budget 4, class 1 fits 3
    out = minimize_bounded(make_loose(), AGG, n0=3)
    assert (out.status, out.objective) == ("optimal", 7)
    assert [(r["class"], r["n"], r["status"]) for r in out.stats["rounds"]] == [
        ("0", 3, "infeasible"), ("0", 4, "optimal"), ("1", 3, "optimal")]


def test_minimize_bounded_starts_at_the_lower_bound(ex1):
    # a first budget below the lower bound is raised to it: on ex1 both
    # bounds are the optima, so no round is infeasible
    out = minimize_bounded(ex1, Scope.per_class(1), n0=2)
    assert (out.status, out.objective, out.stats["lower_bound"]) == ("optimal", 3, 3)
    assert [(r["n"], r["status"]) for r in out.stats["rounds"]] == [(3, "optimal")]
    out = minimize_bounded(ex1, AGG, n0=3)
    assert [(r["class"], r["n"], r["status"]) for r in out.stats["rounds"]] == [
        ("0", 4, "optimal"), ("1", 3, "optimal")]


def test_minimize_bounded_matches_perfect_on_micro_data():
    rng = random.Random(7)
    for trial in range(15):
        ds = random_dataset(rng, max_m=5, max_k=3)
        expected = oracle_min_size(ds, AGG, cap=24)
        out = minimize_bounded(ds, AGG, n0=expected + 2)
        assert out.status == "optimal", trial
        assert out.objective == expected, (trial, ds)


def test_minimize_bounded_matches_oracle_in_every_scope():
    rng = random.Random(404)
    for trial in range(40):
        ds = random_dataset(rng, max_m=5, max_k=3)
        present = sorted({cls for _, cls, _ in ds.examples})
        for scope in [AGG] + [Scope.per_class(c) for c in present]:
            expected = oracle_min_size(ds, scope, cap=24)
            # budgets below the optimum make the search grow them
            out = minimize_bounded(ds, scope, n0=rng.randint(1, expected + 2))
            assert out.status == "optimal", (trial, scope)
            assert out.objective == expected, (trial, scope, ds)
            assert out.stats["lower_bound"] <= expected, (trial, scope, ds)
            assert out.decision_set.total_size == expected


def test_aggregated_mopt_and_sparse_match_the_oracles():
    # the class order of aggregated encodings changes no optimum: default
    # and grown mopt budgets on data up to the oracle's limits, and sparse
    rng = random.Random(408)
    for trial in range(30):
        ds = random_dataset(rng, max_m=8, max_k=4)
        expected = oracle_min_size(ds, AGG, cap=32)
        for n0 in (None, rng.randint(1, expected)):
            out = minimize_bounded(ds, AGG, n0=n0)
            assert (out.status, out.objective) == ("optimal", expected), (trial, n0, ds)
    for trial in range(30):
        ds = random_dataset(rng, max_m=6, max_k=3, weighted=True)
        lam = rng.choice([0.05, 0.1, 0.25, 0.5])
        lam_cost = lam_to_cost(lam, ds.total_weight)
        out = minimize_sparse(ds, AGG, lam=lam, n0=ds.total_weight // lam_cost + 1)
        assert (out.status, out.objective) == (
            "optimal", sparse_min_objective(ds, AGG, lam_cost)), (trial, ds, lam_cost)


def test_greedy_budget_bounds_the_optimum_and_takes_one_round():
    rng = random.Random(406)
    below_cap = 0
    for trial in range(60):
        ds = random_dataset(rng, max_m=8, max_k=4)
        cap = default_node_budget(ds.num_features)
        present = sorted({cls for _, cls, _ in ds.examples})
        one_round = {}  # the one round of each class's search below the cap
        for scope in [Scope.per_class(c) for c in present] + [AGG]:
            rules = list(optimizer._greedy_rules(ds, scope))
            greedy = DecisionSet(rules=rules, classes=ds.classes,
                                 total_size=sum(rule.size for rule in rules))
            assert verify_perfect(greedy, ds, scope) == (True, None), (trial, scope, ds)
            expected = oracle_min_size(ds, scope, cap=32)
            bound = optimizer.first_budget(ds, scope, "bounded", None)
            # an exact set: its size bounds the optimum, which may pass the cap
            assert expected <= greedy.total_size, (trial, scope, ds)
            assert bound == min(greedy.total_size, cap), (trial, scope)
            if greedy.total_size <= cap:
                below_cap += 1
                out = minimize_bounded(ds, scope)
                rounds = [(r["n"], r["status"], r["cost"]) for r in out.stats["rounds"]]
                if scope.is_aggregated:
                    # one round per class, at that class's greedy budget: the
                    # aggregated greedy set is the union of the classes' sets
                    assert rounds == [one_round[c] for c in present], (trial, ds)
                    assert out.objective == expected, (trial, ds)
                else:
                    assert rounds == [(bound, "optimal", expected)], (trial, scope, ds)
                    one_round[scope.target] = rounds[0]
    assert below_cap > 100


def test_lower_bound_is_at_most_the_oracle_minimum():
    # the solver-free bound each class's node search starts from: never
    # above the exhaustive minimum, 0 for a class with no example, and
    # pinned at its optimum on all but one class with examples.  A looser
    # greedy order (no "fewest sharers" tie-break) loses 12 of them
    rng = random.Random(1)
    classes = tight = 0
    for trial in range(250):
        ds = random_dataset(rng, max_m=8, max_k=4)
        for c in (0, 1):
            scope = Scope.per_class(c)
            bound = optimizer._prime_facts(ds, scope, optimizer._Clock(SearchLimits())).bound
            if not any(cls == c for _, cls, _ in ds.examples):
                assert bound == 0, (trial, c)
                continue
            optimum = oracle_min_size(ds, scope, cap=40)
            assert bound <= optimum, (trial, c, ds)
            classes += 1
            tight += bound == optimum
    assert (classes, tight) == (391, 390)


def smallest_rule(v, others) -> int:
    """s(v), by brute force: the size of the smallest rule on v's literals
    that covers no vector of others."""
    for r in range(len(v) + 1):
        for features in itertools.combinations(range(len(v)), r):
            rule = Rule(tuple((f, v[f] == 1) for f in features), 0)
            if not any(map(rule.covers, others)):
                return r + 1
    raise AssertionError("v is also a vector of another class")


def test_every_witness_is_a_smallest_exact_fit():
    # on the micro datasets of test_lower_bound_is_at_most_the_oracle_minimum:
    # a witness is one smallest prime per kept vector, so its size is the
    # bound, and it is kept only if it covers every class row, which makes
    # it an optimal exact fit.  The one class whose bound is below its
    # optimum has none
    rng = random.Random(1)
    witnessed = []
    for trial in range(250):
        ds = random_dataset(rng, max_m=8, max_k=4)
        for c in (0, 1):
            scope = Scope.per_class(c)
            own = [bits for bits, cls, _ in ds.examples if cls == c]
            others = [bits for bits, cls, _ in ds.examples if cls != c]
            facts = optimizer._prime_facts(ds, scope, optimizer._Clock(SearchLimits()))
            if not own:
                continue
            witnessed.append(facts.witness is not None)
            if facts.witness is None:
                continue
            for rule in facts.witness:
                assert rule.head == c and not any(map(rule.covers, others)), (trial, c)
                # a smallest prime of a vector it covers: no literal can go
                assert any(rule.size == smallest_rule(v, others)
                           for v in own if rule.covers(v)), (trial, c, rule)
                for literal in rule.body:
                    shorter = Rule(tuple(lit for lit in rule.body if lit != literal), c)
                    assert any(map(shorter.covers, others)), (trial, c, rule)
            assert all(any(rule.covers(v) for rule in facts.witness) for v in own), (trial, c)
            size = sum(rule.size for rule in facts.witness)
            assert size == facts.bound == oracle_min_size(ds, scope, cap=40), (trial, c)
    assert (len(witnessed), sum(witnessed)) == (391, 390)


def test_a_witness_round_makes_no_conflict(monkeypatch):
    # every class of the 20-row probe has a witness; laid out as the first
    # phases of the round at the bound, it is the first model, found with
    # no conflict by the perfect and by the bounded search, whose greedy
    # first budget is above the bound for some classes
    per_call = []

    class Recording(Solver):
        def solve(self, *args, **kwargs):
            before = self.conflicts
            try:
                return super().solve(*args, **kwargs)
            finally:
                per_call.append(self.conflicts - before)

    monkeypatch.setattr(optimizer, "Solver", Recording)
    above = 0
    for r in range(3):
        ds = planted_probe(20, r)
        for c in (0, 1):
            scope = Scope.per_class(c)
            facts = optimizer._prime_facts(ds, scope, optimizer._Clock(SearchLimits()))
            for search in (minimize_perfect, minimize_bounded):
                per_call.clear()
                out = search(ds, scope)
                assert per_call == [0], (r, c, search)
                assert (out.status, out.objective) == ("optimal", facts.bound), (r, c, search)
                assert out.decision_set.rules == facts.witness, (r, c, search)
            above += out.stats["rounds"][0]["n"] > facts.bound
    assert above >= 3


def test_mopt_ends_at_a_witness_without_a_climb():
    # a default-budget bounded search on a class with a witness: its one
    # round, at the greedy budget, ends optimal after its first solve,
    # though that budget is above the optimum, which the round would
    # otherwise climb down to
    for ds in (make_ex1(), planted_probe(20, 1), planted_probe(40, 1)):
        for c in (0, 1):
            scope = Scope.per_class(c)
            facts = optimizer._prime_facts(ds, scope, optimizer._Clock(SearchLimits()))
            assert facts.witness is not None
            out = minimize_bounded(ds, scope)
            (record,) = out.stats["rounds"]
            assert record["n"] == optimizer.first_budget(ds, scope, "bounded", None)
            assert (record["status"], record["cost"]) == ("optimal", facts.bound)
            assert out.stats["solve_calls"] == 1
    out = minimize_bounded(make_ex1(), Scope.per_class(1))
    assert (out.stats["rounds"][0]["n"], out.objective) == (6, 3)


def many_primes():
    """The zero vector and the all-ones vector of class 1, at k=2000,
    against the ones of each half of the features in class 0: s(v) = 3
    for both is found at once, but each has 10^6 smallest primes (a
    feature from each half), and no prime of one covers the other, so the
    witness pass enumerates all of the first's, for over a second."""
    k = 2000
    h = k // 2
    rows = [((0,) * k, 1, 1), ((1,) * k, 1, 1),
            ((1,) * h + (0,) * (k - h), 0, 1), ((0,) * h + (1,) * (k - h), 0, 1)]
    return BinDataset(k, ["0", "1"], ["f%d" % f for f in range(k)], rows)


def test_the_witness_pass_stops_at_the_deadline():
    ds = many_primes()
    scope = Scope.per_class(1)
    start = time.monotonic()
    with pytest.raises(SolveBudgetExceeded):
        optimizer._prime_facts(ds, scope, optimizer._Clock(SearchLimits(wall_time_budget=0.2)))
    assert time.monotonic() - start < 1.0
    for search in (minimize_perfect, minimize_bounded):
        start = time.monotonic()
        out = search(ds, scope, limits=SearchLimits(wall_time_budget=0.2))
        assert time.monotonic() - start < 2.0, search
        assert (out.status, out.decision_set) == ("timeout", None), search
        assert [r["status"] for r in out.stats["rounds"]] == ["timeout"], search
        assert out.stats["solve_calls"] == 0, search


def test_minimize_bounded_climbs_without_a_cost_counter(monkeypatch):
    calls = []
    for name in ("build_totalizer", "_cost_levels"):
        monkeypatch.setattr(optimizer, name, counting(calls, name, getattr(optimizer, name)))
    rng = random.Random(405)
    datasets = [make_ex1()] + [random_dataset(rng, max_m=5, max_k=3) for _ in range(20)]
    for ds in datasets:
        present = sorted({cls for _, cls, _ in ds.examples})
        expected = oracle_min_size(ds, AGG, cap=24)
        n0 = expected + rng.randint(0, 3)
        for scope in [Scope.per_class(c) for c in present]:
            out = minimize_bounded(ds, scope, n0=n0)
            (record,) = out.stats["rounds"]
            assert (record["status"], record["cost"]) == (
                "optimal", oracle_min_size(ds, scope, cap=24)), ds
            # one solve for the upper bound, then at most objective + 1 climbing
            assert out.stats["solve_calls"] <= out.objective + 2, ds
        # aggregated: one such round per class
        out = minimize_bounded(ds, AGG, n0=n0)
        assert [r["status"] for r in out.stats["rounds"]] == ["optimal"] * len(present), ds
        assert out.objective == expected, ds
        assert out.stats["solve_calls"] <= out.objective + 2 * len(present), ds
    assert calls == []


def test_minimize_bounded_timeout_keeps_the_first_model(monkeypatch):
    # neither class of make_untight has a witness, so a first model at
    # budget 12 is followed by a climbing solve, the one that times out
    solve = Solver.solve
    seen = []

    def second_call_times_out(solver, *args, **kwargs):
        seen.append(solver)
        if len(seen) == 2:
            raise SolveBudgetExceeded
        return solve(solver, *args, **kwargs)

    monkeypatch.setattr(Solver, "solve", second_call_times_out)
    events = []
    out = minimize_bounded(make_untight(), Scope.per_class(0), n0=12, progress=events.append)
    (first,) = [e for e in events if e.get("event") == "model"]
    assert out.status == "feasible"
    assert out.objective == first["cost"] >= 3
    assert out.decision_set.metadata["objective"] == first["cost"]
    (record,) = out.stats["rounds"]
    assert (record["status"], record["cost"]) == ("timeout", first["cost"])
    # aggregated: class 0's first model joins class 1's optimum 3 as feasible
    seen.clear()
    events.clear()
    out = minimize_bounded(make_untight(), AGG, n0=12, progress=events.append)
    first = [e for e in events if e.get("event") == "model"][0]
    assert first["class"] == "0"
    assert (out.status, out.objective) == ("feasible", first["cost"] + 3)
    assert out.decision_set.total_size == out.objective
    assert out.decision_set.metadata == {
        "mode": "bounded", "scope": "aggregated", "objective": out.objective}
    assert [(r["class"], r["status"], r["cost"]) for r in out.stats["rounds"]] == [
        ("0", "timeout", first["cost"]), ("1", "optimal", 3)]


def test_minimize_bounded_budget_above_node_cap(ex1, monkeypatch):
    # a first budget above the node cap could run no round: it is an error,
    # not a timeout
    assert optimizer.MAX_NODES == 64
    with pytest.raises(OptimizerError, match="outside 1..64"):
        minimize_bounded(ex1, AGG, n0=70)
    with pytest.raises(OptimizerError, match="node cap"):
        minimize_sparse(ex1, AGG, lam=0.5, n0=65)
    # a derived budget past the cap runs at the cap: loose class 0's greedy
    # budget 4 after an infeasible 2 (n0 = 1 raised to the lower bound)
    monkeypatch.setattr(optimizer, "MAX_NODES", 3)
    out = minimize_bounded(make_loose(), Scope.per_class(0), n0=1)
    assert ([r["n"] for r in out.stats["rounds"]], out.status, out.stats["note"]) == (
        [2, 3], "timeout", "node cap 3 reached")
    # the cap holds per class, and no class starts after one found no set
    out = minimize_bounded(make_loose(), AGG, n0=1)
    assert ([(r["class"], r["n"]) for r in out.stats["rounds"]], out.status,
            out.decision_set, out.stats["note"]) == (
        [("0", 2), ("0", 3)], "timeout", None, "node cap 3 reached")
    # a lower bound above the cap runs no round: ex1 class 1's is 3
    monkeypatch.setattr(optimizer, "MAX_NODES", 2)
    out = minimize_bounded(ex1, Scope.per_class(1), n0=1)
    assert (out.stats["rounds"], out.status, out.stats["note"], out.stats["solve_calls"]) == (
        [], "timeout", "node cap 2 reached", 0)
    # and sparse's bound 3 after the optimum 4 at 1 runs at the cap
    out = minimize_sparse(ex1, AGG, lam=0.005, n0=1)
    assert ([r["n"] for r in out.stats["rounds"]], out.status, out.objective,
            out.stats["note"]) == ([1, 2], "feasible", 4, "node cap 2 reached")
    # a default budget starts at the cap when it would pass it: the greedy
    # budget of class 1 is 6 nodes, its optimum 3, and sparse's default 12
    monkeypatch.setattr(optimizer, "MAX_NODES", 3)
    out = minimize_bounded(ex1, Scope.per_class(1))
    assert ([r["n"] for r in out.stats["rounds"]], out.status, out.objective) == (
        [3], "optimal", 3)
    monkeypatch.setattr(optimizer, "MAX_NODES", 2)
    out = minimize_sparse(ex1, AGG, lam=0.5)
    assert ([r["n"] for r in out.stats["rounds"]], out.status, out.objective) == (
        [2], "optimal", 7)


def test_minimize_perfect_lower_bound_above_node_cap(monkeypatch):
    # a lower bound above the node cap proves that no budget within it has
    # a set: the search ends at the cap with no round, no build and no
    # solve; a rule's size is counted only up to the cap + 1, so the
    # search by size stops there
    k = 8
    rows = [((0,) * k, 1, 1)] + [(tuple(int(f == g) for f in range(k)), 0, 1) for g in range(k)]
    ds = BinDataset(k, ["0", "1"], ["f%d" % f for f in range(k)], rows)
    def bound():
        clock = optimizer._Clock(SearchLimits())
        return optimizer._prime_facts(ds, Scope.per_class(1), clock).bound
    # vector 0 against the eight unit vectors: a body of all eight features
    assert bound() == 9
    monkeypatch.setattr(optimizer, "MAX_NODES", 4)
    assert bound() == 5
    built = []
    monkeypatch.setattr(Encoder, "append_node", counting(built, "append_node", Encoder.append_node))
    out = minimize_perfect(ds, Scope.per_class(1))
    assert (out.stats["rounds"], out.status, out.stats["note"], out.stats["lower_bound"],
            out.stats["solve_calls"], built) == ([], "timeout", "node cap 4 reached", 5, 0, [])


# ---------------------------------------------------------------- sparse


def test_minimize_sparse_prefers_single_default_rule(ex1):
    out = minimize_sparse(ex1, AGG, lam=0.5)
    assert out.status == "optimal"
    assert out.objective == 7
    assert out.decision_set.rules == [Rule(body=(), head=0)]
    meta = out.decision_set.metadata
    assert meta["lambda_cost"] == 4
    assert meta["misclassified_weight"] == 3
    assert sparse_min_objective(ex1, AGG, 4) == 7


def test_minimize_sparse_gives_up_on_expensive_nodes(ex1):
    out = minimize_sparse(ex1, AGG, lam=1.2)
    assert out.status == "optimal"
    assert out.objective == 8
    assert out.decision_set.rules == []
    assert out.decision_set.metadata["misclassified_weight"] == 8
    assert sparse_min_objective(ex1, AGG, 10) == 8


def test_minimize_sparse_grows_budget_until_certified(ex1):
    # lambda_cost is 1: the optimum 4 of budget 1 leaves room for a cheaper
    # set of up to (4 - 1) // 1 = 3 nodes, so budget 3 runs, and certifies it
    out = minimize_sparse(ex1, AGG, lam=0.005, n0=1)
    assert out.status == "optimal"
    assert out.objective == 4
    rounds = out.stats["rounds"]
    assert [(r["n"], r["cost"]) for r in rounds] == [(1, 4), (3, 4)]
    assert sparse_min_objective(ex1, AGG, 1) == 4


def test_minimize_sparse_matches_oracle_on_micro_data():
    # from every first budget: 1, k + 1, the default, and one beyond
    # total_weight / lam_cost, where any set using that many nodes already
    # costs more than the empty set; a round too small to certify its
    # optimum is followed by one more, the last
    rng = random.Random(31)
    second_rounds = 0
    for trial in range(30):
        ds = random_dataset(rng, max_m=5, max_k=3, weighted=True)
        lam = rng.choice([0.1, 0.25, 0.5, 1.0])
        lam_cost = lam_to_cost(lam, ds.total_weight)
        scopes = [AGG, Scope.per_class(0), Scope.per_class(1)]
        for scope, n0 in itertools.product(scopes, (1, ds.num_features + 1, None,
                                                    ds.total_weight // lam_cost + 1)):
            expected = sparse_min_objective(ds, scope, lam_cost)
            out = minimize_sparse(ds, scope, lam=lam, n0=n0)
            assert out.status == "optimal", (trial, scope, n0)
            assert out.objective == expected, (trial, scope, n0, ds, lam_cost)
            assert len(out.stats["rounds"]) <= 2, (trial, scope, n0)
            second_rounds += len(out.stats["rounds"]) == 2
            meta = out.decision_set.metadata
            gap = out.objective - meta["misclassified_weight"]
            assert gap == lam_cost * out.decision_set.total_size
            if scope.is_aggregated:
                report = evaluate(out.decision_set, ds)
                assert report.errors == meta["misclassified_weight"]
    assert second_rounds > 5


def test_minimize_sparse_handles_contradictory_data():
    ds = BinDataset(1, ["0", "1"], ["a"],
                    [((1,), 0, 2), ((1,), 1, 1), ((0,), 0, 1)])
    lam_cost = lam_to_cost(1.0, ds.total_weight)
    expected = sparse_min_objective(ds, AGG, lam_cost)
    out = minimize_sparse(ds, AGG, lam=1.0)
    assert out.status == "optimal"
    assert out.objective == expected


def test_minimize_sparse_is_deterministic(ex1):
    first = minimize_sparse(ex1, AGG, lam=0.5)
    second = minimize_sparse(ex1, AGG, lam=0.5)
    assert first.objective == second.objective
    assert first.decision_set.rules == second.decision_set.rules


# ---------------------------------------------------------------- oracle


def test_oracle_min_size_example_values(ex1):
    assert oracle_min_size(ex1, AGG, cap=7) == 7
    assert oracle_min_size(ex1, AGG, cap=6) is None
    assert oracle_min_size(ex1, Scope.per_class(1), cap=8) == 3
    assert oracle_min_size(ex1, Scope.per_class(0), cap=8) == 4


def test_oracle_min_size_single_example():
    ds = BinDataset(1, ["0", "1"], ["a"], [((1,), 1, 1)])
    assert oracle_min_size(ds, AGG, cap=4) == 1
    assert oracle_min_size(ds, Scope.per_class(1), cap=4) == 1


def test_oracle_min_size_guards(ex1):
    with pytest.raises(OptimizerError, match="cap"):
        oracle_min_size(ex1, AGG, cap=0)
    wide = BinDataset(5, ["0", "1"], list("abcde"), [((0, 0, 0, 0, 0), 0, 1)])
    with pytest.raises(OptimizerError, match="limited"):
        oracle_min_size(wide, AGG, cap=4)
    contradictory = BinDataset(1, ["0", "1"], ["a"],
                               [((1,), 0, 1), ((1,), 1, 1)])
    with pytest.raises(ContradictionError):
        oracle_min_size(contradictory, AGG, cap=4)
    empty = BinDataset(1, ["0", "1"], ["a"], [])
    with pytest.raises(OptimizerError, match="at least one example"):
        oracle_min_size(empty, AGG, cap=4)


def test_union_equality_on_micro_data():
    # rules of an aggregated optimum split by head into valid per-class
    # sets and a union of per-class optima is a valid aggregated set, so
    # the optimal sizes add up exactly over the classes present
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        ds = random_dataset(rng, max_m=6, max_k=3)
        present = sorted({cls for _, cls, _ in ds.examples})
        agg = oracle_min_size(ds, AGG, cap=24)
        per = sum(
            oracle_min_size(ds, Scope.per_class(c), cap=24) for c in present
        )
        assert agg == per, ds
        checked += 1
    assert checked == 60


# ---------------------------------------------------------------- join


def test_aggregated_searches_join_the_per_class_optima():
    # an aggregated opt or mopt search is the join of its classes' searches:
    # the oracle's aggregated optimum, the sum of the per-class drivers'
    # objectives, class-0 rules first, and a set exact on the full data
    rng = random.Random(1515)
    one_class = 0
    for trial in range(40):
        ds = random_dataset(rng, max_m=6, max_k=3)
        if trial % 4 == 0:  # every example in one class
            cls = rng.randrange(2)
            ds = BinDataset(ds.num_features, ds.classes, ds.feature_names,
                            [(bits, cls, w) for bits, _, w in ds.examples])
        present = sorted({cls for _, cls, _ in ds.examples})
        one_class += len(present) == 1
        expected = oracle_min_size(ds, AGG, cap=24)
        for search in (minimize_perfect, minimize_bounded):
            per_class = sum(search(ds, Scope.per_class(c)).objective for c in present)
            out = search(ds, AGG)
            dset = out.decision_set
            assert (out.status, out.objective, dset.total_size) == (
                "optimal", expected, expected), (trial, search, ds)
            assert per_class == expected, (trial, search, ds)
            assert verify_perfect(dset, ds, AGG) == (True, None), (trial, search, ds)
            heads = [rule.head for rule in dset.rules]
            assert heads == sorted(heads) and set(heads) == set(present), (trial, search)
    assert one_class >= 10


def planted_probe(m, r):
    """Instance r of m rows of the scale probe: distinct random rows over 8
    features, class 1 iff (f0 and not f1) or (f2 and f3)."""
    rows = [tuple((v >> f) & 1 for f in range(8))
            for v in random.Random("scale:8:%d:%d" % (m, r)).sample(range(256), m)]
    return BinDataset(num_features=8, classes=["0", "1"],
                      feature_names=["f%d" % f for f in range(8)],
                      examples=[(b, int((b[0] and not b[1]) or (b[2] and b[3])), 1)
                                for b in rows])


def test_scale_probe_optima_at_20_rows():
    for r, expected in enumerate((11, 12, 15)):
        ds = planted_probe(20, r)
        for search in (minimize_perfect, minimize_bounded):
            out = search(ds, AGG)
            assert (out.status, out.objective) == ("optimal", expected), (r, search)


def test_scale_probe_optima_at_40_rows():
    for r, expected in enumerate((15, 18, 18)):
        ds = planted_probe(40, r)
        for search in (minimize_perfect, minimize_bounded):
            out = search(ds, AGG)
            assert (out.status, out.objective) == ("optimal", expected), (r, search)


def test_aggregated_classes_share_one_clock(ex1, monkeypatch):
    # each class's search gets an equal share of the time left on the
    # call's one clock: here class 0 takes 30 of 100 seconds, then 200
    skew = [0.0]
    monotonic = optimizer.time.monotonic
    monkeypatch.setattr(optimizer, "time",
                        SimpleNamespace(monotonic=lambda: monotonic() + skew[0]))
    budgets = []
    search = optimizer._exact_search

    def class_0_takes(seconds):
        def timed(ds, scope, mode, n0, clock, progress):
            budgets.append((scope.target, clock.wall_deadline - optimizer.time.monotonic()))
            out = search(ds, scope, mode, n0, clock, progress)
            skew[0] += seconds if scope.target == 0 else 0.0
            return out
        return timed

    limits = SearchLimits(wall_time_budget=100.0)
    monkeypatch.setattr(optimizer, "_exact_search", class_0_takes(30.0))
    out = minimize_perfect(ex1, AGG, limits)
    ((first, share0), (second, share1)) = budgets
    assert (first, second, out.status, out.objective) == (0, 1, "optimal", 7)
    assert 49.0 < share0 <= 50.0 and 69.0 < share1 <= 70.0, budgets
    assert out.stats["elapsed"] >= 30.0
    # past the deadline class 1 starts no round, and the call has no set
    budgets.clear()
    monkeypatch.setattr(optimizer, "_exact_search", class_0_takes(200.0))
    out = minimize_bounded(ex1, AGG, limits=limits)
    assert [(target, budget <= 0) for target, budget in budgets] == [(0, False), (1, True)]
    assert (out.status, out.decision_set) == ("timeout", None)
    assert [(r["class"], r["status"]) for r in out.stats["rounds"]][-1] == ("1", "timeout")


def test_class_searches_share_the_clock_they_are_handed(ex1, monkeypatch):
    # two class searches on 120 seconds: class 0 gets half of them, and
    # class 1, 30 seconds later, all of the 90 left
    skew = [0.0]
    monotonic = optimizer.time.monotonic
    monkeypatch.setattr(optimizer, "time",
                        SimpleNamespace(monotonic=lambda: monotonic() + skew[0]))
    budgets = []

    def search(scope, clock, progress):
        budgets.append(clock.wall_deadline - optimizer.time.monotonic())
        out = optimizer._exact_search(ex1, scope, "perfect", None, clock, progress)
        skew[0] += 30.0
        return out

    clock = optimizer._Clock(SearchLimits(wall_time_budget=120.0))
    out = optimizer._search_each_class(ex1, search, "perfect", clock, None)
    assert budgets == pytest.approx([60.0, 90.0], abs=0.01)
    assert (out.status, out.objective) == ("optimal", 7)
    assert out.stats["objectives"] == {"0": 4, "1": 3}
    assert out.stats["elapsed"] >= 60.0


def test_perfect_searches_start_at_one_node(ex1):
    # a perfect round uses every node, so a search started above the
    # optimum would answer its first budget; perfect mode takes none
    for scope in (Scope.per_class(0), AGG):
        with pytest.raises(OptimizerError, match="takes no first budget"):
            optimizer._exact_search(ex1, scope, "perfect", 5, None, None)


# ---------------------------------------------------------------- limits


def test_clock_share_splits_the_time_left(monkeypatch):
    clock = optimizer._Clock(SearchLimits(wall_time_budget=10.0, per_solve_budget=7.0))
    share = clock.share(4)
    assert 2.4 < share.wall_deadline - optimizer.time.monotonic() <= 2.5
    assert (share.limits, share.start) == (clock.limits, clock.start)
    assert 9.9 < clock.share().wall_deadline - optimizer.time.monotonic() <= 10.0
    # on any time base a share ends no later than its clock, and a share
    # of an expired clock is expired
    now = [0.0]
    monkeypatch.setattr(optimizer, "time", SimpleNamespace(monotonic=lambda: now[0]))
    rng = random.Random(18)
    for _ in range(200):
        now[0] = rng.uniform(0, 1e6)
        clock = optimizer._Clock(SearchLimits(wall_time_budget=rng.uniform(1e-6, 1e3)))
        now[0] += rng.uniform(0, 2e3)
        for runs_left in (1, 2, 3, 7):
            share = clock.share(runs_left)
            assert share.wall_deadline <= clock.wall_deadline
            assert share.expired() or not clock.expired()


def test_default_node_budget_caps_out():
    assert default_node_budget(4) == 12
    assert default_node_budget(20) == 32


def test_limit_validation(ex1):
    with pytest.raises(OptimizerError, match="positive"):
        SearchLimits(wall_time_budget=0).validate()
    with pytest.raises(OptimizerError, match="node budget"):
        minimize_sparse(ex1, AGG, lam=0.5, n0=0)
    # a NaN budget compares false with every bound and would never expire
    for bad in (float("nan"), float("inf")):
        for limits in (SearchLimits(wall_time_budget=bad), SearchLimits(per_solve_budget=bad)):
            with pytest.raises(OptimizerError, match="finite"):
                minimize_perfect(ex1, AGG, limits)
            with pytest.raises(OptimizerError, match="finite"):
                maxsat_solve(build_bounded(ex1, 7, AGG), limits)
        with pytest.raises(EncodingError, match="finite"):
            minimize_sparse(ex1, AGG, lam=bad)
