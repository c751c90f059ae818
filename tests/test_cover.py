"""The prime-rule / set-cover engine against brute force, the oracles and
the node search."""

import importlib.util
import json
import random
import signal
import sys
from pathlib import Path

from rulesat import cover, optimizer
from rulesat.cover import minimize_exact_fit
from rulesat.dataset import BinDataset
from rulesat.encoder import Scope
from rulesat.model import verify_perfect
from rulesat.optimizer import SearchLimits, minimize_bounded, minimize_perfect
from rulesat.solver import SolveBudgetExceeded, Solver

from conftest import random_dataset
from oracles import oracle_min_size, prime_rules
from test_optimizer import five_sets, planted_probe

AGG = Scope.aggregated()
BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def listed_primes(ds, target):
    """cover._prime_rules on the class target, as oracles.prime_rules
    writes a rule."""
    own = sorted({cover._mask(bits) for bits, cls, _ in ds.examples if cls == target})
    others = {cover._mask(bits) for bits, cls, _ in ds.examples if cls != target}
    clock = optimizer._Clock(SearchLimits())
    rules = cover._prime_rules(own, others, clock)
    assert len(set(rules)) == len(rules)
    return {frozenset((f, values >> f & 1) for f in range(ds.num_features) if features >> f & 1)
            for features, values in rules}


def test_stage_one_lists_every_prime_and_nothing_else():
    rng = random.Random(1601)
    for trial in range(60):
        ds = random_dataset(rng, max_m=16, max_k=6)
        for target in (0, 1):
            assert listed_primes(ds, target) == prime_rules(ds, target), (trial, target, ds)
    # a vector with several primes of several sizes: 0 and 1 differ on f0
    # only, or on f1 and f2 together
    ds = BinDataset(3, ["0", "1"], ["a", "b", "c"],
                    [((1, 1, 1), 1, 1), ((0, 1, 1), 0, 1), ((1, 0, 0), 0, 1)])
    assert listed_primes(ds, 1) == {frozenset({(0, 1), (1, 1)}), frozenset({(0, 1), (2, 1)})}


def test_dominance_keeps_the_cheaper_rule_of_a_smaller_cover():
    rules = [(0b11, 3, "a"), (0b01, 2, "b"), (0b01, 3, "c"), (0b01, 2, "d"), (0b10, 4, "e")]
    # c and e cost no less than a, which covers their vectors; d equals b
    assert cover._undominated(rules) == [(0b11, 3, "a"), (0b01, 2, "b")]


def test_dominance_leaves_an_antichain_above_every_dropped_rule():
    rng = random.Random(1602)
    for trial in range(200):
        rules = [(rng.randrange(1, 16), rng.randint(1, 4), x) for x in range(rng.randint(1, 12))]
        kept = cover._undominated(rules)
        assert kept == [r for r in rules if r in kept]  # in their order

        def dominates(a, b):
            return a[1] <= b[1] and not b[0] & ~a[0]
        for r in rules:
            assert any(dominates(k, r) for k in kept), (trial, r)
        for a in kept:
            assert not any(dominates(b, a) for b in kept if b is not a), (trial, a)


def test_exact_fit_matches_the_oracle_and_the_node_search_on_micro_data():
    rng = random.Random(1603)
    for trial in range(60):
        ds = random_dataset(rng, max_m=8, max_k=4)
        present = sorted({cls for _, cls, _ in ds.examples})
        for scope in [AGG] + [Scope.per_class(c) for c in present]:
            expected = oracle_min_size(ds, scope, cap=40)
            out = minimize_exact_fit(ds, scope)
            dset = out.decision_set
            assert (out.status, out.objective, dset.total_size) == (
                "optimal", expected, expected), (trial, scope, ds)
            assert sum(rule.size for rule in dset.rules) == expected
            assert verify_perfect(dset, ds, scope) == (True, None), (trial, scope)
            if ds.num_examples <= 5:
                for search in (minimize_perfect, minimize_bounded):
                    assert search(ds, scope).objective == expected, (trial, scope, search)


def test_scale_probe_optima():
    for m, optima in ((20, (11, 12, 15)), (40, (15, 18, 18)), (80, (18, 18, 18))):
        for r, expected in enumerate(optima):
            ds = planted_probe(m, r)
            out = minimize_exact_fit(ds, AGG)
            assert (out.status, out.objective) == ("optimal", expected), (m, r)
            assert verify_perfect(out.decision_set, ds, AGG) == (True, None)


def test_reproduces_every_opt_agg_reference_objective(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_workloads",
                                                  BENCHMARK / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    reference = json.loads((BENCHMARK / "reference.json").read_text(encoding="utf-8"))["opt-agg"]
    assert len(reference) == 24
    for base, expected in reference.items():
        out = minimize_exact_fit(workloads.dataset(workloads.opt_base(int(base))), AGG)
        assert (out.status, out.objective) == ("optimal", expected), base


def stage_two_calls(monkeypatch, phase_of=None):
    """Per class, the solve calls of stage 2 on the 80-row probe instance
    0, its first phase given by phase_of(soft) if set."""
    calls = []

    def descend(solver, soft, phase, clock, progress, **tags):
        res = optimizer._descend(solver, soft, phase if phase_of is None else phase_of(soft),
                                 clock, progress, **tags)
        calls.append(res.stats["solve_calls"])
        return res

    monkeypatch.setattr(cover, "_descend", descend)
    assert minimize_exact_fit(planted_probe(80, 0), AGG).objective == 18
    return calls


def test_greedy_seed_leaves_stage_two_one_proof(monkeypatch):
    # the greedy cover is optimal here: its model, then UNSAT below it;
    # the phase of maxsat_solve (every rule chosen) descends step by step
    assert stage_two_calls(monkeypatch) == [2, 2]
    assert stage_two_calls(monkeypatch, optimizer._falsified) == [23, 15]


def test_a_target_with_no_example_gets_the_empty_set():
    ds = BinDataset(2, ["0", "1", "2"], ["a", "b"], [((0, 1), 0, 1), ((1, 1), 1, 1)])
    out = minimize_exact_fit(ds, Scope.per_class(2))
    assert (out.status, out.objective, out.decision_set.rules) == ("optimal", 0, [])
    assert out.decision_set.total_size == 0
    # the node encodings insist on one rule that covers nothing: "not b"
    assert oracle_min_size(ds, Scope.per_class(2), cap=8) == 2
    assert minimize_perfect(ds, Scope.per_class(2)).objective == 2


def test_stage_one_out_of_time_is_a_timeout_with_no_set(ex1):
    for scope in (AGG, Scope.per_class(0)):
        out = minimize_exact_fit(ex1, scope, SearchLimits(wall_time_budget=1e-9))
        assert (out.status, out.decision_set, out.objective) == ("timeout", None, None)


def test_stage_one_stops_inside_one_vectors_enumeration(monkeypatch):
    # one class-1 vector whose primes take minutes to list: the clock cuts
    # the enumeration short, and stage 2 never starts
    solves = []
    monkeypatch.setattr(Solver, "solve", lambda solver, *args, **kwargs: solves.append(1))

    def too_late(signum, frame):
        raise AssertionError("stage 1 ran on for 2 s past a 0.2 s budget")
    # an enumeration that ignored the clock would run for minutes: the
    # alarm fails it after 2 s
    handler = signal.signal(signal.SIGALRM, too_late)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        out = minimize_exact_fit(five_sets(), Scope.per_class(1),
                                 SearchLimits(wall_time_budget=0.2))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert (out.status, out.decision_set, out.objective) == ("timeout", None, None)
    assert (out.stats["solve_calls"], solves) == (0, [])


def test_a_prime_longer_than_the_recursion_limit():
    # the zero vector against the k unit vectors: its one prime holds every
    # feature, so its enumeration goes k deep, past Python's recursion limit
    k = 1100
    assert k > sys.getrecursionlimit()
    rows = [((0,) * k, 1, 1)] + [(tuple(int(f == g) for f in range(k)), 0, 1) for g in range(k)]
    ds = BinDataset(k, ["0", "1"], ["f%d" % f for f in range(k)], rows)
    out = minimize_exact_fit(ds, Scope.per_class(1))
    assert (out.status, out.objective, out.stats["primes"]) == ("optimal", k + 1, 1)


def test_stage_two_out_of_time_before_its_first_cover_is_a_timeout(monkeypatch):
    def no_solve(solver, soft, phase, clock, progress, **tags):
        def out_of_time(solver, assumptions):
            raise SolveBudgetExceeded
        clock.solve = out_of_time
        return optimizer._descend(solver, soft, phase, clock, progress, **tags)

    monkeypatch.setattr(cover, "_descend", no_solve)
    ds = planted_probe(80, 0)
    for scope in (Scope.per_class(0), AGG):
        out = minimize_exact_fit(ds, scope)
        assert (out.status, out.decision_set, out.objective) == ("timeout", None, None)
        assert out.stats["primes"] > 0 and out.stats["models"] == 0


def test_stage_two_out_of_time_keeps_its_best_cover(monkeypatch):
    def first_solve_only(solver, soft, phase, clock, progress, **tags):
        solve = clock.solve

        def once(solver, assumptions):
            if solver.solve_calls:
                raise SolveBudgetExceeded
            return solve(solver, assumptions)
        clock.solve = once
        return optimizer._descend(solver, soft, phase, clock, progress, **tags)

    monkeypatch.setattr(cover, "_descend", first_solve_only)
    ds = planted_probe(80, 0)
    for scope in (Scope.per_class(0), AGG):
        out = minimize_exact_fit(ds, scope)
        # the greedy covers, optimal, but not proven so
        assert (out.status, out.objective) == ("feasible", 12 if scope.target == 0 else 18)
        assert verify_perfect(out.decision_set, ds, scope) == (True, None)


def test_records_and_stats_count_both_stages(monkeypatch):
    counted = {"solve_calls": 0, "conflicts": 0}
    solve = Solver.solve

    def counting(solver, *args, **kwargs):
        before = solver.conflicts
        try:
            return solve(solver, *args, **kwargs)
        finally:
            counted["solve_calls"] += 1
            counted["conflicts"] += solver.conflicts - before

    monkeypatch.setattr(Solver, "solve", counting)
    ds = planted_probe(40, 1)
    records = []
    out = minimize_exact_fit(ds, AGG, progress=records.append)
    assert {k: out.stats[k] for k in counted} == counted
    assert counted["conflicts"] > 0
    # stage 1 calls no solver: two calls of stage 2 per class, the greedy
    # cover and the proof that nothing is cheaper
    assert out.stats["solve_calls"] == 2 * 2
    primes = [r for r in records if r["event"] == "primes"]
    assert [r["class"] for r in primes] == ["0", "1"]
    assert all(r["primes"] >= r["kept"] >= 1 for r in primes)
    assert (out.stats["primes"], out.stats["kept"]) == (sum(r["primes"] for r in primes),
                                                         sum(r["kept"] for r in primes))
    # per class the primes record, then the improved covers, down to the optimum
    for label, optimum in (("0", 12), ("1", 6)):
        mine = [r for r in records if r["class"] == label]
        assert mine[0]["event"] == "primes"
        costs = [r["cost"] for r in mine[1:]]
        assert costs and all(r["event"] == "model" for r in mine[1:])
        assert costs == sorted(costs, reverse=True) and costs[-1] == optimum
    times = [r["elapsed"] for r in records]
    assert times == sorted(times) and times[-1] <= out.stats["elapsed"]


def test_aggregated_rules_come_class_by_class(ex1):
    out = minimize_exact_fit(ex1, AGG)
    assert (out.status, out.objective) == ("optimal", 7)
    assert [rule.head for rule in out.decision_set.rules] == [0, 0, 1]
    assert out.decision_set.metadata == {"mode": "exact_fit", "scope": "aggregated",
                                         "objective": 7}
