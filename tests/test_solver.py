"""Differential and behavioral tests for the CDCL solver.

The ground truth is exhaustive model enumeration from oracles.py, so
most tests assume nothing about the solver's internals beyond its public
contract.  The exceptions check the invariants of the watch lists and
the branching heap, and pin the search itself: its conflict counts.
"""

import random
import time
from heapq import heappush

import pytest

from conftest import make_ex1, make_untight
from oracles import all_models, code_satisfies, is_satisfiable, php_clauses, solve_dpll
from rulesat import optimizer
from rulesat.encoder import Scope
from rulesat.formula import Formula, FormulaError, check_model
from rulesat.solver import SolveBudgetExceeded, Solver


def random_cnf(rng, max_vars=10, max_len=4):
    nv = rng.randint(1, max_vars)
    nc = rng.randint(0, 4 * nv)
    clauses = []
    for _ in range(nc):
        width = rng.randint(1, max_len)
        clauses.append([rng.choice([-1, 1]) * rng.randint(1, nv) for _ in range(width)])
    return nv, clauses


def build_solver(nv, clauses, cls=Solver):
    s = cls()
    s.ensure_vars(nv)
    for c in clauses:
        s.add_clause(c)
    return s


def as_formula(nv, clauses):
    f = Formula(num_vars=nv)
    for c in clauses:
        f.add_hard(c)
    return f


def test_trivial_sat_and_unsat():
    s = Solver()
    s.ensure_vars(2)
    s.add_clause([1, 2])
    s.add_clause([-1])
    assert s.solve() is True
    assert s.model.lit_true(2)
    s.add_clause([-2])
    assert s.solve() is False
    assert s.core == []


def test_empty_clause_makes_permanent_unsat():
    s = Solver()
    s.add_clause([])
    assert s.ok is False
    assert s.solve() is False
    assert s.solve(assumptions=[1]) is False


def test_add_clause_rejects_bad_literals():
    s = Solver()
    with pytest.raises(FormulaError):
        s.add_clause([0])
    with pytest.raises(FormulaError):
        s.add_clause([1.5])


def test_bools_are_not_literals():
    s = Solver()
    s.ensure_vars(2)
    with pytest.raises(FormulaError):
        s.add_clause([True, -2])
    with pytest.raises(FormulaError):
        s.solve(assumptions=[True])
    with pytest.raises(FormulaError):
        s.set_phase(True)
    assert s.solve() and s.num_vars == 2


def test_random_differential_sat(seed=101, trials=300):
    rng = random.Random(seed)
    for _ in range(trials):
        nv, clauses = random_cnf(rng)
        expected = is_satisfiable(nv, clauses)
        s = build_solver(nv, clauses)
        got = s.solve()
        assert got == expected
        if got:
            ok, bad = check_model(as_formula(nv, clauses), s.model)
            assert ok, "model falsifies hard clause %r" % (bad,)


def test_random_differential_assumptions(seed=202, trials=200):
    rng = random.Random(seed)
    for _ in range(trials):
        nv, clauses = random_cnf(rng, max_vars=8)
        assumed = sorted(rng.sample(range(1, nv + 1), rng.randint(1, nv)))
        assumptions = [v if rng.random() < 0.5 else -v for v in assumed]
        expected = is_satisfiable(nv, clauses + [[a] for a in assumptions])
        s = build_solver(nv, clauses)
        got = s.solve(assumptions=assumptions)
        assert got == expected
        if got:
            assert all(s.model.lit_true(a) for a in assumptions)
        else:
            core = s.core
            assert set(core) <= set(assumptions)
            # the reported core must itself be sufficient for UNSAT
            assert not is_satisfiable(nv, clauses + [[a] for a in core])


def test_contradictory_assumptions_core():
    s = Solver()
    s.ensure_vars(3)
    s.add_clause([1, 2, 3])
    assert s.solve(assumptions=[2, -2]) is False
    assert set(s.core) == {2, -2}


def test_incremental_growth_and_model_reuse():
    s = Solver()
    s.ensure_vars(3)
    s.add_clause([1, 2])
    assert s.solve() is True
    s.add_clause([-1])
    s.add_clause([-2, 3])
    assert s.solve() is True
    assert s.model.lit_true(-1) and s.model.lit_true(2) and s.model.lit_true(3)
    s.add_clause([-3])
    assert s.solve() is False


def test_incremental_assumptions_with_retired_guards(seed=505, trials=150):
    # the pattern the growing perfect search relies on: solve under
    # assumptions, add clauses between calls (among them a unit retiring
    # an earlier assumption's guard variable), solve again
    rng = random.Random(seed)
    for trial in range(trials):
        base = rng.randint(2, 8)
        s = Solver()
        s.ensure_vars(base)
        clauses = []
        guard = None
        for step in range(rng.randint(2, 5)):
            added = []
            for _ in range(rng.randint(0, 2 * base)):
                width = rng.randint(1, 3)
                added.append([rng.choice([-1, 1]) * rng.randint(1, base) for _ in range(width)])
            if guard is not None and rng.random() < 0.8:
                added.append([-guard])
            guard = s.new_var()
            for _ in range(rng.randint(1, 2)):
                width = rng.randint(1, 3)
                added.append([-guard] + [rng.choice([-1, 1]) * rng.randint(1, base)
                                         for _ in range(width)])
            for c in added:
                s.add_clause(c)
            clauses += added
            assumptions = [guard] + [rng.choice([-1, 1]) * v
                                     for v in rng.sample(range(1, base + 1), rng.randint(0, 2))]
            nv = s.num_vars
            expected = is_satisfiable(nv, clauses + [[a] for a in assumptions])
            got = s.solve(assumptions=assumptions)
            assert got == expected, (trial, step)
            if got:
                ok, bad = check_model(as_formula(nv, clauses), s.model)
                assert ok, (trial, step, bad)
                assert all(s.model.lit_true(a) for a in assumptions)
            else:
                assert set(s.core) <= set(assumptions)
                assert not is_satisfiable(nv, clauses + [[a] for a in s.core]), (trial, step)


def test_heap_rebuild_bounds_the_heap_and_keeps_decisions(monkeypatch):
    # the same solve with and without heap rebuilds: identical search,
    # and only the rebuilding one keeps the heap near one entry per variable
    from rulesat import solver as solver_module

    def run():
        nv, clauses = php_clauses(6, 5)
        s = build_solver(nv, clauses)
        peak = 0
        for extra in range(3):  # several calls on one solver
            assert s.solve(assumptions=[extra + 1]) is False
            peak = max(peak, len(s._heap))
        return s.conflicts, s.core, peak, s.num_vars

    conflicts, core, peak, nv = run()
    assert peak <= solver_module._HEAP_SLACK * nv + nv
    monkeypatch.setattr(solver_module, "_HEAP_SLACK", 10 ** 9)
    unbounded = run()
    assert unbounded[:2] == (conflicts, core)
    assert unbounded[2] > peak


def random_session(rng, s, on_call, steps=8):
    """Alternate add_clause batches with solves under random assumptions
    on s, calling on_call(s) after each call.  The clauses, mostly
    ternary, reach about 4.4 per variable, around the SAT/UNSAT threshold.
    Some solves get a deadline that has passed, so they stop mid-search."""
    base = s.num_vars
    for _ in range(steps):
        for _ in range(base * 11 // 20):
            width = rng.choice([1, 2, 3, 3, 3, 3, 3, 3, 3, 4] if rng.random() < 0.1 else [3])
            s.add_clause([rng.choice([-1, 1]) * rng.randint(1, base) for _ in range(width)])
            on_call(s)
        assumptions = [rng.choice([-1, 1]) * v
                       for v in rng.sample(range(1, base + 1), rng.randint(0, 3))]
        deadline = time.monotonic() - 1 if rng.random() < 0.2 else None
        try:
            s.solve(assumptions=assumptions, deadline=deadline)
        except SolveBudgetExceeded:
            pass
        on_call(s)


def assert_watches_intact(s):
    # every attached clause sits in the lists of its first two literals,
    # once each, and in no other list
    where = {}
    for lit, ws in s._watches.items():
        for c in ws:
            where.setdefault(id(c), (c, []))[1].append(lit)
    assert len(where) == s._n_problem_clauses + len(s._learnts)
    for c, lits in where.values():
        assert len(c) >= 2
        assert sorted(lits) == sorted(c[:2]), (c, lits)
    for c in s._learnts:
        assert id(c) in where


def test_watch_lists_stay_intact_across_incremental_calls(seed=606, trials=20):
    rng = random.Random(seed)
    outcomes = set()
    conflicts = 0
    for _ in range(trials):
        s = Solver()
        s.ensure_vars(rng.randint(30, 90))
        random_session(rng, s, assert_watches_intact)
        outcomes.add(s.ok)
        conflicts += s.conflicts
    assert outcomes == {True, False}  # some sessions end unconditionally UNSAT
    assert conflicts > 10 * trials


def test_a_trusted_batch_builds_what_add_clause_builds(seed=2424, trials=200):
    # one add_trusted call per batch must leave the solver as add_clause per
    # clause leaves it: with units mid-batch, literals fixed at the root by
    # earlier units and solves, clauses of a retired guard, and a clause the
    # root empties mid-batch, after which the rest of the batch is ignored
    rng = random.Random(seed)
    seen = dict.fromkeys(("unit mid-batch", "root-fixed literal", "retired guard",
                          "emptied mid-batch", "attached"), 0)

    def state(s):
        return s._watches, s._trail, s.num_vars, s._n_problem_clauses, s.ok

    for _ in range(trials):
        nv = rng.randint(3, 12)
        guard = nv + 1
        trusted, checked = Solver(), Solver()
        for s in (trusted, checked):
            s.ensure_vars(guard)
        for _ in range(rng.randint(1, 5)):
            batch = []
            for _ in range(rng.randint(0, 2 * nv)):
                width = min(rng.choice([1, 2, 2, 3, 3, 3, 4]), nv)
                lits = [rng.choice([-1, 1]) * v for v in rng.sample(range(1, nv + 1), width)]
                if rng.random() < 0.2:
                    lits.insert(0, -guard)  # binds only while the guard is assumed
                batch.append(lits)
            trusted.add_trusted([list(c) for c in batch])
            for pos, c in enumerate(batch):  # checked is in trusted's state before c
                if not checked.ok:
                    break
                assigned = [lit for lit in c if checked._assigns[abs(lit)]]
                seen["unit mid-batch"] += len(c) == 1 and pos < len(batch) - 1
                seen["root-fixed literal"] += bool(assigned)
                seen["retired guard"] += -guard in assigned
                seen["attached"] += len(c) > 1 and not assigned
                checked.add_clause(c)
                seen["emptied mid-batch"] += not checked.ok and pos < len(batch) - 1
            assert state(trusted) == state(checked)
            assumptions = [guard] if rng.random() < 0.5 else []
            assert trusted.solve(assumptions) == checked.solve(assumptions)
            if rng.random() < 0.3:
                for s in (trusted, checked):
                    s.add_clause([-guard])
            assert state(trusted) == state(checked)
    assert min(seen.values()) >= 20, seen


def assert_heap_intact(s):
    # each unassigned variable has one heap entry at its current activity,
    # and _queued names the newest entry of each variable, if any
    entries = {}
    for neg_act, v in s._heap:
        entries.setdefault(v, []).append(-neg_act)
    for v in range(1, s.num_vars + 1):
        acts = entries.get(v, [])
        assert len(set(acts)) == len(acts), v
        if s._assigns[v] == 0:
            assert s._queued[v] == s._activity[v], v
        if s._queued[v] >= 0:
            assert max(acts) == s._queued[v] <= s._activity[v], v
        else:
            assert all(a < s._activity[v] for a in acts), v


@pytest.mark.parametrize("cap", [None, 20.0])
def test_heap_keeps_one_live_entry_per_variable(monkeypatch, cap, seed=707, trials=40):
    # cap: a low activity cap, so the rescale and its heap rebuild run too
    from rulesat import solver as solver_module

    if cap is not None:
        monkeypatch.setattr(solver_module, "_ACTIVITY_CAP", cap)
    rescales = []
    rescale = Solver._rescale_activity
    monkeypatch.setattr(Solver, "_rescale_activity",
                        lambda self: rescales.append(1) or rescale(self))

    def after_call(s):
        if s.solve_calls:
            assert_heap_intact(s)

    rng = random.Random(seed)
    for _ in range(trials):
        s = Solver()
        s.ensure_vars(rng.randint(30, 90))
        random_session(rng, s, after_call)
    assert bool(rescales) == (cap is not None)


class OneVarAtATime(Solver):
    """A solver that grows one variable at a time, each pushed on the heap:
    the per-variable setup ensure_vars must reproduce with no sift."""

    def ensure_vars(self, n):
        while self.num_vars < n:
            self.num_vars += 1
            for values, value in ((self._assigns, 0), (self._level, 0), (self._reason, None),
                                  (self._saved, False), (self._activity, 0.0),
                                  (self._queued, 0.0), (self._seen, 0)):
                values.append(value)
            self._watches[self.num_vars] = []
            self._watches[-self.num_vars] = []
            heappush(self._heap, (0.0, self.num_vars))


def solver_state(s):
    return (s.num_vars, s._heap, s._assigns, s._queued, s._watches, s._level, s._reason,
            s._saved, s._activity, bytes(s._seen), s.conflicts)


def test_ensure_vars_grows_as_one_new_var_per_id_does(seed=2525, trials=40):
    # ensure_vars, and add_clause through it, appends to a heap that
    # earlier solves filled with bumped (negative) keys
    rng = random.Random(seed)
    grown_over_bumps = conflicts = 0
    for _ in range(trials):
        solvers = (Solver(), OneVarAtATime())
        for _ in range(24):
            nv = solvers[0].num_vars
            kind = rng.choice(["ensure_vars", "new_var", "add_clause", "solve"])
            if kind == "ensure_vars":
                calls = [(kind, rng.randint(0, nv + 15))]
                grown_over_bumps += calls[0][1] > nv and any(k < 0 for k, _ in solvers[0]._heap)
            elif kind == "new_var":
                calls = [(kind,)]
            elif kind == "add_clause":
                top = nv + rng.randint(1, 4)  # add_clause grows to its largest variable
                calls = [(kind, [rng.choice([-1, 1]) * rng.randint(1, top) for _ in range(3)])
                         for _ in range(top)]
            else:
                calls = [(kind, [rng.choice([-1, 1]) * v
                                 for v in rng.sample(range(1, nv + 1), min(nv, 2))])]
            for s in solvers:
                for name, *args in calls:
                    getattr(s, name)(*args)
            assert solver_state(solvers[0]) == solver_state(solvers[1])
        conflicts += solvers[0].conflicts
    assert grown_over_bumps and conflicts


def test_search_counts_are_pinned(monkeypatch):
    # the solver has no randomness, so conflict counts are an exact
    # fingerprint of its decisions, propagation order and learnt clauses;
    # a change meant only to make each conflict cheaper must keep them
    nv, clauses = php_clauses(6, 5)
    s = build_solver(nv, clauses)
    got = []
    for assumptions in ([1], [-1, 7, -13], [2, 8, 14, 20]):
        assert s.solve(assumptions=assumptions) is False
        got.append((s.conflicts, s.solve_calls, s.core))
    assert got == [(28, 1, [1]), (45, 2, [-13, 7]), (47, 3, [14, 8, 2])]

    # random 3-CNFs grown in three batches, solved after each one
    rng = random.Random(2024)
    answers, conflicts = [], []
    for _ in range(50):
        nv = rng.randint(60, 90)
        s = Solver()
        s.ensure_vars(nv)
        answer = ""
        for ratio in (3.0, 0.8, 0.5):
            for _ in range(int(ratio * nv)):
                s.add_clause([rng.choice([-1, 1]) * v for v in rng.sample(range(1, nv + 1), 3)])
            answer += "S" if s.solve(assumptions=[rng.choice([-1, 1]) * rng.randint(1, nv)]) else "U"
        answers.append(answer)
        conflicts.append(s.conflicts)
    assert " ".join(answers) == (
        "SSS SSS SSS SSU SSS SSU SSU SSS SSU SSS SSS SSS SSU SSS SSU SUU SSS SSU SSS SSU "
        "SSS SSU SSU SSS SSU SSU SSS SSS SSU SSS SSU SSU SSU SSS SSU SSU SSU SSU SSS SSS "
        "SSU SSU SSS SSU SSU SSS SSS SSU SSU SSU")
    assert conflicts == [
        69, 126, 104, 74, 79, 144, 61, 31, 131, 18, 40, 119, 121, 47, 129, 155, 43, 209, 40,
        86, 25, 108, 41, 30, 106, 133, 30, 26, 279, 29, 96, 79, 59, 5, 106, 118, 272, 172, 26,
        40, 122, 303, 31, 73, 193, 19, 62, 219, 122, 65]

    # the conflicts of every solve call of the opt, mopt and sparse searches on ex1
    # and, for classes with no witness, on make_untight
    per_call = []

    class Recording(Solver):
        def solve(self, *args, **kwargs):
            before = self.conflicts
            try:
                return super().solve(*args, **kwargs)
            finally:
                per_call.append(self.conflicts - before)

    monkeypatch.setattr(optimizer, "Solver", Recording)
    # an aggregated search's calls are class 0's search's, then class 1's.
    # Both classes' lower bounds (4 and 3) are their optima, and the search
    # lays out each class's witness (optimizer._prime_facts) as its first
    # phases, so every search makes one solve, with no conflict, and no
    # bounded round climbs
    out = optimizer.minimize_perfect(make_ex1(), Scope.per_class(0))
    assert (out.objective, per_call) == (4, [0])
    per_call.clear()
    out = optimizer.minimize_perfect(make_ex1(), Scope.per_class(1))
    assert (out.objective, per_call) == (3, [0])
    per_call.clear()
    out = optimizer.minimize_perfect(make_ex1(), Scope.aggregated())
    assert (out.objective, per_call) == (7, [0] + [0])
    per_call.clear()
    # the greedy budget: 4 nodes, the optimum itself, where 2(K+2) gave 12
    out = optimizer.minimize_bounded(make_ex1(), Scope.per_class(0))
    assert (out.objective, [r["n"] for r in out.stats["rounds"]], per_call) == (
        4, [4], [0])
    per_call.clear()
    # at the greedy budget 6 the first model is the witness, of size 3
    out = optimizer.minimize_bounded(make_ex1(), Scope.per_class(1))
    assert (out.objective, [r["n"] for r in out.stats["rounds"]], per_call) == (
        3, [6], [0])
    per_call.clear()
    out = optimizer.minimize_bounded(make_ex1(), Scope.aggregated())
    assert (out.objective, per_call) == (7, [0] + [0])
    per_call.clear()
    # n0 = 2 is raised to the lower bound 3, the optimum: one round, no climb
    out = optimizer.minimize_bounded(make_ex1(), Scope.per_class(1), n0=2)
    assert (out.objective, [r["n"] for r in out.stats["rounds"]], per_call) == (
        3, [3], [0])
    per_call.clear()
    # n0 is each class's first budget: 5 fits both classes' optima
    out = optimizer.minimize_bounded(make_ex1(), Scope.aggregated(), n0=5)
    assert (out.objective, [r["n"] for r in out.stats["rounds"]], per_call) == (
        7, [5, 5], [0, 0])
    per_call.clear()
    # both classes' lower bounds, 2, are below their optima, 3: no witness,
    # so the searches run from phase False, as before witnesses
    out = optimizer.minimize_perfect(make_untight(), Scope.aggregated())
    assert (out.objective, [r["n"] for r in out.stats["rounds"]], per_call) == (
        6, [2, 3, 2, 3], [4, 0, 3, 2])
    per_call.clear()
    out = optimizer.minimize_bounded(make_untight(), Scope.aggregated())
    assert (out.objective, [r["n"] for r in out.stats["rounds"]], per_call) == (
        6, [4, 5], [3, 3, 0, 5, 2, 2])
    per_call.clear()
    # lambda_cost 1: the optimum 4 at budget 2 leaves room for a cheaper set
    # of up to 3 nodes, so budget 3 runs; class 0's optimum 3 is certified at 2
    out = optimizer.minimize_sparse(make_ex1(), Scope.aggregated(), lam=0.1, n0=2)
    assert (out.objective, [r["n"] for r in out.stats["rounds"]], per_call) == (
        4, [2, 3], [0, 5, 11, 0, 8, 4, 0, 4, 0, 0, 0, 8])
    per_call.clear()
    out = optimizer.minimize_sparse(make_ex1(), Scope.per_class(0), lam=0.1, n0=2)
    assert (out.objective, [r["n"] for r in out.stats["rounds"]], per_call) == (
        3, [2], [0, 0, 3, 0, 0, 5, 2])

    # a search that restarts, every 256 conflicts
    s = build_solver(*php_clauses(7, 6), cls=Audited)
    assert s.solve() is False
    assert (s.conflicts, s.restarts) == (780, [256, 513, 771])


class Audited(Solver):
    """A Solver that records its restarts and audits its learnt store.

    restarts lists the conflict count at each restart: a jump to the root
    right after a propagation without conflict, where a decision or the
    end of the search would come next.  Each reduction of the learnt
    store is checked, and recorded in reductions as (learnts, dropped,
    locked): locked counts the learnts longer than 2 in the longer half,
    the droppable one, that are the reason of an assignment.  Every
    literal handed to _enqueue must be unassigned."""

    def __init__(self):
        super().__init__()
        self.restarts = []
        self.reductions = []
        self._quiet = False  # the last step propagated without conflict

    def _propagate(self):
        confl = super()._propagate()
        self._quiet = confl is None
        return confl

    def _pick_branch(self):
        self._quiet = False
        return super()._pick_branch()

    def _analyze_final(self, failed):
        self._quiet = False
        return super()._analyze_final(failed)

    def _cancel_until(self, level):
        if self._quiet:
            self.restarts.append(self.conflicts)
        super()._cancel_until(level)

    def _enqueue(self, lit, reason):
        assert self._assigns[abs(lit)] == 0, lit
        return super()._enqueue(lit, reason)

    def _reduce_learnts(self):
        before = sorted(self._learnts, key=len)
        reasons = {id(self._reason[abs(lit)]) for lit in self._trail}
        super()._reduce_learnts()
        kept = {id(c) for c in self._learnts}
        dropped = [c for c in before if id(c) not in kept]
        assert not [c for c in dropped if id(c) in reasons], "a locked learnt was dropped"
        watched = {id(c) for ws in self._watches.values() for c in ws}
        assert not [c for c in dropped if id(c) in watched], "a dropped learnt is watched"
        assert_watches_intact(self)
        locked = [c for c in before[len(before) // 2:] if len(c) > 2 and id(c) in reasons]
        self.reductions.append((len(before), len(dropped), len(locked)))


def test_learnt_store_reduction_keeps_locked_clauses_and_watches():
    # PHP(7,6) with a small store: each reduction halves the learnts it
    # finds and keeps the watches of the rest (Audited checks them)
    s = build_solver(*php_clauses(7, 6), cls=Audited)
    s._max_learnts = 50
    assert s.solve() is False
    assert s.conflicts == 791
    assert [dropped for _, dropped, _ in s.reductions] == [256, 256]

    # a learnt made a reason at the root: under the assumptions a_1..a_k,
    # deciding -v conflicts through y, so the solver learns
    # (v | -a_1 | ... | -a_k); with the a_i added as units it implies v at
    # the root, and stays that reason while the pigeonhole search below
    # restarts and reduces its store.  At k = 40 it is longer than most
    # pigeonhole learnts, so it sits in the half a reduction may drop
    nv, clauses = php_clauses(7, 6)
    k = 40
    gadget = list(range(nv + 1, nv + k + 1))
    v, y = nv + k + 1, nv + k + 2
    s = Audited()
    s._max_learnts = 50
    for lit in (y, -y):
        s.add_clause([-a for a in gadget] + [v, lit])
    assert s.solve(assumptions=gadget) is True
    assert [sorted(c) for c in s._learnts] == [sorted([-a for a in gadget] + [v])]
    for c in clauses:
        s.add_clause(c)
    for a in gadget:
        s.add_clause([a])
    assert s.solve() is False
    assert s.reductions and all(locked >= 1 for _, _, locked in s.reductions), s.reductions


def test_pigeonhole_unsat():
    for pigeons, holes in [(3, 2), (4, 3)]:
        nv, clauses = php_clauses(pigeons, holes)
        s = build_solver(nv, clauses)
        assert s.solve() is False
        assert s.core == []


def test_pigeonhole_tight_sat():
    nv, clauses = php_clauses(3, 3)
    s = build_solver(nv, clauses)
    assert s.solve() is True


def test_deadline_expires():
    nv, clauses = php_clauses(9, 8)  # hard enough to outlive a tiny budget
    s = build_solver(nv, clauses)
    with pytest.raises(SolveBudgetExceeded):
        s.solve(deadline=time.monotonic() + 0.01)
    # the solver stays usable after a budget abort
    s2 = build_solver(3, [[1], [-1, 2]])
    assert s2.solve() is True


def test_solve_stats_progress():
    nv, clauses = php_clauses(5, 4)
    s = build_solver(nv, clauses)
    s.solve()
    assert s.solve_calls == 1
    assert s.conflicts > 0


def test_dpll_reference_agrees(seed=303, trials=120):
    rng = random.Random(seed)
    for _ in range(trials):
        nv, clauses = random_cnf(rng, max_vars=9)
        expected = is_satisfiable(nv, clauses)
        model = solve_dpll(nv, clauses)
        assert (model is not None) == expected
        if model is not None:
            for clause in clauses:
                assert any(model[abs(l) - 1] == (l > 0) for l in clause)


def test_dpll_vs_cdcl(seed=404, trials=120):
    rng = random.Random(seed)
    for _ in range(trials):
        nv, clauses = random_cnf(rng, max_vars=9)
        s = build_solver(nv, clauses)
        assert s.solve() == (solve_dpll(nv, clauses) is not None)


def test_model_values_match_enumeration_when_unique():
    # forcing chain: unit propagation alone pins every variable
    s = Solver()
    s.ensure_vars(4)
    s.add_clause([1])
    s.add_clause([-1, 2])
    s.add_clause([-2, -3])
    s.add_clause([3, 4])
    assert s.solve() is True
    models = all_models(4, [[1], [-1, 2], [-2, -3], [3, 4]])
    assert len(models) == 1
    code = int(models[0])
    for v in range(1, 5):
        assert s.model.value(v) == bool(code >> (v - 1) & 1)
    assert code_satisfies(code, [1]) and code_satisfies(code, [4])
