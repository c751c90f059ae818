"""Search drivers: one exact search over node budgets, and MaxSAT.

minimize_perfect and minimize_bounded run one exact search
(_exact_search) that grows one encoding on one solver through the node
budgets n, n + step, ...  A round solves under the guard of the ending
Encoder.build writes at its budget, and the next round retires it, so
the clauses learnt on the smaller budgets carry over.  The used count u
of a round's first model bounds the optimum from above.  The unused
flags form a suffix, so "at most c used nodes" is the single assumption
unused_{c+1}, and the round climbs c from floor + 1 to u - 1, where
floor is the largest budget an earlier round proved infeasible: the
first satisfiable c is the optimum, with no cost counter.
minimize_perfect runs it on the perfect encoding from budget 1 in steps
of 1, also assuming that the last node is a leaf, so its first
satisfiable budget is minimal and no round climbs.  minimize_bounded
starts from a guessed budget, and a round's first model is an anytime
answer within it.  minimize_sparse trades misclassifications against
a per-node penalty by MaxSAT and re-runs, each round on a fresh solver,
with a larger budget as long as the optimum exhausts it, stopping once
a round leaves a node unused.  The drivers share one loop over node
budgets (_search_budgets), which keeps the clock, the round records and
the solver totals.  Each driver's Encoder writes straight into its
Solver; a round checks the clock before each node, and a sparse round
runs _descend.

maxsat_solve loads a formula into a solver and runs _descend, a linear
SAT-to-UNSAT search: solve, read the model cost c, then assume "cost <=
c - 1" through totalizer outputs (one totalizer per distinct soft
weight, merged by weighted sums) and repeat until UNSAT; the last model
is optimal.  The first solve starts from the phase that falsifies every
soft clause (in the sparse encoding: every example misclassified, every
node used), which makes a first model cheap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import inf

from .cardinality import build_totalizer
from .dataset import BinDataset
# build_perfect, build_bounded and build_sparse are not called here; they
# stay importable as optimizer.build_* because the benchmark's tracer
# patches the builders by their names in this module
from .encoder import (CnfBundle, Encoder, Scope, build_bounded, build_perfect,  # noqa: F401
                      build_sparse, lam_to_cost)
from .formula import Assignment, Formula
from .model import DecisionSet, decode, verify_perfect
from .solver import SolveBudgetExceeded, Solver

DEFAULT_STEP = 10


class ContradictionError(ValueError):
    """Exact-fit training on contradictory data cannot succeed."""


class OptimizerError(ValueError):
    """Invalid optimizer request."""


@dataclass
class SearchLimits:
    wall_time_budget: float = 600.0  # seconds for one minimize_* or maxsat_solve call
    per_solve_budget: float = 60.0   # seconds for one solver call
    max_nodes: int = 64

    def validate(self) -> None:
        # NaN compares false with everything, and an infinite budget has no deadline
        if not 0 < self.wall_time_budget < inf or not 0 < self.per_solve_budget < inf:
            raise OptimizerError("time budgets must be positive and finite")
        if self.max_nodes < 1:
            raise OptimizerError("max_nodes must be >= 1")


@dataclass
class SolveOutcome:
    status: str  # "optimal" | "feasible" | "infeasible" | "timeout"
    decision_set: DecisionSet | None = None
    objective: int | None = None
    stats: dict = field(default_factory=dict)


@dataclass
class MaxsatResult:
    status: str  # "optimal" | "infeasible" | "timeout"
    assignment: Assignment | None = None
    cost: int | None = None
    stats: dict = field(default_factory=dict)


def default_node_budget(num_features: int) -> int:
    return min(2 * (num_features + 2), 32)


class _Clock:
    def __init__(self, limits: SearchLimits):
        self.limits = limits
        self.start = time.monotonic()
        self.wall_deadline = self.start + limits.wall_time_budget

    def expired(self) -> bool:
        return time.monotonic() >= self.wall_deadline

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def solve(self, solver: Solver, assumptions) -> bool:
        """solver.solve within the per-solve budget and the time left."""
        if self.expired():
            raise SolveBudgetExceeded
        return solver.solve(assumptions=assumptions, deadline=min(
            time.monotonic() + self.limits.per_solve_budget, self.wall_deadline))


class _CostCounter:
    """Unary view of the total falsified soft weight.

    One totalizer per distinct weight; their outputs, scaled by the
    weight, are merged into sum-valued literals.  Assuming the negation
    of every literal above a bound excludes all costlier models.  Once
    the clock has expired the build stops with SolveBudgetExceeded; it
    checks before each totalizer and each merge.
    """

    def __init__(self, solver: Solver, soft, clock: _Clock):
        by_weight: dict[int, list[int]] = {}
        for clause, weight in soft:
            if len(clause) == 1:
                indicator = -clause[0]
            else:
                relax = solver.new_var()
                solver.add_clause(list(clause) + [relax])
                indicator = relax
            by_weight.setdefault(weight, []).append(indicator)
        nodes = []
        for weight in sorted(by_weight):
            if clock.expired():
                raise SolveBudgetExceeded
            handle = build_totalizer(solver, by_weight[weight])
            nodes.append([(weight * t, handle.outputs[t - 1])
                          for t in range(1, len(handle.outputs) + 1)])
        while len(nodes) > 1:
            merged = []
            for a in range(0, len(nodes) - 1, 2):
                if clock.expired():
                    raise SolveBudgetExceeded
                merged.append(self._merge(solver, nodes[a], nodes[a + 1]))
            if len(nodes) % 2:
                merged.append(nodes[-1])
            nodes = merged
        self.levels = nodes[0]  # ascending (weighted count, literal)

    @staticmethod
    def _merge(solver: Solver, left, right):
        sums: dict[int, int] = {}
        for value, _ in left:
            sums.setdefault(value, 0)
        for value, _ in right:
            sums.setdefault(value, 0)
        for lv, _ in left:
            for rv, _ in right:
                sums.setdefault(lv + rv, 0)
        for value in sums:
            sums[value] = solver.new_var()
        lit_of = dict(left)
        lit_of.update({0: None})
        rlit = dict(right)
        rlit[0] = None
        for lv, llit in list(lit_of.items()):
            for rv, rl in rlit.items():
                value = lv + rv
                if value == 0:
                    continue
                clause = [sums[value]]
                if llit is not None:
                    clause.append(-llit)
                if rl is not None:
                    clause.append(-rl)
                solver.add_clause(clause)
        return sorted(sums.items())

    def bound_assumptions(self, bound: int) -> list[int]:
        """Assumptions forcing total falsified weight <= bound."""
        return [-lit for value, lit in self.levels if value > bound]


def _model_cost(soft, assignment) -> int:
    return sum(w for clause, w in soft
               if not any(assignment.lit_true(l) for l in clause))


def maxsat_solve(problem, limits: SearchLimits | None = None, progress=None) -> MaxsatResult:
    """Minimize the falsified soft weight of a formula's hard+soft clauses.

    Accepts a Formula or a CnfBundle.  The result carries the optimal
    assignment and its cost, or infeasible (hard clauses UNSAT), or
    timeout with the best model found so far.
    """
    formula: Formula = problem.formula if isinstance(problem, CnfBundle) else problem
    if not formula.soft:
        raise OptimizerError("maxsat_solve needs at least one soft clause")
    limits = limits or SearchLimits()
    limits.validate()
    solver = Solver()
    solver.add_formula(formula)
    return _descend(solver, formula.soft, _Clock(limits), progress)


def _descend(solver: Solver, soft, clock: _Clock, progress, **tags) -> MaxsatResult:
    """The linear search of maxsat_solve over the hard clauses already in
    solver; each model event carries tags as extra fields."""
    for clause, _ in soft:  # a cheap first model: every soft clause falsified
        for lit in clause:
            solver.set_phase(-lit)
    best_assignment = None
    best_cost = None
    models = 0
    try:
        if clock.expired():  # no search can start: build no counter
            raise SolveBudgetExceeded
        counter = _CostCounter(solver, soft, clock)
        while True:
            if best_cost is None:
                assumptions = []
            else:
                assumptions = counter.bound_assumptions(best_cost - 1)
            if not clock.solve(solver, assumptions):
                break
            models += 1
            cost = _model_cost(soft, solver.model)
            assert best_cost is None or cost < best_cost
            best_assignment, best_cost = solver.model, cost
            if progress is not None:
                progress({"event": "model", "cost": cost, "elapsed": clock.elapsed(), **tags})
            if cost == 0:
                break
        status = "infeasible" if best_assignment is None else "optimal"
    except SolveBudgetExceeded:
        status = "timeout"
    return MaxsatResult(status=status, assignment=best_assignment, cost=best_cost,
                        stats={"solve_calls": solver.solve_calls, "conflicts": solver.conflicts,
                               "elapsed": clock.elapsed(), "models": models})


def _check_consistent(ds: BinDataset) -> None:
    seen: dict[tuple[int, ...], int] = {}
    for bits, cls, _ in ds.examples:
        if seen.setdefault(bits, cls) != cls:
            raise ContradictionError(
                "identical feature vectors carry different classes; "
                "run sanitize() in perfect mode or train a sparse model"
            )


def _remaining_limits(clock: _Clock, runs_left: int = 1) -> SearchLimits:
    """The clock's limits, with the wall budget cut down to an equal share
    of the time left among runs_left runs, this one included.

    A run thus cannot use up the time of the runs after it, time it
    leaves unused goes to them, and the last run gets all that is left.
    Past the deadline the budget is a nanosecond, spent before the
    receiving search checks its clock, so that search starts no round.
    """
    remaining = max((clock.wall_deadline - time.monotonic()) / runs_left, 1e-9)
    return SearchLimits(wall_time_budget=remaining,
                        per_solve_budget=clock.limits.per_solve_budget,
                        max_nodes=clock.limits.max_nodes)


def _verified(dset: DecisionSet, ds: BinDataset, scope: Scope) -> DecisionSet:
    ok, violation = verify_perfect(dset, ds, scope)
    if not ok:
        raise AssertionError("decoded set fails verification: %r" % (violation,))
    return dset


@dataclass
class _Round:
    """The search at one node budget, as reported to _search_budgets."""

    status: str  # status of the round's progress record
    cost: int | None
    solve_calls: int
    conflicts: int
    found: SolveOutcome | None = None  # an "optimal" one ends the search


def _search_budgets(limits: SearchLimits | None, n: int, step: int, progress,
                    solve_round) -> SolveOutcome:
    """The loop the three drivers share: solve_round(n, clock) for node
    budgets n, n + step, ... up to limits.max_nodes, each started only
    while time is left.

    The search stops at the first round that finds an optimal outcome
    or times out.  The best feasible outcome found so far, if any,
    stands in for a timeout or for reaching the node cap.
    """
    limits = limits or SearchLimits()
    limits.validate()
    if step < 1:
        raise OptimizerError("step must be >= 1")
    if n < 1:
        raise OptimizerError("node budget must be >= 1")
    clock = _Clock(limits)
    rounds = []
    solve_calls = conflicts = 0
    best = outcome = None
    while outcome is None and n <= limits.max_nodes:
        # past the deadline a round would only build its encoding and time out
        rnd = _Round("timeout", None, 0, 0) if clock.expired() else solve_round(n, clock)
        solve_calls += rnd.solve_calls
        conflicts += rnd.conflicts
        record = {"n": n, "status": rnd.status, "cost": rnd.cost, "elapsed": clock.elapsed()}
        rounds.append(record)
        if progress is not None:
            progress(record)
        found = rnd.found
        if found is not None and (best is None or found.objective < best.objective):
            best = found
        if found is not None and found.status == "optimal":
            outcome = found
        elif rnd.status == "timeout":
            outcome = best or SolveOutcome(status="timeout")
        n += step
    stats = {"solve_calls": solve_calls, "conflicts": conflicts,
             "elapsed": clock.elapsed(), "rounds": rounds}
    if outcome is None:
        outcome = best or SolveOutcome(status="timeout")
        stats["note"] = "node cap %d reached" % limits.max_nodes
    outcome.stats = stats
    return outcome


def _exact_search(ds: BinDataset, scope: Scope, mode: str, n: int, step: int,
                  limits: SearchLimits | None, progress) -> SolveOutcome:
    """The one round body of minimize_perfect (mode "perfect") and
    minimize_bounded (mode "bounded"); see the module docstring.

    floor starts at 0 in perfect mode, since a perfect encoding of n
    nodes uses all n, and at -1 in bounded mode, where a set may use no
    node.  A timeout returns the best model so far as "feasible".
    """
    scope.validate(len(ds.classes))
    _check_consistent(ds)
    solver = Solver()
    enc = Encoder(ds, scope, mode, solver)
    vm = enc.vm
    perfect = mode == "perfect"
    sat, unsat = ("sat", "unsat") if perfect else ("optimal", "infeasible")
    guard = None
    floor = 0 if perfect else -1

    def solve_round(n, clock):
        nonlocal guard, floor
        calls, conflicts = solver.solve_calls, solver.conflicts
        best = None

        def improved(model):
            nonlocal best
            best = decode(model, vm, scope, ds.classes)
            if progress is not None and not perfect:
                progress({"event": "model", "cost": best.total_size, "n": n,
                          "elapsed": clock.elapsed()})

        try:
            if guard:
                solver.add_clause([-guard])
            guard = enc.build(n, clock.expired, guarded=True)
            if not guard:
                raise SolveBudgetExceeded
            status = unsat
            if clock.solve(solver, [vm.class_sel_var(n), guard] if perfect else [guard]):
                status = sat
                improved(solver.model)
                for c in range(floor + 1, best.total_size):
                    if clock.solve(solver, [guard, vm.unused_var(c + 1)]):
                        improved(solver.model)
                        break
            else:
                floor = n
        except SolveBudgetExceeded:
            status = "timeout"
        cost = None if best is None else best.total_size
        rnd = _Round(status, cost, solver.solve_calls - calls, solver.conflicts - conflicts)
        if best is not None:
            best.metadata = {"mode": mode, "scope": scope.kind, "objective": cost}
            if status == "timeout":
                rnd.found = SolveOutcome(status="feasible", decision_set=best, objective=cost)
            else:
                rnd.found = SolveOutcome(status="optimal", decision_set=_verified(best, ds, scope),
                                         objective=cost)
        return rnd

    return _search_budgets(limits, n, step, progress, solve_round)


def minimize_perfect(ds: BinDataset, scope: Scope, limits: SearchLimits | None = None,
                     progress=None) -> SolveOutcome:
    """Smallest exact-fit decision set by trying node counts 1, 2, 3, ...

    Sizes below the answer are proven UNSAT along the way, so the first
    satisfiable size is the minimum; no binary search is attempted since
    the UNSAT proofs at n-1 are the expensive part and would be repeated.
    The rounds grow one perfect encoding on one solver (_exact_search),
    by one node each, so every clause learnt on a smaller size carries
    over to the larger ones.
    """
    return _exact_search(ds, scope, "perfect", 1, 1, limits, progress)


def minimize_bounded(ds: BinDataset, scope: Scope, n0: int | None = None,
                     step: int = DEFAULT_STEP, limits: SearchLimits | None = None,
                     progress=None) -> SolveOutcome:
    """Exact fit within a node budget, minimizing the used-node count.

    When the budget is too small the hard clauses are UNSAT and the
    search retries with n0 + step.  On success the objective equals the
    perfect optimum whenever the budget reached it.  A round's first
    solve gives an anytime model within the budget, and the climb of
    _exact_search then proves or improves it.
    """
    n = n0 if n0 is not None else default_node_budget(ds.num_features)
    return _exact_search(ds, scope, "bounded", n, step, limits, progress)


def minimize_sparse(ds: BinDataset, scope: Scope, lam, n0: int | None = None,
                    step: int = DEFAULT_STEP, limits: SearchLimits | None = None,
                    progress=None) -> SolveOutcome:
    """Minimize misclassification weight plus lambda-scaled node count.

    The hard clauses are always satisfiable (flag everything as
    misclassified, use no node), so the budget only caps the searchable
    size.  A round whose optimum uses every node may be budget-starved;
    the search then retries with a larger budget, stopping once a
    round's optimum leaves at least one node unused.
    """
    scope.validate(len(ds.classes))
    lam_cost = lam_to_cost(lam, ds.total_weight)

    def solve_round(n, clock):
        solver = Solver()
        enc = Encoder(ds, scope, "sparse", solver, lam_cost)
        if not enc.build(n, clock.expired):
            return _Round("timeout", None, 0, 0)
        res = _descend(solver, enc.soft(), clock, progress, n=n)
        rnd = _Round(res.status, res.cost, res.stats["solve_calls"], res.stats["conflicts"])
        if res.assignment is None:
            return rnd
        vm = enc.vm
        misclassified = sum(
            w for i, (_, _, w) in enumerate(ds.examples, start=1)
            if res.assignment.value(vm.misclass_var(i))
        )
        dset = decode(res.assignment, vm, scope, ds.classes)
        dset.metadata = {
            "mode": "sparse", "scope": scope.kind, "lambda_cost": lam_cost,
            "objective": res.cost, "misclassified_weight": misclassified,
        }
        # growing the budget never raises the optimum, so once a round's
        # optimum leaves a node unused the enlarging loop is done
        done = res.status == "optimal" and dset.total_size < n
        rnd.found = SolveOutcome(status="optimal" if done else "feasible", decision_set=dset,
                                 objective=res.cost)
        return rnd

    n = n0 if n0 is not None else default_node_budget(ds.num_features)
    return _search_budgets(limits, n, step, progress, solve_round)
