"""Search drivers: one exact search over node budgets, and MaxSAT.

minimize_perfect and minimize_bounded run one exact search
(_exact_search) that grows one encoding on one solver through its node
budgets.  A round solves under the guard of the ending Encoder.build
writes at its budget, and the next round retires it, so the clauses
learnt on the smaller budgets carry over.  The used count u of a round's
first model bounds the optimum from above.  The unused flags form a
suffix, so "at most c used nodes" is the single assumption unused_{c+1},
and the round climbs c from floor + 1 to u - 1, where floor is the
largest budget an earlier round proved infeasible: the first satisfiable
c is the optimum, with no cost counter.  minimize_perfect runs it on the
perfect encoding from budget 1 up, one node per round, also assuming
that the last node is a leaf, so its first satisfiable budget is minimal
and no round climbs.  minimize_bounded starts, unless given a budget,
from the size of an exact-fit decision set that a greedy pass over the
data builds (_greedy_budget), capped at default_node_budget: below the
cap its first round has a model and ends optimal; after an infeasible
round, the next and last one runs at the greedy set's full size.  A
round's first model is an anytime answer within its budget.  Exact fit
splits by class, so in aggregated scope both drivers search each class
in turn and join the rules (_join); aggregated encodings serve only
sparse and encode.  minimize_sparse trades misclassifications against a
per-node penalty by MaxSAT, each round on a fresh solver.  A set cheaper
than a round's optimum C uses at most (C - 1) // lambda_cost nodes, so C
is optimal if that bound is within the budget; else the next and last
round runs at the bound.  The drivers share one loop (_search_budgets)
that runs the budget each round derives, within the node cap, and keeps
the clock, the round records and the solver totals.  Each driver's
Encoder writes straight into its Solver; a round checks the clock before
each node, and a sparse round runs _descend.

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
from .model import DecisionSet, Rule, decode, verify_perfect
from .solver import SolveBudgetExceeded, Solver


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


def _greedy_rules(ds: BinDataset, scope: Scope):
    """Yield the rules of an exact-fit decision set built greedily; ds
    must be consistent.

    Per class the scope must cover, the rule for the smallest uncovered
    feature vector starts from all of its literals and drops each, in
    feature order, whose removal leaves it covering no example of another
    class.  The vectors it covers are then done.
    """
    vectors: dict[int, set] = {}
    for bits, cls, _ in ds.examples:
        vectors.setdefault(cls, set()).add(bits)
    if scope.is_aggregated:
        heads = sorted(vectors)
    else:
        heads = [scope.target] if scope.target in vectors else []
    for head in heads:
        others = [bits for cls, group in vectors.items() if cls != head for bits in group]
        uncovered = sorted(vectors[head])
        while uncovered:
            body = [(f, bit == 1) for f, bit in enumerate(uncovered[0])]
            for literal in list(body):
                shorter = Rule(tuple(lit for lit in body if lit != literal), head)
                if not any(map(shorter.covers, others)):
                    body.remove(literal)
            rule = Rule(tuple(body), head)
            yield rule
            uncovered = [bits for bits in uncovered if not rule.covers(bits)]


def _greedy_budget(ds: BinDataset, scope: Scope, cap: int) -> int:
    """The size of the exact-fit set of _greedy_rules, capped at cap and
    at least 1: a bounded round at that budget has a model."""
    size = 0
    for rule in _greedy_rules(ds, scope):
        size += rule.size
        if size >= cap:
            return cap
    return max(size, 1)


def first_budget(ds: BinDataset, scope: Scope, mode: str, n0: int | None, max_nodes: int) -> int:
    """The node budget a search or an encoding in mode ("perfect",
    "bounded" or "sparse") starts from: n0 if given, else
    default_node_budget capped at max_nodes, or the smaller greedy budget
    in bounded mode."""
    if n0 is not None:
        return n0
    cap = min(default_node_budget(ds.num_features), max_nodes)
    return _greedy_budget(ds, scope, cap) if mode == "bounded" else cap


class _Clock:
    def __init__(self, limits: SearchLimits):
        limits.validate()
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
    next: int | None = None  # the budget of the next round, larger than this one's


def _search_budgets(limits: SearchLimits, n: int, progress, solve_round) -> SolveOutcome:
    """The loop the three drivers share: solve_round(n, clock) for the
    node budget n, then for the budget each round names as the next one,
    capped at limits.max_nodes, each started only while time is left.  A
    first budget above the cap, where no round could run, is an
    OptimizerError; the drivers' default budgets stay within it.

    The search stops at the first round that finds an optimal outcome,
    times out or runs at the cap.  The best feasible outcome found so
    far, if any, stands in for a timeout or for reaching the node cap.
    """
    clock = _Clock(limits)
    if not 1 <= n <= limits.max_nodes:
        raise OptimizerError("node budget %d is outside 1..%d (the node cap, max_nodes)"
                             % (n, limits.max_nodes))
    rounds = []
    solve_calls = conflicts = 0
    best = outcome = None
    while outcome is None:
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
        elif n == limits.max_nodes:
            break
        else:
            n = min(rnd.next, limits.max_nodes)
    stats = {"solve_calls": solve_calls, "conflicts": conflicts,
             "elapsed": clock.elapsed(), "rounds": rounds}
    if outcome is None:
        outcome = best or SolveOutcome(status="timeout")
        stats["note"] = "node cap %d reached" % limits.max_nodes
    outcome.stats = stats
    return outcome


def _join(outcomes: list[SolveOutcome], ds: BinDataset, mode: str, kind: str) -> SolveOutcome:
    """The union of per-class outcomes in class order, sizes and objectives
    summed: "optimal" only if each one is, else "feasible", and a timeout
    with no set if one has no set."""
    if any(out.decision_set is None for out in outcomes):
        return SolveOutcome(status="timeout")
    objective = sum(out.objective for out in outcomes)
    dset = DecisionSet(rules=[rule for out in outcomes for rule in out.decision_set.rules],
                       classes=list(ds.classes),
                       total_size=sum(out.decision_set.total_size for out in outcomes),
                       metadata={"mode": mode, "scope": kind, "objective": objective})
    status = "optimal" if all(out.status == "optimal" for out in outcomes) else "feasible"
    return SolveOutcome(status=status, decision_set=dset, objective=objective)


def _search_each_class(ds: BinDataset, mode: str, n0: int | None, limits: SearchLimits,
                       progress) -> SolveOutcome:
    """An aggregated exact search: each class's own search, in class order,
    on its share of the time left on one clock, joined.  No class starts
    after one found no set.  Records carry the class and that clock's time.
    """
    clock = _Clock(limits)
    targets = sorted({cls for _, cls, _ in ds.examples})
    outcomes, rounds = [], []
    for done, target in enumerate(targets):
        def tag(record, label=ds.classes[target], start=clock.elapsed()):
            return {**record, "class": label, "elapsed": start + record["elapsed"]}
        out = _exact_search(ds, Scope.per_class(target), mode, n0,
                            _remaining_limits(clock, len(targets) - done),
                            progress and (lambda record: progress(tag(record))))
        outcomes.append(out)
        rounds += map(tag, out.stats["rounds"])
        if out.decision_set is None:
            break
    joined = _join(outcomes, ds, mode, "aggregated")
    if joined.decision_set is not None:
        _verified(joined.decision_set, ds, Scope.aggregated())
    joined.stats = {key: sum(out.stats[key] for out in outcomes)
                    for key in ("solve_calls", "conflicts")}
    joined.stats.update(elapsed=clock.elapsed(), rounds=rounds)
    joined.stats.update((k, v) for out in outcomes for k, v in out.stats.items() if k == "note")
    return joined


def _exact_search(ds: BinDataset, scope: Scope, mode: str, n0: int | None,
                  limits: SearchLimits | None, progress) -> SolveOutcome:
    """The one search of minimize_perfect (mode "perfect", which takes no
    n0) and minimize_bounded (mode "bounded"), run per class in aggregated
    scope; see the module docstring.  A timeout returns the best model so
    far as "feasible".
    """
    scope.validate(len(ds.classes))
    _check_consistent(ds)
    perfect = mode == "perfect"
    if perfect and n0 is not None:
        raise OptimizerError("a perfect search starts at one node and takes no first budget")
    limits = limits or SearchLimits()
    if scope.is_aggregated:
        return _search_each_class(ds, mode, n0, limits, progress)
    # after the checks: the greedy pass of first_budget needs consistent data
    n = 1 if perfect else first_budget(ds, scope, mode, n0, limits.max_nodes)
    solver = Solver()
    enc = Encoder(ds, scope, mode, solver)
    vm = enc.vm
    sat, unsat = ("sat", "unsat") if perfect else ("optimal", "infeasible")
    guard = None
    floor = -1

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
                for c in range(floor + 1, best.total_size) if not perfect else ():
                    if clock.solve(solver, [guard, vm.unused_var(c + 1)]):
                        improved(solver.model)
                        break
            else:
                floor = n
        except SolveBudgetExceeded:
            status = "timeout"
        cost = None if best is None else best.total_size
        rnd = _Round(status, cost, solver.solve_calls - calls, solver.conflicts - conflicts)
        if status == unsat:
            # the optimum is above n; a bounded round at the greedy size has a model
            rnd.next = n + 1 if perfect else _greedy_budget(ds, scope, clock.limits.max_nodes)
        if best is not None:
            best.metadata = {"mode": mode, "scope": scope.kind, "objective": cost}
            if status == "timeout":
                rnd.found = SolveOutcome(status="feasible", decision_set=best, objective=cost)
            else:
                rnd.found = SolveOutcome(status="optimal", decision_set=_verified(best, ds, scope),
                                         objective=cost)
        return rnd

    return _search_budgets(limits, n, progress, solve_round)


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
    return _exact_search(ds, scope, "perfect", None, limits, progress)


def minimize_bounded(ds: BinDataset, scope: Scope, n0: int | None = None,
                     limits: SearchLimits | None = None, progress=None) -> SolveOutcome:
    """Exact fit within a node budget, minimizing the used-node count.

    Without n0 the budget is the size of a greedy exact-fit decision set
    (_greedy_budget), capped at default_node_budget and at
    limits.max_nodes: below the caps the first round has a model and ends
    optimal.  After a budget too small for any exact fit, the next and
    last round runs at the greedy set's size, capped only at
    limits.max_nodes.  A round's first solve gives an anytime model within
    the budget, and the climb of _exact_search then proves or improves it.
    In aggregated scope n0 is each class's first budget.
    """
    return _exact_search(ds, scope, "bounded", n0, limits, progress)


def minimize_sparse(ds: BinDataset, scope: Scope, lam, n0: int | None = None,
                    limits: SearchLimits | None = None, progress=None) -> SolveOutcome:
    """Minimize misclassification weight plus lambda-scaled node count.

    The hard clauses are always satisfiable (flag everything as
    misclassified, use no node), so the budget only caps the searchable
    size.  Every node costs lambda_cost, so a set cheaper than a round's
    optimum C uses at most B = (C - 1) // lambda_cost nodes.  If B <= n,
    the round's budget, C is optimal; otherwise the next round runs at B,
    capped at limits.max_nodes, and at B its optimum is certified.
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
        rnd.next = (res.cost - 1) // lam_cost
        done = res.status == "optimal" and rnd.next <= n
        rnd.found = SolveOutcome(status="optimal" if done else "feasible", decision_set=dset,
                                 objective=res.cost)
        return rnd

    limits = limits or SearchLimits()
    return _search_budgets(limits, first_budget(ds, scope, "sparse", n0, limits.max_nodes),
                           progress, solve_round)
