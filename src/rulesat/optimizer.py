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
round's first model is an anytime answer within its budget.

Exact fit splits by class: a class-c rule covers no example of another
class, and some class-c rule covers each class-c example, so the
aggregated optimum is the sum of the per-class optima.  _exact_fit, the
one driver of minimize_perfect, minimize_bounded and
cover.minimize_exact_fit, builds the call's clock, checks the scope and
the data, and runs its class search; in aggregated scope it runs it per
class through _search_each_class, the one loop (the CLI's too) that runs
each class on its share of the clock and joins the rules (_join).
minimize_sparse trades misclassifications against a per-node penalty by
MaxSAT, each round on a fresh solver; aggregated sparse is one joint
search.  A set cheaper than a round's optimum C uses at most
(C - 1) // lambda_cost nodes, so C is optimal if that bound is within the
budget; else the next and last round runs at the bound.  The node
searches share one loop (_search_budgets) that runs the budget each round
derives, within the node cap MAX_NODES, and keeps the clock and the
round records.  A round reports only its decision (_Round): its status,
its best outcome and the next budget.  Each driver's Encoder writes
straight into its Solver; a round checks the clock before each node,
and a sparse round runs _descend.

maxsat_solve loads a formula into a solver and runs _descend, a linear
SAT-to-UNSAT search: solve, read the model cost c, then assume "cost <=
c - 1" and repeat until UNSAT; the last model is optimal.  The cost
bound is a level list (_cost_levels): one totalizer per distinct soft
weight, their outputs merged pairwise by weighted sums into ascending
(value, literal) levels, and "cost <= c - 1" assumes the negation of
each level of value c or more.  The first solve tries the phase its
caller gives.
maxsat_solve and a sparse round give the phase that falsifies every soft
clause (_falsified; in the sparse encoding: every example misclassified,
every node used), which makes a first model cheap.  The set cover of
cover.minimize_exact_fit gives a greedy cover, so its first model is
that cover.

Only _exact_fit, minimize_sparse, maxsat_solve and the CLI commands
build a _Clock, which carries time and the solves made on it.  Every
inner search runs on its caller's clock or on a share of it
(_Clock.share), so every record's elapsed counts from the caller's
start, and past the caller's deadline no search starts a round.  Every
search solves through _Clock.solve, which counts each call and its
conflicts in a tally that the clock's shares share; the solve_calls and
conflicts of a stats record are what the tally gained over its search.
"""

from __future__ import annotations

import time
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


MAX_NODES = 64  # the node cap: no search round and no default budget runs above it


class ContradictionError(ValueError):
    """Exact-fit training on contradictory data cannot succeed."""


class OptimizerError(ValueError):
    """Invalid optimizer request."""


class SearchLimits:
    def __init__(self, wall_time_budget: float = 600.0, per_solve_budget: float = 60.0):
        self.wall_time_budget = wall_time_budget  # seconds for one minimize_* or maxsat_solve call
        self.per_solve_budget = per_solve_budget  # seconds for one solver call

    def validate(self) -> None:
        # NaN compares false with everything, and an infinite budget has no deadline
        if not 0 < self.wall_time_budget < inf or not 0 < self.per_solve_budget < inf:
            raise OptimizerError("time budgets must be positive and finite")


class SolveOutcome:
    def __init__(self, status: str, decision_set: DecisionSet | None = None,
                 objective: int | None = None, stats: dict | None = None):
        self.status = status  # "optimal" | "feasible" | "infeasible" | "timeout"
        self.decision_set = decision_set
        self.objective = objective
        self.stats = {} if stats is None else stats


class MaxsatResult:
    def __init__(self, status: str, assignment: Assignment | None = None,
                 cost: int | None = None, stats: dict | None = None):
        self.status = status  # "optimal" | "infeasible" | "timeout"
        self.assignment = assignment
        self.cost = cost
        self.stats = {} if stats is None else stats


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


def first_budget(ds: BinDataset, scope: Scope, mode: str, n0: int | None) -> int:
    """The node budget a search or an encoding in mode ("perfect",
    "bounded" or "sparse") starts from: n0 if given, else
    default_node_budget capped at MAX_NODES, or the smaller greedy budget
    in bounded mode."""
    if n0 is not None:
        return n0
    cap = min(default_node_budget(ds.num_features), MAX_NODES)
    return _greedy_budget(ds, scope, cap) if mode == "bounded" else cap


class _Clock:
    def __init__(self, limits: SearchLimits):
        limits.validate()
        self.limits = limits
        self.start = time.monotonic()
        self.wall_deadline = self.start + limits.wall_time_budget
        # the solves made on this clock and on its shares, which share it
        self.tally = {"solve_calls": 0, "conflicts": 0}

    def share(self, runs_left: int = 1) -> _Clock:
        """This clock, on the same start and limits, with its deadline cut
        to an equal share of the time left among runs_left runs, this one
        included: a run cannot use up the time of the runs after it, and
        the last gets all that is left.  A share never ends after this
        clock, so past its deadline the share is expired too."""
        now = time.monotonic()
        share = object.__new__(_Clock)
        share.limits, share.start, share.tally = self.limits, self.start, self.tally
        share.wall_deadline = min(self.wall_deadline,
                                  now + (self.wall_deadline - now) / runs_left)
        return share

    def expired(self) -> bool:
        return time.monotonic() >= self.wall_deadline

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def solve(self, solver: Solver, assumptions) -> bool:
        """solver.solve within the per-solve budget and the time left,
        counted in the tally; a solve cut off mid-search counts too."""
        if self.expired():
            raise SolveBudgetExceeded
        self.tally["solve_calls"] += 1
        before = solver.conflicts
        try:
            return solver.solve(assumptions=assumptions, deadline=min(
                time.monotonic() + self.limits.per_solve_budget, self.wall_deadline))
        finally:
            self.tally["conflicts"] += solver.conflicts - before

    def counts(self, since: dict | None = None) -> dict:
        """The tally, or what it gained after an earlier counts()."""
        return {key: value - (since[key] if since else 0) for key, value in self.tally.items()}


def _cost_levels(solver: Solver, soft, clock: _Clock) -> list[tuple[int, int]]:
    """A unary view of the total falsified soft weight: the ascending
    (value, literal) levels, each literal true once the weight reaches
    its value, so assuming the negation of each level at or above a cost
    excludes every model that costly.

    One totalizer per distinct weight; their outputs, scaled by the
    weight, are merged pairwise into sum-valued literals.  Once the clock
    has expired the build stops with SolveBudgetExceeded; it checks
    before each totalizer and each merge.
    """
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
        outputs = build_totalizer(solver, by_weight[weight])
        nodes.append([(weight * t, lit) for t, lit in enumerate(outputs, start=1)])
    while len(nodes) > 1:
        merged = []
        for a in range(0, len(nodes) - 1, 2):
            if clock.expired():
                raise SolveBudgetExceeded
            merged.append(_merge(solver, nodes[a], nodes[a + 1]))
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    return nodes[0]


def _merge(solver: Solver, left, right) -> list[tuple[int, int]]:
    """The levels of the sum of two level lists: a level per sum of a
    value of each, 0 standing for none, implied by the pair's literals."""
    pairs = [(lv + rv, [-lit for lit in (ll, rl) if lit is not None])
             for lv, ll in left + [(0, None)] for rv, rl in right + [(0, None)]][:-1]
    # the one-sided sums get the first variables, in pair order
    sums = dict.fromkeys(value for value, lits in sorted(pairs, key=lambda pair: len(pair[1])))
    sums = {value: solver.new_var() for value in sums}
    for value, lits in pairs:
        solver.add_clause([sums[value]] + lits)
    return sorted(sums.items())


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
    clock = _Clock(limits or SearchLimits())
    solver = Solver()
    solver.add_formula(formula)
    return _descend(solver, formula.soft, _falsified(formula.soft), clock, progress)


def _falsified(soft) -> list[int]:
    """The phase of a cheap first model: every soft clause falsified."""
    return [-lit for clause, _ in soft for lit in clause]


def _descend(solver: Solver, soft, phase, clock: _Clock, progress, **tags) -> MaxsatResult:
    """The linear search of maxsat_solve over the hard clauses already in
    solver, its first solve trying the literals of phase; each model event
    carries tags as extra fields."""
    for lit in phase:
        solver.set_phase(lit)
    best_assignment = None
    best_cost = None
    models = 0
    mark = clock.counts()
    try:
        if clock.expired():  # no search can start: build no levels
            raise SolveBudgetExceeded
        levels = _cost_levels(solver, soft, clock)
        while True:
            assumptions = ([] if best_cost is None else
                           [-lit for value, lit in levels if value >= best_cost])
            if not clock.solve(solver, assumptions):
                break
            models += 1
            cost = _model_cost(soft, solver.model)
            if best_cost is not None and cost >= best_cost:
                raise AssertionError("the cost bound admitted a model of cost %d >= %d"
                                     % (cost, best_cost))
            best_assignment, best_cost = solver.model, cost
            if progress is not None:
                progress({"event": "model", "cost": cost, "elapsed": clock.elapsed(), **tags})
            if cost == 0:
                break
        status = "infeasible" if best_assignment is None else "optimal"
    except SolveBudgetExceeded:
        status = "timeout"
    return MaxsatResult(status=status, assignment=best_assignment, cost=best_cost,
                        stats={**clock.counts(since=mark), "elapsed": clock.elapsed(),
                               "models": models})


def _check_consistent(ds: BinDataset) -> None:
    seen: dict[tuple[int, ...], int] = {}
    for bits, cls, _ in ds.examples:
        if seen.setdefault(bits, cls) != cls:
            raise ContradictionError(
                "identical feature vectors carry different classes; "
                "run sanitize() in perfect mode or train a sparse model"
            )


def _verified(dset: DecisionSet, ds: BinDataset, scope: Scope) -> DecisionSet:
    ok, violation = verify_perfect(dset, ds, scope)
    if not ok:
        raise AssertionError("decoded set fails verification: %r" % (violation,))
    return dset


class _Round:
    """The search at one node budget, as reported to _search_budgets."""

    def __init__(self, status: str, found: SolveOutcome | None = None, next: int | None = None):
        self.status = status  # status of the round's progress record
        self.found = found  # the round's best; an "optimal" one ends the search
        self.next = next  # the budget of the next round, larger than this one's


def _search_budgets(clock: _Clock, n: int, progress, solve_round) -> SolveOutcome:
    """The loop the node searches share: solve_round(n, clock) for the
    node budget n, then for the budget each round names as the next one,
    capped at MAX_NODES, each started only while time is left.  A
    first budget above the cap, where no round could run, is an
    OptimizerError; the default budgets of first_budget stay within it.

    The search stops at the first round that finds an optimal outcome,
    times out or runs at the cap.  The best feasible outcome found so
    far, if any, stands in for a timeout or for reaching the node cap.
    """
    if not 1 <= n <= MAX_NODES:
        raise OptimizerError("node budget %d is outside 1..%d (the node cap, MAX_NODES)"
                             % (n, MAX_NODES))
    rounds = []
    mark = clock.counts()
    best = outcome = None
    while outcome is None:
        # past the deadline a round would only build its encoding and time out
        rnd = _Round("timeout") if clock.expired() else solve_round(n, clock)
        found = rnd.found
        record = {"n": n, "status": rnd.status, "cost": None if found is None else found.objective,
                  "elapsed": clock.elapsed()}
        rounds.append(record)
        if progress is not None:
            progress(record)
        if found is not None and (best is None or found.objective < best.objective):
            best = found
        if found is not None and found.status == "optimal":
            outcome = found
        elif rnd.status == "timeout":
            outcome = best or SolveOutcome(status="timeout")
        elif n == MAX_NODES:
            break
        else:
            n = min(rnd.next, MAX_NODES)
    stats = {**clock.counts(since=mark), "elapsed": clock.elapsed(), "rounds": rounds}
    if outcome is None:
        outcome = best or SolveOutcome(status="timeout")
        stats["note"] = "node cap %d reached" % MAX_NODES
    outcome.stats = stats
    return outcome


def _join(outcomes: list[SolveOutcome], ds: BinDataset, mode: str) -> SolveOutcome:
    """The union of per-class outcomes in class order, sizes and objectives
    summed: "optimal" only if each one is, else "feasible", and a timeout
    with no set if one has no set."""
    if any(out.decision_set is None for out in outcomes):
        return SolveOutcome(status="timeout")
    objective = sum(out.objective for out in outcomes)
    dset = DecisionSet(rules=[rule for out in outcomes for rule in out.decision_set.rules],
                       classes=list(ds.classes),
                       total_size=sum(out.decision_set.total_size for out in outcomes),
                       metadata={"mode": mode, "scope": "aggregated", "objective": objective})
    status = "optimal" if all(out.status == "optimal" for out in outcomes) else "feasible"
    return SolveOutcome(status=status, decision_set=dset, objective=objective)


def _search_each_class(ds: BinDataset, search, mode: str, clock: _Clock,
                       progress) -> SolveOutcome:
    """search(scope, clock, progress), a per-class search, for each class
    with examples, in class order, joined and labelled mode; none starts
    after one found no set.  Each runs on clock.share: an equal share of
    the time left on clock among the class searches to come, so time one
    leaves unused goes to the ones after it.  Records carry the class;
    the stats add up the counts and map each class to its objective
    ("objectives").  A join that is not sparse is checked class by class,
    in any class count.
    """
    targets = sorted({cls for _, cls, _ in ds.examples})
    outcomes, stats = [], {"objectives": {}}
    for done, target in enumerate(targets):
        def tag(record, label=ds.classes[target]):
            return {**record, "class": label}
        out = search(Scope.per_class(target), clock.share(len(targets) - done),
                     progress and (lambda record: progress(tag(record))))
        outcomes.append(out)
        stats["objectives"][ds.classes[target]] = out.objective
        for key, value in out.stats.items():
            if key == "rounds":
                stats.setdefault(key, []).extend(map(tag, value))
            elif key == "note":
                stats[key] = value
            elif key != "elapsed":
                stats[key] = stats.get(key, 0) + value
        if out.decision_set is None:
            break
    joined = _join(outcomes, ds, mode)
    if joined.decision_set is not None and mode != "sparse":
        for target in targets:
            _verified(joined.decision_set, ds, Scope.per_class(target))
    joined.stats = {**stats, "elapsed": clock.elapsed()}
    return joined


def _exact_fit(ds: BinDataset, scope: Scope, class_search, mode: str,
               limits: SearchLimits | None, progress) -> SolveOutcome:
    """class_search(scope, clock, progress) on the call's clock, after
    checking the scope and the data; in aggregated scope per class, joined."""
    clock = _Clock(limits or SearchLimits())
    scope.validate(len(ds.classes))
    _check_consistent(ds)
    if scope.is_aggregated:
        return _search_each_class(ds, class_search, mode, clock, progress)
    return class_search(scope, clock, progress)


def _exact_search(ds: BinDataset, scope: Scope, mode: str, n0: int | None, clock: _Clock,
                  progress) -> SolveOutcome:
    """The node search of minimize_perfect (mode "perfect", which takes no
    n0) and minimize_bounded (mode "bounded") in scope, over data that
    _exact_fit checked.  A timeout returns the best model so far as
    "feasible"."""
    perfect = mode == "perfect"
    if perfect and n0 is not None:
        raise OptimizerError("a perfect search starts at one node and takes no first budget")
    n = 1 if perfect else first_budget(ds, scope, mode, n0)
    solver = Solver()
    enc = Encoder(ds, scope, mode, solver)
    vm = enc.vm
    sat, unsat = ("sat", "unsat") if perfect else ("optimal", "infeasible")
    guard = None
    floor = -1

    def solve_round(n, clock):
        nonlocal guard, floor
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
        rnd = _Round(status)
        if status == unsat:
            # the optimum is above n; a bounded round at the greedy size has a model
            rnd.next = n + 1 if perfect else _greedy_budget(ds, scope, MAX_NODES)
        if best is not None:
            cost = best.total_size
            best.metadata = {"mode": mode, "scope": scope.kind, "objective": cost}
            if status == "timeout":
                rnd.found = SolveOutcome(status="feasible", decision_set=best, objective=cost)
            else:
                rnd.found = SolveOutcome(status="optimal", decision_set=_verified(best, ds, scope),
                                         objective=cost)
        return rnd

    return _search_budgets(clock, n, progress, solve_round)


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
    return _exact_fit(ds, scope, lambda scope, clock, progress: _exact_search(
        ds, scope, "perfect", None, clock, progress), "perfect", limits, progress)


def minimize_bounded(ds: BinDataset, scope: Scope, n0: int | None = None,
                     limits: SearchLimits | None = None, progress=None) -> SolveOutcome:
    """Exact fit within a node budget, minimizing the used-node count.

    Without n0 the budget is the greedy one of first_budget: below its
    cap the first round has a model and ends optimal.  After a budget too
    small for any exact fit, the last round runs at the greedy set's size,
    capped only at MAX_NODES.  A round's first solve gives an anytime
    model, and the climb of _exact_search proves or improves it.  In
    aggregated scope n0 is each class's first budget.
    """
    return _exact_fit(ds, scope, lambda scope, clock, progress: _exact_search(
        ds, scope, "bounded", n0, clock, progress), "bounded", limits, progress)


def minimize_sparse(ds: BinDataset, scope: Scope, lam, n0: int | None = None,
                    limits: SearchLimits | None = None, progress=None) -> SolveOutcome:
    """Minimize misclassification weight plus lambda-scaled node count.

    The hard clauses are always satisfiable (flag everything as
    misclassified, use no node), so the budget only caps the searchable
    size.  Every node costs lambda_cost, so a set cheaper than a round's
    optimum C uses at most B = (C - 1) // lambda_cost nodes.  If B <= n,
    the round's budget, C is optimal; otherwise the next round runs at B,
    capped at MAX_NODES, and at B its optimum is certified.
    """
    return _sparse_search(ds, scope, lam, n0, _Clock(limits or SearchLimits()), progress)


def _sparse_search(ds: BinDataset, scope: Scope, lam, n0: int | None, clock: _Clock,
                   progress) -> SolveOutcome:
    """The search of minimize_sparse, on clock."""
    scope.validate(len(ds.classes))
    lam_cost = lam_to_cost(lam, ds.total_weight)

    def solve_round(n, clock):
        solver = Solver()
        enc = Encoder(ds, scope, "sparse", solver, lam_cost)
        if not enc.build(n, clock.expired):
            return _Round("timeout")
        soft = enc.soft()
        res = _descend(solver, soft, _falsified(soft), clock, progress, n=n)
        rnd = _Round(res.status)
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

    return _search_budgets(clock, first_budget(ds, scope, "sparse", n0), progress, solve_round)
