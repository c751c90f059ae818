"""Search drivers: one exact search over node budgets, and MaxSAT.

minimize_perfect and minimize_bounded run one exact search
(_exact_search) that grows one encoding on one solver through its node
budgets.  A round solves under the guard of the ending Encoder.build
writes at its budget, and the next round retires it, so the clauses
learnt on the smaller budgets carry over.  Before any round,
_prime_facts finds by the prime rules, with no solver and with the
enumerator of cover's stage 1 (_primes), a lower bound that proves every
budget below it infeasible, and two facts every exact fit obeys: the
pairs of class rows that no one rule can cover, and the fewest literals
of a rule that covers each row.  The search's Encoder writes both facts
as clauses at every node it builds (Encoder._implied), which cut no
exact fit and add no variable, so no solve rediscovers them by
conflict.  Where a greedy choice of one smallest prime per vector the
bound counts covers every class row, that witness is an exact fit of
the bound's size, so the bound is the optimum; the first round, at a
budget of at least the bound, then starts its solve from the witness's
phases (_lay_out) and meets no conflict.  A bound above MAX_NODES ends
the search with no round.  The used count u of a round's first model
bounds the optimum from above.  The unused flags form a
suffix, so "at most c used nodes" is the single assumption unused_{c+1},
and the round climbs c from floor + 1 to u - 1, where floor is the
largest budget the lower bound or an earlier round proved infeasible:
the first satisfiable c is the optimum, with no cost counter, and a
first model at the bound is optimal with no climb.  minimize_perfect
runs it on the perfect encoding from the lower bound up (at least 1),
one node per round, also assuming that the last node is a leaf, so its
first satisfiable budget is minimal and no round climbs; where the
bound is tight, no round is unsatisfiable.  minimize_bounded starts,
unless given a budget, from the size of an exact-fit decision set that a
greedy pass over the data builds (_greedy_budget), capped at
default_node_budget: below the cap its first round has a model and ends
optimal.  A first budget below the lower bound is raised to it.  After
an infeasible round, the next and last one runs at the greedy set's full
size.  A round's first model is an anytime answer within its budget.

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


def _mask(bits) -> int:
    return sum(bit << f for f, bit in enumerate(bits))


class _PrimeFacts:
    """What the prime rules of one class prove, without a solver, about
    each of its exact-fit sets, on its rows (1-based example ids)."""

    def __init__(self, bound: int = 0, apart=(), shortest=(), witness=None):
        self.bound = bound  # a lower bound on the set's size
        self.apart = apart  # row pairs (a, b), a < b, that no rule covers both of
        self.shortest = shortest  # (r, rows): a rule covering one of rows has >= r literals
        self.witness = witness  # the rules of an exact fit of size bound, or None


def _prime_facts(ds: BinDataset, scope: Scope, clock: _Clock) -> _PrimeFacts:
    """The prime-rule facts of the class scope.target; a bound of 0 for a
    class with no example.  Once the clock has expired it stops with
    SolveBudgetExceeded.  A vector's rule size is counted only up to
    MAX_NODES + 1.

    On distinct vectors as bit masks: a rule that covers a class-c vector
    v covers no vector of another class, so its body holds a set of v's
    literals on which v differs from each of them.  Its size is at least
    s(v), 1 plus the fewest such features: v's smallest prime body, the
    first prime _primes yields when held to 0, 1, 2, ... features.  Two
    class-c vectors can share a rule only if the features they agree on
    separate them from every other-class vector.  A greedy pass, larger
    s(v) first and then fewer vectors to share with, keeps vectors no two
    of which can share a rule; each needs its own rule, so the bound is
    the sum of their s(v) (the prime-rule argument of Ignatiev, Lam,
    Stuckey and Marques-Silva, AAAI 2021; see cover).  The pairs apart
    are those of rows whose vectors cannot share a rule, one of them
    kept: O(kept * rows) pairs, not all of them.

    The witness takes for each kept vector, in ascending s(v), the one of
    its smallest primes that covers the most class rows not yet covered.
    Its size is the bound, so if it covers every class row it is an
    optimal exact fit: no set is smaller than the bound.  It is then
    returned as rules in that order, each body in feature order; else,
    and for a bound above MAX_NODES, the witness is None.
    """
    rows: dict[int, list[int]] = {}
    others = set()
    for i, (bits, cls, _) in enumerate(ds.examples, start=1):
        if cls == scope.target:
            rows.setdefault(_mask(bits), []).append(i)
        else:
            others.add(_mask(bits))
    own = sorted(rows)
    sizes, sharers, disagree = [], [set() for _ in own], []
    for x, v in enumerate(own):
        if clock.expired():
            raise SolveBudgetExceeded
        sets = _disagreements(v, others)
        disagree.append(sets)
        # past the node cap no round could fit v's rule, so the search stops there
        r = 0
        while r < MAX_NODES and next(_primes(sets, clock, r), None) is None:
            r += 1
        sizes.append(r + 1)
        # v and w can share a rule iff the features they agree on meet each
        # of v's disagreement sets; then they meet w's as well
        for y, w in enumerate(own[:x]):
            if all(d & ~(v ^ w) for d in sets):
                sharers[x].add(y)
                sharers[y].add(x)
    kept = set()
    for x in sorted(range(len(own)), key=lambda x: (-sizes[x], len(sharers[x]))):
        if kept.isdisjoint(sharers[x]):
            kept.add(x)
    apart = {(min(a, b), max(a, b)) for x in kept for y, w in enumerate(own)
             if y != x and y not in sharers[x] for a in rows[own[x]] for b in rows[w]}
    shortest: dict[int, list[int]] = {}
    for x, v in enumerate(own):
        if sizes[x] > 1:
            shortest.setdefault(sizes[x] - 1, []).extend(rows[v])
    bound = sum(sizes[x] for x in kept)
    witness = None
    if bound <= MAX_NODES:
        witness = []
        left = set(own)  # the vectors no witness rule covers yet
        for x in sorted(kept, key=lambda x: (sizes[x], x)):
            v, best, gain = own[x], 0, -1
            for body in _primes(disagree[x], clock, sizes[x] - 1):
                hit = sum(len(rows[w]) for w in left if (w ^ v) & body == 0)
                if hit > gain:
                    best, gain = body, hit
            left = {w for w in left if (w ^ v) & best}
            witness.append(Rule(tuple((f, bool(v >> f & 1)) for f in range(best.bit_length())
                                      if best >> f & 1), scope.target))
        if left:
            witness = None
    return _PrimeFacts(bound, sorted(apart), sorted(shortest.items()), witness)


def _disagreements(v: int, others) -> list[int]:
    """The minimal disagreement sets of the vector v against the vectors
    others, as feature masks, fewest features first: a feature set meets
    every v ^ o iff it meets these."""
    sets = []
    for d in sorted({v ^ o for o in others}, key=int.bit_count):
        if not any(s & d == s for s in sets):
            sets.append(d)
    return sets


def _primes(sets, clock: _Clock, most):
    """Yield, each exactly once, the minimal hitting sets of the masks sets
    that have no more than most features.  Once the clock has expired it
    stops with SolveBudgetExceeded; it checks at each node that branches.

    A node branches on the features of the first set its chosen features
    miss, each branch banning the ones tried before it, so no two
    branches reach the same set, and every minimal one is reached by
    following its own features.  A set that meets them all is yielded if
    each of its features alone meets some set: then none can be dropped.
    The search runs on an explicit stack, so its depth is not bound by
    Python's recursion limit."""
    stack = [(0, 0, most)]  # (chosen, banned, features left to add)
    while stack:
        chosen, banned, left = stack.pop()
        for d in sets:
            if not d & chosen:
                break
        else:
            alone = 0  # the features that alone meet some set
            for d in sets:
                met = d & chosen
                if not met & (met - 1):
                    alone |= met
            if alone == chosen:
                yield chosen
            continue
        if not left:
            continue
        if clock.expired():
            raise SolveBudgetExceeded
        free = d & ~banned
        while free:  # the highest feature first, so the lowest is searched first
            bit = 1 << (free.bit_length() - 1)
            free ^= bit
            stack.append((chosen | bit, banned | free, left - 1))


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


def _lay_out(solver: Solver, vm, rules, n: int) -> None:
    """Give solver's first decisions the phases of the set rules on the
    first of vm's n nodes: each rule's features in ascending order, then
    its leaf, every node's selectors and truth; in bounded mode the nodes
    past them unused.  The validities and coverage auxiliaries follow by
    propagation, so a solver branching in id order meets no conflict."""
    nodes = []  # (selected feature, 1-based with k + 1 the leaf, truth)
    for rule in rules:
        nodes += [(f + 1, positive) for f, positive in rule.body]
        nodes.append((vm.n_features + 1, True))
    for j in range(1, n + 1):
        chosen, positive = nodes[j - 1] if j <= len(nodes) else (0, False)
        for r in range(1, vm.n_features + 2):
            sel = vm.select_var(j, r)
            solver.set_phase(sel if r == chosen else -sel)
        solver.set_phase(vm.truth_var(j) if positive else -vm.truth_var(j))
        if vm.has_unused:
            solver.set_phase(vm.unused_var(j) if j > len(nodes) else -vm.unused_var(j))


def _exact_search(ds: BinDataset, scope: Scope, mode: str, n0: int | None, clock: _Clock,
                  progress) -> SolveOutcome:
    """The node search of minimize_perfect (mode "perfect", which takes no
    n0 and starts at the lower bound) and minimize_bounded (mode
    "bounded", which starts at n0 or its default, raised to the lower
    bound) in scope, over data that _exact_fit checked.  Its Encoder
    writes the facts of _prime_facts at every node, and the first round
    lays out their witness, if any (_lay_out); a lower bound above
    MAX_NODES ends the search with no round.  The stats carry the bound
    as "lower_bound".  A timeout returns the best model so far as
    "feasible"."""
    perfect = mode == "perfect"
    if perfect and n0 is not None:
        raise OptimizerError("a perfect search starts at its lower bound and takes no first budget")
    try:
        facts = _prime_facts(ds, scope, clock)
    except SolveBudgetExceeded:  # past the deadline the first round times out unstarted
        facts = _PrimeFacts()
    bound = facts.bound
    n = 1 if perfect else first_budget(ds, scope, mode, n0)
    if 1 <= n <= MAX_NODES < bound:  # no budget within the cap can hold a set
        return SolveOutcome(status="timeout", stats={
            **dict.fromkeys(clock.tally, 0), "elapsed": clock.elapsed(), "rounds": [],
            "note": "node cap %d reached" % MAX_NODES, "lower_bound": bound})
    if 1 <= n:  # a first budget out of range is the error of _search_budgets
        n = max(n, bound)
    solver = Solver()
    enc = Encoder(ds, scope, mode, solver, apart=facts.apart, shortest=facts.shortest)
    vm = enc.vm
    sat, unsat = ("sat", "unsat") if perfect else ("optimal", "infeasible")
    guard = None
    floor = bound - 1  # the largest budget proven infeasible
    witness = facts.witness  # laid out for the first round, which runs at n >= bound

    def solve_round(n, clock):
        nonlocal guard, floor, witness
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
            if witness:
                _lay_out(solver, vm, witness, n)
                witness = None
            status = unsat
            if clock.solve(solver, [vm.class_sel_var(n), guard] if perfect else [guard]):
                status = sat
                improved(solver.model)
                for c in range(floor + 1, best.total_size) if not perfect else ():
                    if clock.solve(solver, [guard, vm.unused_var(c + 1)]):
                        improved(solver.model)
                        break
            else:
                floor = max(floor, n)
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

    outcome = _search_budgets(clock, n, progress, solve_round)
    outcome.stats["lower_bound"] = bound
    return outcome


def minimize_perfect(ds: BinDataset, scope: Scope, limits: SearchLimits | None = None,
                     progress=None) -> SolveOutcome:
    """Smallest exact-fit decision set by trying node counts b, b + 1,
    b + 2, ..., where b is the class's lower bound (_prime_facts), at
    least 1.

    Sizes below b need no solve, and the sizes from b below the answer
    are proven UNSAT along the way, so the first satisfiable size is the
    minimum; no binary search is attempted since the UNSAT proofs at n-1
    are the expensive part and would be repeated.  The rounds grow one
    perfect encoding on one solver (_exact_search), by one node each, so
    every clause learnt on a smaller size carries over to the larger
    ones.  Where _prime_facts finds a witness, the bound is the optimum,
    and the one round, at b, solves from the witness's phases.  The stats
    report the bound as "lower_bound", in aggregated scope the sum over
    the classes.
    """
    return _exact_fit(ds, scope, lambda scope, clock, progress: _exact_search(
        ds, scope, "perfect", None, clock, progress), "perfect", limits, progress)


def minimize_bounded(ds: BinDataset, scope: Scope, n0: int | None = None,
                     limits: SearchLimits | None = None, progress=None) -> SolveOutcome:
    """Exact fit within a node budget, minimizing the used-node count.

    Without n0 the budget is the greedy one of first_budget: below its
    cap the first round has a model and ends optimal.  The first budget,
    n0 or the greedy one, is raised to the class's lower bound
    (_prime_facts) when it is below it.  After a budget too small for any
    exact fit, the last round runs at the greedy set's size, capped only
    at MAX_NODES.  A round's first solve gives an anytime model, and the
    climb of _exact_search proves or improves it.  Where _prime_facts
    finds a witness, the first solve starts from its phases, with every
    node past it unused, so its model has the bound's size and the round
    ends optimal with no climb.  In aggregated scope n0 is each class's
    first budget.
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
