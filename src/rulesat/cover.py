"""Exact fit by prime rules and a weighted set cover: minimize_exact_fit.

An exact fit splits by class (see the optimizer docstring), and every
rule of a minimum-size class-c set is prime: its body is part of some
class-c vector's literals, it covers no vector of another class, and
dropping any literal makes it cover one, since a rule that could drop a
literal would cover more and cost less.  So the class-c optimum is the
cheapest cover of the class-c vectors by prime rules, a rule costing its
size, |body| + 1 (Ignatiev, Lam, Stuckey and Marques-Silva, "A Scalable
Two Stage Approach to Computing Optimal Decision Sets", AAAI 2021).
Each class runs two stages, on distinct vectors held as bit masks.

Stage 1 lists the primes.  A prime of a class-c vector v is a minimal
hitting set of v's disagreement sets {f : v_f != o_f}, one per vector o
of another class.  A Solver per vector holds one clause per disagreement
set over the variables "feature f is in the body".  Each model shrinks to
a minimal hitting set, and a clause then blocks its supersets, until the
solver answers UNSAT: every hitting set then holds a listed prime.  A
prime listed for an earlier vector that covers v is a prime of v as well,
so it is blocked before v's first solve.  The clock is checked before
each vector.  Then a rule is dropped when another covers a superset of
its vectors at no higher cost (dominance): a cover can use that one.

Stage 2 solves the weighted set cover: per class-c vector a hard clause
"a rule that covers it is chosen", per rule a soft clause "not chosen"
weighted by its cost.  optimizer._descend runs it, its first solve trying
a greedy weighted cover, so the first model is that cover and the
descent starts from its cost.

Stage 1 out of time is a timeout with no set; stage 2 out of time keeps
its best cover, "feasible".  Every set returned passes _verified.
minimize_exact_fit is one call of optimizer._exact_fit, the driver that
also runs the node searches: it builds the call's clock, checks the
scope and the data, and splits an aggregated fit by class.  _cover_class,
the search of one class, runs on its caller's clock, in aggregated scope
and in the CLI a share of it (optimizer._Clock.share).
"""

from __future__ import annotations

from functools import partial

from .dataset import BinDataset
from .encoder import Scope
from .model import DecisionSet, Rule
from .optimizer import SearchLimits, SolveOutcome, _Clock, _descend, _exact_fit, _verified
from .solver import SolveBudgetExceeded, Solver


def _mask(bits) -> int:
    return sum(bit << f for f, bit in enumerate(bits))


def _variables(features: int) -> list[int]:
    """The variables 1.. of the features in a mask."""
    return [f + 1 for f in range(features.bit_length()) if features >> f & 1]


def _prime_rules(own, others, clock: _Clock) -> list[tuple[int, int]]:
    """Stage 1: every prime rule, as (features, values) masks, of the
    vectors own against the vectors others."""
    primes: dict[tuple[int, int], None] = {}  # in the order found
    for v in own:
        if clock.expired():
            raise SolveBudgetExceeded
        disagree = {v ^ o for o in others}
        solver = Solver()
        for d in disagree:
            solver.add_clause(_variables(d))
        for features, values in primes:
            if v & features == values:
                solver.add_clause([-x for x in _variables(features)])
        while clock.solve(solver, ()):
            body = sum(1 << (x - 1) for x in solver.model.true_vars())
            for f in range(body.bit_length()):  # one pass leaves a minimal set
                bit = 1 << f
                if body & bit and all(body & ~bit & d for d in disagree):
                    body ^= bit
            primes[(body, v & body)] = None
            solver.add_clause([-x for x in _variables(body)])
    return list(primes)


def _undominated(rules):
    """The (cover, cost, rule) triples, in their order, that no other
    covers a superset of at no higher cost; of equal ones the first.  The
    check visits larger covers first, so a rule's dominators come before
    it."""
    kept = []
    for x in sorted(range(len(rules)), key=lambda x: (-rules[x][0].bit_count(), rules[x][1])):
        cover, cost, _ = rules[x]
        if not any(rules[y][1] <= cost and not cover & ~rules[y][0] for y in kept):
            kept.append(x)
    return [rules[x] for x in sorted(kept)]


def _greedy_cover(kept, uncovered: int) -> set[int]:
    """Indices of a weighted greedy cover: the rule of most newly covered
    vectors per unit of cost, until none is left."""
    picked = set()
    while uncovered:
        x = max(range(len(kept)), key=lambda x: (kept[x][0] & uncovered).bit_count() / kept[x][1])
        picked.add(x)
        uncovered &= ~kept[x][0]
    return picked


def _cover_class(ds: BinDataset, scope: Scope, clock: _Clock, progress) -> SolveOutcome:
    """Both stages for the class scope.target, on clock; see the module
    docstring."""
    own = sorted({_mask(bits) for bits, cls, _ in ds.examples if cls == scope.target})
    others = {_mask(bits) for bits, cls, _ in ds.examples if cls != scope.target}
    mark = clock.counts()
    stage_stats = {}

    def outcome(status, rules=None, cost=None):
        stats = {**clock.counts(since=mark), **stage_stats, "elapsed": clock.elapsed()}
        if rules is None:
            return SolveOutcome(status=status, stats=stats)
        dset = DecisionSet(rules=rules, classes=list(ds.classes), total_size=cost,
                           metadata={"mode": "exact_fit", "scope": scope.kind, "objective": cost})
        return SolveOutcome(status=status, decision_set=_verified(dset, ds, scope),
                            objective=cost, stats=stats)

    try:
        primes = _prime_rules(own, others, clock)
    except SolveBudgetExceeded:
        return outcome("timeout")
    rules = []
    for features, values in primes:
        cover = sum(1 << i for i, v in enumerate(own) if v & features == values)
        body = tuple((f, bool(values >> f & 1)) for f in range(features.bit_length())
                     if features >> f & 1)
        rules.append((cover, len(body) + 1, Rule(body, scope.target)))
    kept = _undominated(rules)
    stage_stats.update(primes=len(primes), kept=len(kept))
    if progress is not None:
        progress({"event": "primes", "primes": len(primes), "kept": len(kept),
                  "elapsed": clock.elapsed()})
    if not own:  # nothing to cover: the empty set
        return outcome("optimal", [], 0)
    solver = Solver()
    solver.ensure_vars(len(kept))
    for i in range(len(own)):
        solver.add_clause([x + 1 for x, (cover, _, _) in enumerate(kept) if cover >> i & 1])
    picked = _greedy_cover(kept, (1 << len(own)) - 1)
    res = _descend(solver, [([-(x + 1)], cost) for x, (_, cost, _) in enumerate(kept)],
                   [x + 1 if x in picked else -(x + 1) for x in range(len(kept))],
                   clock, progress)
    stage_stats["models"] = res.stats["models"]
    if res.assignment is None:
        return outcome(res.status)
    chosen = [rule for x, (_, _, rule) in enumerate(kept) if res.assignment.value(x + 1)]
    return outcome("optimal" if res.status == "optimal" else "feasible", chosen, res.cost)


def minimize_exact_fit(ds: BinDataset, scope: Scope, limits: SearchLimits | None = None,
                       progress=None) -> SolveOutcome:
    """Smallest exact-fit decision set, by prime rules and a weighted set
    cover per class (see the module docstring), through the exact-fit
    driver optimizer._exact_fit: in aggregated scope each class's search
    in turn, joined.

    A per-class target with no example gets the empty set, where the node
    encodings insist on one rule that covers nothing.  A progress record
    follows stage 1 of each class ("event": "primes", with the primes
    listed and the rules kept after dominance), and an "event": "model"
    record each improved cover.
    """
    return _exact_fit(ds, scope, partial(_cover_class, ds), "exact_fit", limits, progress)
