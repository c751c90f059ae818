"""Reference implementations the test suite trusts.

Everything here recomputes answers by exhaustive enumeration with no
help from the package's solver, encoders, or search drivers, so any
agreement between the two sides is meaningful.
"""

from heapq import heappop, heappush
from itertools import product

import numpy as np

from rulesat.optimizer import OptimizerError, _check_consistent


def all_models(num_vars, clauses):
    """Indices (bit codes) of all satisfying assignments, bit v of a code
    being the value of variable v+1.  Exponential: num_vars <= 20."""
    assert num_vars <= 20
    codes = np.arange(1 << num_vars, dtype=np.uint32)
    ok = np.ones(codes.shape, dtype=bool)
    for clause in clauses:
        sat = np.zeros(codes.shape, dtype=bool)
        for lit in clause:
            bit = (codes >> (abs(lit) - 1)) & 1
            sat |= bit.astype(bool) if lit > 0 else ~bit.astype(bool)
        ok &= sat
    return codes[ok]


def is_satisfiable(num_vars, clauses):
    return all_models(num_vars, clauses).size > 0


def brute_min_cost(num_vars, hard, soft):
    """Exhaustive minimum falsified soft weight, or None when the hard
    clauses cannot be satisfied."""
    models = all_models(num_vars, hard)
    if models.size == 0:
        return None
    cost = np.zeros(models.shape, dtype=np.int64)
    for clause, weight in soft:
        sat = np.zeros(models.shape, dtype=bool)
        for lit in clause:
            bit = (models >> (abs(lit) - 1)) & 1
            sat |= bit.astype(bool) if lit > 0 else ~bit.astype(bool)
        cost += weight * (~sat)
    return int(cost.min())


def code_satisfies(code, clause):
    return any((code >> (abs(l) - 1)) & 1 == (1 if l > 0 else 0) for l in clause)


def php_clauses(pigeons, holes):
    """Pigeonhole principle: pigeons into holes, one var per pair."""
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def _scope_bits(ds, scope):
    if scope.is_aggregated:
        return [cls for _, cls, _ in ds.examples]
    return [1 if cls == scope.target else 0 for _, cls, _ in ds.examples]


def sequence_min_size(ds, scope, cap):
    """Minimal node-sequence length fitting the data exactly, by literal
    depth-first search over sequences, re-simulating validity node by
    node.  Independent of both the CNF encoding and the rule-shape
    search.  Exponential: use only with cap <= 6 or so."""
    bits = _scope_bits(ds, scope)
    m = ds.num_examples
    required = frozenset(
        i for i in range(m) if scope.is_aggregated or bits[i] == 1
    )
    vectors = [ex[0] for ex in ds.examples]
    leaf_polarities = (0, 1) if scope.is_aggregated else (1,)

    def dfs(remaining, valid, covered):
        # the sequence must end with a leaf, so a lone position is a leaf
        for pol in leaf_polarities:
            hit = [i for i in range(m) if valid[i]]
            if all(bits[i] == pol for i in hit):
                now_covered = covered | {i for i in hit if i in required}
                if now_covered == required:
                    return True
                if remaining > 1 and dfs(remaining - 1, (True,) * m, now_covered):
                    return True
        if remaining == 1:
            return False
        for feature in range(ds.num_features):
            for pol in (0, 1):
                nxt = tuple(valid[i] and vectors[i][feature] == pol for i in range(m))
                if dfs(remaining - 1, nxt, covered):
                    return True
        return False

    for length in range(1, cap + 1):
        if dfs(length, (True,) * m, frozenset()):
            return length
    return None


def _candidate_rules(ds, scope):
    """All distinct rule shapes as (match bitmask, head, size)."""
    heads = (0, 1) if scope.is_aggregated else (1,)
    out = []
    for shape in product((None, 0, 1), repeat=ds.num_features):
        size = sum(1 for s in shape if s is not None) + 1
        match = 0
        for i, (vec, _, _) in enumerate(ds.examples):
            if all(s is None or vec[f] == s for f, s in enumerate(shape)):
                match |= 1 << i
        for head in heads:
            out.append((match, head, size))
    return out


def _min_cover(goal, moves):
    """Dijkstra: cheapest total size of moves whose masks union to goal."""
    if goal == 0:
        return 0
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, mask = heappop(heap)
        if mask == goal:
            return d
        if d > dist.get(mask, 1 << 30):
            continue
        for cover, cost in moves:
            nxt = mask | (cover & goal)
            nd = d + cost
            if nxt != mask and nd < dist.get(nxt, 1 << 30):
                dist[nxt] = nd
                heappush(heap, (nd, nxt))
    return None


def sparse_min_objective(ds, scope, lam_cost):
    """Exact minimum of (misclassified weight + lam_cost * total size)
    over every possible decision set.

    Enumerates the set X of examples allowed to be misclassified; the
    rest must be correctly handled, which reduces to a cheapest cover by
    rules that never touch a protected example of another class.
    Exponential in the example count: M <= 6 or so.
    """
    bits = _scope_bits(ds, scope)
    m = ds.num_examples
    weights = [w for _, _, w in ds.examples]
    rules = _candidate_rules(ds, scope)
    best = None
    for x_mask in range(1 << m):
        penalty = sum(weights[i] for i in range(m) if x_mask >> i & 1)
        if best is not None and penalty >= best:
            continue
        need = 0
        for i in range(m):
            if x_mask >> i & 1:
                continue
            relevant = scope.is_aggregated or bits[i] == 1
            if relevant:
                need |= 1 << i
        moves = []
        for match, head, size in rules:
            clash = False
            for i in range(m):
                if match >> i & 1 and not x_mask >> i & 1 and bits[i] != head:
                    clash = True
                    break
            if not clash:
                moves.append((match, size * lam_cost))
        cover = _min_cover(need, moves)
        if cover is None:
            continue
        objective = penalty + cover
        if best is None or objective < best:
            best = objective
    return best


def solve_dpll(num_vars, clauses):
    """Plain DPLL with unit propagation and no clause learning.

    Reference configuration for differential tests; exponential, intended
    for formulas of at most ~20 variables.
    """
    clauses = [tuple(c) for c in clauses]

    def rec(assign):
        while True:
            unit = 0
            for clause in clauses:
                unassigned = 0
                sat = False
                for lit in clause:
                    val = assign.get(abs(lit))
                    if val is None:
                        if unassigned == 0:
                            unassigned = lit
                        else:
                            unassigned = None
                            break
                    elif val == (lit > 0):
                        sat = True
                        break
                if sat:
                    continue
                if unassigned == 0:
                    return None  # falsified clause
                if unassigned is not None:
                    unit = unassigned
                    break
            if unit == 0:
                break
            assign[abs(unit)] = unit > 0
        branch = 0
        for v in range(1, num_vars + 1):
            if v not in assign:
                branch = v
                break
        if branch == 0:
            return [assign.get(v, False) for v in range(1, num_vars + 1)]
        for phase in (False, True):
            child = dict(assign)
            child[branch] = phase
            res = rec(child)
            if res is not None:
                return res
        return None

    return rec({})


def oracle_min_size(ds, scope, cap):
    """Exhaustive reference search for the minimal exact-fit size.

    Enumerates every rule shape (each feature positive, negated, or
    absent, plus a head) directly against the validity semantics, then
    takes a cheapest cover of the scope-relevant examples.  Exponential
    in the feature count: limited to 8 examples and 4 features.
    """
    scope.validate(len(ds.classes))
    if ds.num_examples < 1:
        raise OptimizerError("oracle needs at least one example")
    if ds.num_examples > 8 or ds.num_features > 4:
        raise OptimizerError("oracle is limited to 8 examples and 4 features")
    if cap < 1:
        raise OptimizerError("cap must be >= 1")
    _check_consistent(ds)
    m, k = ds.num_examples, ds.num_features
    if scope.is_aggregated:
        bits = [cls for _, cls, _ in ds.examples]
        heads = (0, 1)
    else:
        bits = [1 if cls == scope.target else 0 for _, cls, _ in ds.examples]
        heads = (1,)
    required = 0
    for i, b in enumerate(bits):
        if not scope.is_aggregated and b != 1:
            continue
        if scope.is_aggregated or b == 1:
            required |= 1 << i
    candidates = {}  # cover mask -> min cost

    def offer(cover, cost):
        old = candidates.get(cover)
        if old is None or cost < old:
            candidates[cover] = cost

    for shape in product((None, 1, 0), repeat=k):
        size = sum(1 for s in shape if s is not None) + 1
        match = 0
        for i, (vec, _, _) in enumerate(ds.examples):
            if all(s is None or vec[f] == s for f, s in enumerate(shape)):
                match |= 1 << i
        for head in heads:
            head_bit = head if scope.is_aggregated else 1
            ok = True
            for i in range(m):
                if match >> i & 1 and bits[i] != head_bit:
                    ok = False
                    break
            if ok:
                offer(match & required, size)
    if k >= 1:
        offer(0, 3)  # contradictory body, covers nothing, always admissible
    if not candidates:
        return None  # no rule avoids wrong coverage, no sequence is valid
    if required == 0:
        answer = min(candidates.values())
        return answer if answer <= cap else None
    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, mask = heappop(heap)
        if mask == required:
            return d if d <= cap else None
        if d > dist.get(mask, 1 << 30) or d >= cap:
            continue
        for cover, cost in candidates.items():
            nxt = mask | cover
            nd = d + cost
            if nxt != mask and nd < dist.get(nxt, 1 << 30) and nd <= cap:
                dist[nxt] = nd
                heappush(heap, (nd, nxt))
    return None


def _row_literals(bits):
    """The literals a row makes true: (feature, polarity) per feature."""
    return {(f, b == 1) for f, b in enumerate(bits)}


def evaluate_rows(rules, model_classes, ds, separated):
    """Score a decision set row by row, as a dict of EvalReport fields.

    A rule covers a row when its body is a subset of the row's true
    literals, so contradictory bodies cover nothing and empty bodies
    cover everything.  Heads are mapped to dataset classes by label.
    """
    total = errors = sep = 0
    outcomes = []
    for bits, cls, weight in ds.examples:
        row = _row_literals(bits)
        heads = set()
        for rule in rules:
            if set(rule.body) <= row:
                heads.add(ds.classes.index(model_classes[rule.head]))
        wrong = len(heads - {cls})
        own = cls in heads
        outcome = ("wrong-class-covered" if wrong
                   else "correct" if own else "non-classified")
        outcomes.append(outcome)
        total += weight
        if outcome != "correct":
            errors += weight
        sep += weight * (wrong + (0 if own else 1))
    return {
        "num_examples": total,
        "errors": errors,
        "accuracy": 100.0 * (total - errors) / total if total else 100.0,
        "per_example": outcomes,
        "separated_errors": sep if separated else None,
    }


def first_violation(rules, ds, scope):
    """The first exact-fit violation in row order, then rule order, or None."""
    for i, (bits, cls, _) in enumerate(ds.examples):
        row = _row_literals(bits)
        covering = [ri for ri, rule in enumerate(rules) if set(rule.body) <= row]
        for ri in covering:
            if rules[ri].head != cls:
                return ("wrong-cover", i, ri)
        needs_cover = scope.is_aggregated or cls == scope.target
        if needs_cover and not covering:
            return ("uncovered", i, None)
    return None
