"""Differential and behavioral tests for the CDCL solver.

The ground truth throughout is exhaustive model enumeration from
oracles.py, so these tests do not assume anything about the solver's
internals beyond its public contract.
"""

import random
import time

import pytest

from oracles import all_models, code_satisfies, is_satisfiable, php_clauses, solve_dpll
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


def build_solver(nv, clauses):
    s = Solver()
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
