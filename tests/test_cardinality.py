"""Totalizer checks by brute force over all input assignments."""

import itertools

import pytest

from oracles import all_models
from rulesat.cardinality import build_totalizer
from rulesat.formula import FormulaError
from rulesat.solver import Solver


def totalizer_on_fresh_solver(n):
    s = Solver()
    s.ensure_vars(n)
    handle = build_totalizer(s, list(range(1, n + 1)))
    return s, handle


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_outputs_are_exact_unary_counter(n):
    """In every model, output t is true iff at least t inputs are true."""
    s, handle = totalizer_on_fresh_solver(n)
    for bits in itertools.product([False, True], repeat=n):
        assumptions = [v if bits[v - 1] else -v for v in range(1, n + 1)]
        assert s.solve(assumptions=assumptions) is True
        count = sum(bits)
        for t in range(1, n + 1):
            expected = t <= count
            assert s.model.lit_true(handle.count_geq(t)) == expected


@pytest.mark.parametrize("n,k", [(4, 0), (4, 1), (4, 2), (4, 3), (5, 2)])
def test_at_most_assumptions_bound_counts(n, k):
    s, handle = totalizer_on_fresh_solver(n)
    assumptions = handle.at_most_assumptions(k)
    # every count <= k stays reachable, every count > k becomes UNSAT
    for count in range(n + 1):
        fixing = [v if v <= count else -v for v in range(1, n + 1)]
        sat = s.solve(assumptions=assumptions + fixing)
        assert sat == (count <= k)


def test_at_most_with_slack_bound_is_empty():
    s, handle = totalizer_on_fresh_solver(3)
    assert handle.at_most_assumptions(3) == []
    assert handle.at_most_assumptions(7) == []
    with pytest.raises(FormulaError):
        handle.at_most_assumptions(-1)


def test_duplicate_inputs_count_multiplicity():
    s = Solver()
    s.ensure_vars(1)
    handle = build_totalizer(s, [1, 1])
    assert s.solve(assumptions=[1]) is True
    assert s.model.lit_true(handle.count_geq(2))
    assert s.solve(assumptions=[1] + handle.at_most_assumptions(1)) is False


def test_negative_literal_inputs():
    s = Solver()
    s.ensure_vars(2)
    handle = build_totalizer(s, [-1, -2])
    assert s.solve(assumptions=[-1, 2]) is True
    assert s.model.lit_true(handle.count_geq(1))
    assert not s.model.lit_true(handle.count_geq(2))


def test_empty_input_rejected():
    with pytest.raises(FormulaError):
        build_totalizer(Solver(), [])


def test_bool_input_rejected():
    s = Solver()
    s.ensure_vars(2)
    with pytest.raises(FormulaError):
        build_totalizer(s, [True, 2])


def test_clause_side_conditions_via_enumeration():
    """Full model check without the solver: every model of the emitted
    clauses keeps outputs consistent with the input count."""

    class ListSink:
        def __init__(self, n):
            self.num_vars = n
            self.clauses = []

        def new_var(self):
            self.num_vars += 1
            return self.num_vars

        def add_clause(self, lits):
            self.clauses.append(list(lits))

    n = 4
    sink = ListSink(n)
    handle = build_totalizer(sink, list(range(1, n + 1)))
    for code in all_models(sink.num_vars, sink.clauses):
        code = int(code)
        count = sum(code >> (v - 1) & 1 for v in range(1, n + 1))
        for t in range(1, n + 1):
            out = handle.count_geq(t)
            assert bool(code >> (out - 1) & 1) == (t <= count)
