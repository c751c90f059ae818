"""Totalizer cardinality layer: unary counters over input literals.

build_totalizer emits clauses into any sink exposing new_var() and
add_clause(); in every model of those clauses, output t is true exactly
when at least t inputs are true.  Bounds are then single literals:
assuming -outputs[k] enforces "at most k inputs true".
"""

from __future__ import annotations

from .formula import FormulaError, is_literal


def _merge(sink, left: list[int], right: list[int]) -> list[int]:
    n1, n2 = len(left), len(right)
    out = [sink.new_var() for _ in range(n1 + n2)]
    for i in range(n1 + 1):
        for j in range(n2 + 1):
            s = i + j
            if s > 0:
                # i true on the left and j true on the right force >= s
                clause = [out[s - 1]]
                if i:
                    clause.append(-left[i - 1])
                if j:
                    clause.append(-right[j - 1])
                sink.add_clause(clause)
            if s < n1 + n2:
                # fewer than i+1 left and j+1 right forbid >= s+1
                clause = [-out[s]]
                if i < n1:
                    clause.append(left[i])
                if j < n2:
                    clause.append(right[j])
                sink.add_clause(clause)
    return out


def _build(sink, lits: list[int]) -> list[int]:
    if len(lits) == 1:
        return lits
    mid = len(lits) // 2
    return _merge(sink, _build(sink, lits[:mid]), _build(sink, lits[mid:]))


def build_totalizer(sink, inputs) -> tuple[int, ...]:
    """Build a totalizer over the given literals (duplicates allowed) and
    return its outputs: outputs[t - 1] is true iff at least t inputs are."""
    inputs = tuple(inputs)
    if not inputs:
        raise FormulaError("totalizer needs at least one input")
    for lit in inputs:
        if not is_literal(lit):
            raise FormulaError("bad literal %r" % (lit,))
    return tuple(_build(sink, list(inputs)))
