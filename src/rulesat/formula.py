"""CNF containers shared by the solver, the encoders, and file I/O.

Literals are nonzero ints: +v is the positive literal of variable v,
-v its negation.  Variable ids start at 1.
"""

from __future__ import annotations


class FormulaError(ValueError):
    """Malformed clause, literal, weight, or assignment."""


def is_literal(lit) -> bool:
    """lit is a nonzero int.  A bool is not a literal, though bool is a
    subclass of int: True would pass as literal 1."""
    return isinstance(lit, int) and not isinstance(lit, bool) and lit != 0


def normalize_clause(lits) -> tuple[int, ...] | None:
    """Deduplicate and sort a clause; return None for tautologies.

    A zero literal is rejected (0 terminates DIMACS clauses and cannot
    name a variable), and so is a bool.
    """
    seen = set()
    for lit in lits:
        if lit == 0:
            raise FormulaError("literal 0 is not allowed in a clause")
        if not is_literal(lit):
            raise FormulaError("literals must be ints, got %r" % (lit,))
        if -lit in seen:
            return None
        seen.add(lit)
    return tuple(sorted(seen, key=lambda l: (abs(l), l < 0)))


class Formula:
    """A CNF formula with hard and weighted soft clauses; a clause sink like a Solver."""

    def __init__(self, num_vars: int = 0, hard: list[tuple[int, ...]] | None = None,
                 soft: list[tuple[tuple[int, ...], int]] | None = None):
        self.num_vars = num_vars
        self.hard = [] if hard is None else hard
        self.soft = [] if soft is None else soft

    def add_hard(self, lits) -> None:
        clause = normalize_clause(lits)
        if clause is None:  # tautology, always satisfied
            return
        self.ensure_vars(max(map(abs, clause), default=0))  # () is kept: it makes the formula UNSAT
        self.hard.append(clause)

    add_clause = add_hard

    def ensure_vars(self, n: int) -> None:
        self.num_vars = max(self.num_vars, n)

    def add_soft(self, lits, weight: int) -> None:
        if not isinstance(weight, int) or weight < 1:
            raise FormulaError("soft weight must be a positive int, got %r" % (weight,))
        clause = normalize_clause(lits)
        if clause is None:
            return
        self.ensure_vars(max(map(abs, clause), default=0))
        self.soft.append((clause, weight))

    def literal_count(self) -> int:
        """Total emitted literals across hard and soft clauses."""
        return sum(len(c) for c in self.hard) + sum(len(c) for c, _ in self.soft)

    def top_weight(self) -> int:
        """Weight that marks hard clauses in WCNF output: 1 + sum of soft weights."""
        return 1 + sum(w for _, w in self.soft)


class Assignment:
    """Total truth assignment over variables 1..num_vars."""

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = [bool(v) for v in values]

    @property
    def num_vars(self) -> int:
        return len(self._values)

    def value(self, var: int) -> bool:
        if not 1 <= var <= len(self._values):
            raise FormulaError("variable %d outside assignment of %d vars" % (var, len(self._values)))
        return self._values[var - 1]

    def lit_true(self, lit: int) -> bool:
        v = self.value(abs(lit))
        return v if lit > 0 else not v

    def true_vars(self):
        return [v for v in range(1, len(self._values) + 1) if self._values[v - 1]]

    def __eq__(self, other):
        return isinstance(other, Assignment) and self._values == other._values

    def __repr__(self):
        return "Assignment(%s)" % "".join("1" if v else "0" for v in self._values)


def check_model(formula: Formula, assignment: Assignment) -> tuple[bool, int | None]:
    """Check a total assignment against the hard clauses.

    Returns (True, None) when every hard clause is satisfied, otherwise
    (False, index of the first falsified hard clause).  Raises on an
    assignment narrower than the formula.
    """
    if assignment.num_vars < formula.num_vars:
        raise FormulaError(
            "assignment covers %d vars, formula needs %d"
            % (assignment.num_vars, formula.num_vars)
        )
    for idx, clause in enumerate(formula.hard):
        if not any(assignment.lit_true(l) for l in clause):
            return False, idx
    return True, None
