"""DIMACS CNF / WCNF reading and writing.

A formula without soft clauses is written as CNF; one with soft clauses
as classic WCNF where the top weight (1 + sum of soft weights) marks
hard clauses.
"""

from __future__ import annotations

from .formula import Formula, FormulaError


def _clause_line(prefix, clause) -> str:
    """One clause line: the weight if any, the literals, then 0 (alone for the empty clause)."""
    return " ".join(map(str, (*prefix, *clause, 0)))


def emit_dimacs(formula: Formula, path: str) -> None:
    lines = []
    if not formula.soft:
        lines.append("p cnf %d %d" % (formula.num_vars, len(formula.hard)))
        for clause in formula.hard:
            lines.append(_clause_line((), clause))
    else:
        top = formula.top_weight()
        total = len(formula.hard) + len(formula.soft)
        lines.append("p wcnf %d %d %d" % (formula.num_vars, total, top))
        for clause in formula.hard:
            lines.append(_clause_line((top,), clause))
        for clause, weight in formula.soft:
            lines.append(_clause_line((weight,), clause))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_dimacs(path: str) -> Formula:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    tokens: list[str] = []
    fmt = None
    declared_vars = declared_clauses = top = None
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            if fmt is not None:
                raise FormulaError("duplicate problem line")
            if len(fields) == 4 and fields[1] == "cnf":
                fmt = "cnf"
            elif len(fields) == 5 and fields[1] == "wcnf":
                fmt = "wcnf"
            else:
                raise FormulaError("malformed problem line: %r" % line)
            try:
                declared_vars = int(fields[2])
                declared_clauses = int(fields[3])
                if fmt == "wcnf":
                    top = int(fields[4])
            except ValueError:
                raise FormulaError("malformed problem line: %r" % line) from None
            if declared_vars < 0 or declared_clauses < 0:
                raise FormulaError("negative counts in problem line")
            continue
        if fmt is None:
            raise FormulaError("clause before problem line: %r" % line)
        tokens.extend(fields)

    if fmt is None:
        raise FormulaError("missing problem line")

    formula = Formula(num_vars=declared_vars)

    def take_int(tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise FormulaError("bad token %r" % tok) from None

    pos = 0

    def read_clause() -> list[int]:
        nonlocal pos
        lits = []
        while True:
            if pos >= len(tokens):
                raise FormulaError("clause not terminated by 0")
            lit = take_int(tokens[pos])
            pos += 1
            if lit == 0:
                return lits
            if abs(lit) > declared_vars:
                raise FormulaError(
                    "literal %d exceeds declared variable count %d" % (lit, declared_vars)
                )
            lits.append(lit)

    while pos < len(tokens):
        if fmt == "cnf":
            formula.add_hard(read_clause())
        else:
            weight = take_int(tokens[pos])
            pos += 1
            if weight < 1:
                raise FormulaError("weight %d must be positive" % weight)
            lits = read_clause()
            if weight >= top:
                formula.add_hard(lits)
            else:
                formula.add_soft(lits, weight)
    return formula
