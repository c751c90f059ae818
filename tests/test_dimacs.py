import pytest

from rulesat.dimacs import emit_dimacs, parse_dimacs
from rulesat.formula import Formula, FormulaError
from rulesat.solver import Solver


def roundtrip(tmp_path, formula, name="f.cnf"):
    path = str(tmp_path / name)
    emit_dimacs(formula, path)
    return path, parse_dimacs(path)


def test_cnf_exact_text(tmp_path):
    f = Formula()
    f.add_hard([1, -3])
    f.add_hard([2])
    path = str(tmp_path / "t.cnf")
    emit_dimacs(f, path)
    text = open(path).read()
    assert text == "p cnf 3 2\n1 -3 0\n2 0\n"


def test_wcnf_exact_text(tmp_path):
    f = Formula()
    f.add_hard([1, 2])
    f.add_soft([-1], 2)
    f.add_soft([-2], 3)
    path = str(tmp_path / "t.wcnf")
    emit_dimacs(f, path)
    text = open(path).read()
    # top = 1 + 2 + 3 marks the hard clause
    assert text == "p wcnf 2 3 6\n6 1 2 0\n2 -1 0\n3 -2 0\n"


def test_cnf_roundtrip_identity(tmp_path):
    f = Formula(num_vars=4)
    f.add_hard([1, -2, 4])
    f.add_hard([-4, 3])
    _, back = roundtrip(tmp_path, f)
    assert back.num_vars == f.num_vars
    assert back.hard == f.hard
    assert back.soft == []


def test_wcnf_roundtrip_identity(tmp_path):
    f = Formula(num_vars=5)
    f.add_hard([1, 2, -5])
    f.add_soft([3], 1)
    f.add_soft([-3, 4], 7)
    _, back = roundtrip(tmp_path, f, "t.wcnf")
    assert back.num_vars == f.num_vars
    assert back.hard == f.hard
    assert back.soft == f.soft


def test_parse_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.cnf"
    path.write_text("c a comment\n\np cnf 2 2\nc mid comment\n1 2 0\n-1 0\n")
    f = parse_dimacs(str(path))
    assert f.hard == [(1, 2), (-1,)]


def test_parse_clause_spanning_lines(tmp_path):
    path = tmp_path / "s.cnf"
    path.write_text("p cnf 3 1\n1 2\n3 0\n")
    f = parse_dimacs(str(path))
    assert f.hard == [(1, 2, 3)]


def test_wcnf_weight_at_top_becomes_hard(tmp_path):
    path = tmp_path / "h.wcnf"
    path.write_text("p wcnf 2 2 5\n5 1 0\n2 -1 2 0\n")
    f = parse_dimacs(str(path))
    assert f.hard == [(1,)]
    assert f.soft == [((-1, 2), 2)]


@pytest.mark.parametrize("text,fragment", [
    ("1 2 0\n", "problem line"),
    ("p cnf 2\n1 0\n", "malformed"),
    ("p cnf 2 1\np cnf 2 1\n1 0\n", "duplicate"),
    ("p cnf 2 1\n1 3 0\n", "exceeds"),
    ("p cnf 2 1\n1 2\n", "not terminated"),
    ("p wcnf 2 1 5\n0 1 0\n", "positive"),
    ("p cnf 2 1\n1 x 0\n", "bad token"),
])
def test_parse_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.cnf"
    path.write_text(text)
    with pytest.raises(FormulaError, match=fragment):
        parse_dimacs(str(path))


def test_emit_empty_formula(tmp_path):
    f = Formula(num_vars=3)
    path, back = roundtrip(tmp_path, f)
    assert open(path).read() == "p cnf 3 0\n"
    assert back.num_vars == 3 and back.hard == []


def test_empty_clause_is_kept_and_makes_the_formula_unsat(tmp_path):
    path = tmp_path / "empty.cnf"
    path.write_text("p cnf 2 2\n1 2 0\n0\n")
    f = parse_dimacs(str(path))
    assert f.num_vars == 2
    assert f.hard == [(1, 2), ()]
    out, back = roundtrip(tmp_path, f, "out.cnf")
    assert open(out).read() == "p cnf 2 2\n1 2 0\n0\n"
    assert back.num_vars == f.num_vars and back.hard == f.hard and back.soft == []
    solver = Solver()
    solver.add_formula(back)
    assert solver.solve() is False
    assert solver.core == []


def test_empty_clause_round_trips_through_wcnf(tmp_path):
    f = Formula()
    f.add_hard([])
    f.add_soft([], 2)
    f.add_soft([1], 3)
    assert f.num_vars == 1
    out, back = roundtrip(tmp_path, f, "empty.wcnf")
    assert open(out).read() == "p wcnf 1 3 6\n6 0\n2 0\n3 1 0\n"
    assert back.hard == [()] and back.soft == [((), 2), ((1,), 3)]
