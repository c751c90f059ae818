import pytest

from rulesat.formula import (Assignment, Formula, FormulaError, check_model,
                             normalize_clause)


def test_normalize_sorts_and_dedups():
    assert normalize_clause([3, -1, 3, 2]) == (-1, 2, 3)
    assert normalize_clause([2, 2, 2]) == (2,)
    assert normalize_clause([]) == ()


def test_normalize_tautology_is_none():
    assert normalize_clause([1, -1]) is None
    assert normalize_clause([4, 2, -4]) is None


def test_normalize_rejects_bad_literals():
    with pytest.raises(FormulaError):
        normalize_clause([1, 0])
    with pytest.raises(FormulaError):
        normalize_clause([1, "2"])


def test_bools_are_not_literals(tmp_path):
    # bool is a subclass of int, so True would pass as literal 1 and
    # emit_dimacs would write the line "True 2 0"
    for clause in ([True, 2], [1, False]):
        with pytest.raises(FormulaError):
            normalize_clause(clause)
        with pytest.raises(FormulaError):
            Formula().add_hard(clause)
        with pytest.raises(FormulaError):
            Formula().add_soft(clause, 1)


def test_add_hard_tracks_num_vars_and_skips_tautologies():
    f = Formula()
    f.add_hard([1, -5])
    assert f.num_vars == 5
    f.add_hard([2, -2])
    assert len(f.hard) == 1


def test_add_soft_weight_validation():
    f = Formula()
    f.add_soft([1], 3)
    assert f.soft == [((1,), 3)]
    with pytest.raises(FormulaError):
        f.add_soft([1], 0)
    with pytest.raises(FormulaError):
        f.add_soft([1], 1.5)


def test_literal_count_and_top_weight():
    f = Formula()
    f.add_hard([1, 2])
    f.add_hard([-1, 2, 3])
    f.add_soft([-2], 4)
    f.add_soft([3, 1], 2)
    assert f.literal_count() == 2 + 3 + 1 + 2
    assert f.top_weight() == 1 + 4 + 2


def test_assignment_lookup_and_bounds():
    a = Assignment([True, False, True])
    assert a.num_vars == 3
    assert a.value(1) and not a.value(2)
    assert a.lit_true(-2) and a.lit_true(3) and not a.lit_true(-3)
    assert a.true_vars() == [1, 3]
    with pytest.raises(FormulaError):
        a.value(4)
    with pytest.raises(FormulaError):
        a.value(0)


def test_check_model_reports_first_falsified():
    f = Formula()
    f.add_hard([1, 2])
    f.add_hard([-1, 3])
    ok, idx = check_model(f, Assignment([True, False, True]))
    assert ok and idx is None
    ok, idx = check_model(f, Assignment([True, False, False]))
    assert not ok and idx == 1


def test_check_model_rejects_narrow_assignment():
    f = Formula()
    f.add_hard([1, 4])
    with pytest.raises(FormulaError):
        check_model(f, Assignment([True, True]))
