"""The construction contract of the public record types.

Each record takes its fields positionally, in the order listed here, or
by keyword; the trailing fields have defaults, and a mutable default is
a fresh object for every instance.  Rule and Scope are values: equal
fields make equal, equally hashed instances.
"""

import pytest

import rulesat
from rulesat.dataset import BinDataset, DatasetError, FoldPlan, RawDataset, SanitizeReport
from rulesat.encoder import CnfBundle, Scope, VarMap
from rulesat.formula import Formula
from rulesat.model import DecisionSet, EvalReport, Rule
from rulesat.optimizer import MaxsatResult, SearchLimits, SolveOutcome

# (record, [(field, value)] without defaults, [(field, default, other value)])
RECORDS = [
    (RawDataset, [("feature_names", ["a"]), ("class_name", "y"), ("columns", [["1"]]),
                  ("labels", ["p"])], []),
    (BinDataset, [("num_features", 1), ("classes", ["n", "p"]), ("feature_names", ["a"]),
                  ("examples", [((1,), 0, 1)])],
     [("numeric_bins", {}, {"a": {"cuts": [0.5], "labels": ["lo", "hi"]}})]),
    (SanitizeReport, [], [("merged", 0, 4), ("removed", 0, 2)]),
    (FoldPlan, [("num_folds", 2), ("seed", 7), ("assignments", [0, 1])], []),
    (Scope, [("kind", "per_class")], [("target", None, 1)]),
    (VarMap, [("n_nodes", 2), ("n_features", 3), ("n_examples", 4)],
     [("has_unused", False, True), ("has_misclass", False, True)]),
    (CnfBundle, [("formula", Formula()), ("varmap", VarMap(1, 1, 1)),
                 ("scope", Scope.aggregated()), ("mode", "sparse"), ("classes", ["0", "1"])],
     [("lambda_cost", None, 3)]),
    (Formula, [], [("num_vars", 0, 2), ("hard", [], [(1, 2)]), ("soft", [], [((-1,), 3)])]),
    (Rule, [("body", ((0, True), (2, False))), ("head", 1)], []),
    (DecisionSet, [("rules", [Rule((), 0)]), ("classes", ["0", "1"]), ("total_size", 1)],
     [("metadata", {}, {"feature_names": ["a"]})]),
    (EvalReport, [("num_examples", 3), ("errors", 1), ("accuracy", 2 / 3),
                  ("per_example", ["correct", "non-classified", "correct"])],
     [("separated_errors", None, 1)]),
    (SearchLimits, [], [("wall_time_budget", 600.0, 5.0), ("per_solve_budget", 60.0, 1.5)]),
    (SolveOutcome, [("status", "optimal")],
     [("decision_set", None, DecisionSet([], ["0"], 0)), ("objective", None, 7),
      ("stats", {}, {"rounds": 2})]),
    (MaxsatResult, [("status", "optimal")],
     [("assignment", None, rulesat.Assignment([True])), ("cost", None, 0),
      ("stats", {}, {"solve_calls": 1})]),
]
IDS = [record.__name__ for record, _, _ in RECORDS]


def assert_fields(obj, expected):
    for name, value in expected:
        assert getattr(obj, name) == value, name


@pytest.mark.parametrize("record, required, defaulted", RECORDS, ids=IDS)
def test_a_record_takes_its_fields_in_order_or_by_keyword(record, required, defaulted):
    fields = required + [(name, other) for name, _, other in defaulted]
    values = [value for _, value in fields]
    assert_fields(record(*values), fields)
    assert_fields(record(**dict(reversed(fields))), fields)
    with pytest.raises(TypeError):
        record(*values, None)
    with pytest.raises(TypeError):
        record(*values, no_such_field=None)


@pytest.mark.parametrize("record, required, defaulted", RECORDS, ids=IDS)
def test_a_record_fills_its_defaults_afresh(record, required, defaulted):
    values = [value for _, value in required]
    first, second = record(*values), record(*values)
    assert_fields(first, [(name, default) for name, default, _ in defaulted])
    for name, default, _ in defaulted:
        if isinstance(default, (list, dict)):
            assert getattr(first, name) is not getattr(second, name), name


def test_derived_fields_are_not_parameters():
    with pytest.raises(TypeError):
        VarMap(1, 1, 1, num_vars=9)
    with pytest.raises(TypeError):
        Rule((), 0, _pick=None)


def test_rules_and_scopes_are_values():
    body = ((0, True), (3, False))
    assert len({Rule(body, 1), Rule(body=body, head=1)}) == 1
    assert Rule(body, 1) == Rule(tuple(body), 1)
    assert hash(Rule(body, 1)) == hash(Rule(body, 1))
    assert Rule(body, 1) != Rule(body, 0)
    assert Rule(body, 1) != Rule(body[:1], 1)
    assert Rule(body, 1) != (body, 1)
    assert len({Scope.aggregated(), Scope("aggregated"), Scope.per_class(0),
                Scope("per_class", 0), Scope.per_class(1)}) == 3
    assert Scope.per_class(1) == Scope(kind="per_class", target=1)
    assert Scope.aggregated() != Scope.per_class(0)
    assert Scope.aggregated() != "aggregated"


def test_rules_and_scopes_refuse_assignment():
    rule, scope = Rule((), 0), Scope.aggregated()
    with pytest.raises(AttributeError):
        rule.head = 1
    with pytest.raises(AttributeError):
        scope.target = 0
    assert rule == Rule((), 0) and scope == Scope.aggregated()


def test_a_rule_covers_by_its_body():
    assert Rule(((1, True), (2, False)), 0).covers((0, 1, 0))
    assert not Rule(((1, True), (2, False)), 0).covers((0, 1, 1))
    assert Rule(((2, False),), 0).covers((1, 1, 0))
    assert Rule((), 0).covers((1, 0, 1))


def test_bin_datasets_compare_without_their_numeric_bins():
    examples = [((0, 1), 0, 1), ((1, 1), 1, 2)]
    plain = BinDataset(2, ["n", "p"], ["a", "b"], examples)
    binned = BinDataset(2, ["n", "p"], ["a", "b"], list(examples),
                        numeric_bins={"a": {"cuts": [1.0], "labels": ["lo", "hi"]}})
    assert plain == binned
    assert plain != BinDataset(2, ["n", "p"], ["a", "b"], examples[:1])
    assert plain != BinDataset(2, ["n", "p"], ["a", "c"], examples)
    assert plain != (2, ["n", "p"], ["a", "b"], examples)


@pytest.mark.parametrize("args, message", [
    ((2, ["n"], ["a"], []), "feature name count does not match width"),
    ((2, ["n"], ["a", "b"], [([0, 1], 0, 1)]), "example bits must be a tuple, got list"),
    ((2, ["n"], ["a", "b"], [((0,), 0, 1)]), "example width 1, expected 2"),
    ((2, ["n"], ["a", "b"], [((0, 2), 0, 1)]), "non-binary feature value"),
    ((2, ["n"], ["a", "b"], [((0, 1), 1, 1)]), "class index 1 out of range"),
    ((2, ["n"], ["a", "b"], [((0, 1), 0, 0)]), "example weight must be >= 1"),
    # the first failing check of the first bad example names the fault
    ((2, ["n"], ["a", "b"], [((0, 1), 0, 1), ((0, 2), 3, 0)]), "non-binary feature value"),
])
def test_a_bin_dataset_checks_its_examples(args, message):
    with pytest.raises(DatasetError) as info:
        BinDataset(*args)
    assert str(info.value) == message


def test_a_varmap_lays_out_its_nodes():
    vm = VarMap(2, 3, 4, True, True)
    assert [vm.misclass_var(i) for i in range(1, 5)] == [1, 2, 3, 4]
    assert [vm.first_id(j) for j in (1, 2)] == [5, 15]
    assert vm.num_vars == vm.core_vars == 24
    assert [vm.select_var(2, r) for r in range(1, 5)] == [15, 16, 17, 18]
    assert (vm.class_sel_var(2), vm.truth_var(2), vm.valid_var(4, 2), vm.unused_var(2)) \
        == (18, 19, 23, 24)
    assert vm.new_aux() == 25
    assert vm.add_node() == 3 and vm.first_id(3) == 26 and vm.num_vars == 35
    plain = VarMap(n_nodes=1, n_features=2, n_examples=1)
    assert (plain.first_id(1), plain.num_vars, plain.n_nodes) == (1, 5, 1)
    empty = VarMap(0, 2, 3, has_misclass=True)
    assert (empty.n_nodes, empty.num_vars) == (0, 3)

