"""Rule coverage, decoding, scoring, and model (de)serialization."""

import random
from dataclasses import asdict

import pytest

from rulesat.dataset import BinDataset
from rulesat.encoder import Scope, VarMap
from rulesat.formula import Assignment
from rulesat.model import (
    DecisionSet,
    ModelError,
    Rule,
    decode,
    deserialize,
    evaluate,
    load_model,
    save_model,
    serialize,
    verify_perfect,
)

from conftest import make_ex1
from oracles import evaluate_rows, first_violation

PERFECT_EX1 = [
    Rule(body=((0, True),), head=0),
    Rule(body=((0, False), (1, False)), head=1),
    Rule(body=((1, True),), head=0),
]


def dset(rules, classes=("0", "1"), total_size=None):
    if total_size is None:
        total_size = sum(r.size for r in rules)
    return DecisionSet(rules=list(rules), classes=list(classes),
                       total_size=total_size)


# ---------------------------------------------------------------- Rule


def test_rule_size_and_coverage():
    rule = Rule(body=((0, True), (2, False)), head=1)
    assert rule.size == 3
    assert rule.covers((1, 0, 0))
    assert rule.covers((1, 1, 0))
    assert not rule.covers((0, 0, 0))
    assert not rule.covers((1, 0, 1))
    assert Rule(body=(), head=0).covers((1, 1, 1))


def test_contradictory_body_covers_nothing():
    rule = Rule(body=((0, True), (0, False)), head=0)
    assert not rule.covers((0,))
    assert not rule.covers((1,))


def test_rule_render():
    names = ["L", "C", "E"]
    classes = ["no", "yes"]
    assert Rule(((0, True), (2, False)), 1).render(names, classes) == "L and not E => yes"
    assert Rule((), 0).render(names, classes) == "true => no"
    assert Rule(((5, True),), 0).render(names, classes) == "f5 => no"


# ---------------------------------------------------------------- decode


def assignment_with(num_vars, true_vars):
    values = [False] * num_vars
    for v in true_vars:
        values[v - 1] = True
    return Assignment(values)


def test_decode_skips_unused_and_reads_heads():
    vm = VarMap(n_nodes=2, n_features=1, n_examples=1, has_unused=True)
    model = assignment_with(
        vm.num_vars,
        [vm.unused_var(1), vm.class_sel_var(2), vm.truth_var(2)],
    )
    out = decode(model, vm, Scope.aggregated(), ["0", "1"])
    assert out.rules == [Rule(body=(), head=1)]
    assert out.total_size == 1


def test_decode_per_class_head_ignores_truth():
    vm = VarMap(n_nodes=1, n_features=1, n_examples=1)
    model = assignment_with(vm.num_vars, [vm.class_sel_var(1), vm.truth_var(1)])
    out = decode(model, vm, Scope.per_class(0), ["0", "1"])
    assert out.rules == [Rule(body=(), head=0)]


def test_decode_merges_repeated_literals_but_counts_nodes():
    vm = VarMap(n_nodes=3, n_features=2, n_examples=1)
    model = assignment_with(
        vm.num_vars,
        [
            vm.select_var(1, 1), vm.truth_var(1),
            vm.select_var(2, 1), vm.truth_var(2),
            vm.class_sel_var(3),
        ],
    )
    out = decode(model, vm, Scope.aggregated(), ["0", "1"])
    assert out.rules == [Rule(body=((0, True),), head=0)]
    assert out.total_size == 3


def test_decode_rejects_silent_and_dangling_nodes():
    vm = VarMap(n_nodes=1, n_features=1, n_examples=1)
    silent = assignment_with(vm.num_vars, [])
    with pytest.raises(ModelError, match="selects neither"):
        decode(silent, vm, Scope.aggregated(), ["0", "1"])
    dangling = assignment_with(vm.num_vars, [vm.select_var(1, 1)])
    with pytest.raises(ModelError, match="trailing body literals"):
        decode(dangling, vm, Scope.aggregated(), ["0", "1"])


# ---------------------------------------------------------------- verify


def test_verify_perfect_accepts_exact_fit():
    ok, witness = verify_perfect(dset(PERFECT_EX1), make_ex1(), Scope.aggregated())
    assert ok and witness is None


def test_verify_perfect_flags_wrong_cover_and_gap():
    ex1 = make_ex1()
    bad = dset([Rule(body=(), head=0)])
    ok, witness = verify_perfect(bad, ex1, Scope.aggregated())
    assert not ok
    assert witness == ("wrong-cover", 2, 0)  # first class-1 example, rule 0
    partial = dset([Rule(body=((0, True),), head=0)])
    ok, witness = verify_perfect(partial, ex1, Scope.aggregated())
    assert not ok
    assert witness == ("uncovered", 2, None)


def test_verify_perfect_per_class_ignores_other_class_gaps():
    ex1 = make_ex1()
    only_ones = dset([Rule(body=((0, False), (1, False)), head=1)])
    ok, witness = verify_perfect(only_ones, ex1, Scope.per_class(1))
    assert ok, witness
    # the same set fails the aggregated contract: class-0 rows are uncovered
    ok, _ = verify_perfect(only_ones, ex1, Scope.aggregated())
    assert not ok


# ---------------------------------------------------------------- evaluate


def test_evaluate_known_accuracy():
    report = evaluate(dset([Rule(body=((0, False),), head=1)]), make_ex1())
    assert report.num_examples == 8
    assert report.errors == 5
    assert report.accuracy == 37.5
    assert report.per_example == [
        "non-classified", "non-classified", "correct", "non-classified",
        "correct", "non-classified", "wrong-class-covered", "correct",
    ]
    assert report.separated_errors is None


def test_evaluate_perfect_set_scores_100():
    report = evaluate(dset(PERFECT_EX1), make_ex1())
    assert report.errors == 0
    assert report.accuracy == 100.0
    assert all(o == "correct" for o in report.per_example)


def test_evaluate_separated_mode():
    report = evaluate(dset([Rule(body=((0, False),), head=1)]), make_ex1(),
                      mode="separated")
    # four uncovered rows count one each, the wrongly covered row counts
    # its wrong head plus its missing own cover
    assert report.separated_errors == 6
    doc = report.to_json_dict()
    assert doc["separated_misclassified"] == 6
    assert doc["accuracy"] == 37.5


def test_evaluate_wrong_cover_beats_own_cover():
    ds = BinDataset(1, ["0", "1"], ["a"], [((1,), 0, 1)])
    both = dset([Rule(((0, True),), 0), Rule(((0, True),), 1)])
    report = evaluate(both, ds, mode="separated")
    assert report.per_example == ["wrong-class-covered"]
    assert report.errors == 1
    assert report.separated_errors == 1  # own class still covered


def test_evaluate_respects_weights():
    ds = BinDataset(1, ["0", "1"], ["a"],
                    [((1,), 0, 3), ((0,), 1, 2)])
    report = evaluate(dset([Rule(((0, True),), 0)]), ds)
    assert report.num_examples == 5
    assert report.errors == 2  # class-1 row of weight 2 is never covered
    assert report.accuracy == 60.0


def test_evaluate_maps_class_labels_not_indices():
    ds = BinDataset(1, ["0", "1"], ["a"], [((1,), 0, 1), ((0,), 1, 1)])
    flipped = DecisionSet(
        rules=[Rule(((0, True),), 1), Rule(((0, False),), 0)],
        classes=["1", "0"],  # label order differs from the dataset
        total_size=4,
    )
    report = evaluate(flipped, ds)
    assert report.errors == 0


def test_evaluate_rejects_mismatches():
    ds = BinDataset(2, ["0", "1"], ["a", "b"], [((1, 0), 0, 1)])
    with pytest.raises(ModelError, match="dataset has 2 features"):
        evaluate(dset([Rule(((5, True),), 0)]), ds)
    with pytest.raises(ModelError, match="unknown to the dataset"):
        evaluate(dset([Rule((), 0)], classes=("cat", "dog")), ds)
    with pytest.raises(ModelError, match="standard.*separated"):
        evaluate(dset([]), ds, mode="weird")


def random_scoring_case(rng):
    """Rows drawn with heavy repetition from at most five vectors, three
    classes, weights up to 4, and rules of any class whose bodies draw
    literals with replacement: empty, repeated and contradictory bodies
    all occur."""
    k = rng.randint(1, 5)
    pool = [tuple(rng.randrange(2) for _ in range(k)) for _ in range(rng.randint(1, 5))]
    examples = [(rng.choice(pool), rng.randrange(3), rng.randint(1, 4))
                for _ in range(rng.randint(1, 40))]
    ds = BinDataset(k, ["a", "b", "c"], ["f%d" % f for f in range(k)], examples)
    rules = [Rule(tuple((rng.randrange(k), rng.random() < 0.5)
                        for _ in range(rng.randint(0, 4))), rng.randrange(3))
             for _ in range(rng.randint(0, 5))]
    return ds, rules


def body_kinds(rules):
    kinds = set()
    for rule in rules:
        features = [f for f, _ in rule.body]
        if not rule.body:
            kinds.add("empty")
        elif len(set(rule.body)) > len(set(features)):
            kinds.add("contradictory")
        elif len(set(rule.body)) < len(rule.body):
            kinds.add("repeated")
    return kinds


def test_evaluate_matches_the_row_by_row_reference():
    rng = random.Random(2207)
    kinds = set()
    outcomes = set()
    for _ in range(300):
        ds, rules = random_scoring_case(rng)
        kinds |= body_kinds(rules)
        model_classes = rng.sample(ds.classes, 3)  # heads map by label, not index
        model = DecisionSet(rules=rules, classes=model_classes, total_size=0)
        for mode in ("standard", "separated"):
            report = evaluate(model, ds, mode=mode)
            assert asdict(report) == evaluate_rows(
                rules, model_classes, ds, separated=mode == "separated")
        outcomes |= set(report.per_example)
    assert kinds == {"empty", "contradictory", "repeated"}
    assert outcomes == {"correct", "non-classified", "wrong-class-covered"}


def test_verify_perfect_reports_the_reference_first_violation():
    rng = random.Random(2208)
    seen = set()
    for _ in range(300):
        ds, rules = random_scoring_case(rng)
        cases = [(ds, rules, Scope.per_class(t)) for t in range(3)]
        two = BinDataset(ds.num_features, ["a", "b"], ds.feature_names,
                         [(bits, cls % 2, w) for bits, cls, w in ds.examples])
        cases.append((two, [Rule(r.body, r.head % 2) for r in rules], Scope.aggregated()))
        for data, body_rules, scope in cases:
            expected = first_violation(body_rules, data, scope)
            got = verify_perfect(dset(body_rules), data, scope)
            assert got == (expected is None, expected)
            seen.add(None if expected is None else expected[0])
    assert seen == {None, "wrong-cover", "uncovered"}


# ---------------------------------------------------------------- storage


def test_serialize_round_trip():
    original = DecisionSet(
        rules=list(PERFECT_EX1),
        classes=["0", "1"],
        total_size=7,
        metadata={"mode": "perfect", "objective": 7,
                  "numeric_bins": {"x": {"cuts": [-1, 2.5], "labels": ["bin0", "bin1", "bin2"]},
                                   "c": {"cuts": [], "labels": ["7"]}}},
    )
    doc = serialize(original)
    back = deserialize(doc)
    assert back.rules == original.rules
    assert back.classes == original.classes
    assert back.total_size == 7
    assert back.metadata == original.metadata


def test_save_and_load_model(tmp_path):
    path = str(tmp_path / "model.json")
    original = dset(PERFECT_EX1, total_size=7)
    save_model(original, path)
    loaded = load_model(path)
    assert loaded.rules == original.rules
    assert evaluate(loaded, make_ex1()).accuracy == 100.0


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ([], "must be an object"),
        ({}, "missing"),
        ({"classes": [], "rules": [], "total_size": 0}, "non-empty list"),
        ({"classes": ["a"], "rules": [], "total_size": -1}, "non-negative"),
        ({"classes": ["a"], "rules": {}, "total_size": 0}, "must be a list"),
        ({"classes": ["a"], "rules": [{"head": 0}], "total_size": 0},
         "needs body and head"),
        ({"classes": ["a"], "rules": [{"body": [], "head": 3}], "total_size": 0},
         "out of range"),
        ({"classes": ["a"], "rules": [{"body": [{"feature": -1, "neg": False}],
                                       "head": 0}], "total_size": 0},
         "bad body literal"),
        ({"classes": ["a"], "rules": [{"body": [{"feature": 0, "neg": 0}],
                                       "head": 0}], "total_size": 0},
         "bad body literal"),
        ({"classes": ["a"], "rules": [], "total_size": 0, "metadata": 7},
         "metadata must be an object"),
        # JSON booleans are no ints, and two heads may not share a label
        ({"classes": ["a"], "rules": [{"body": [{"feature": True, "neg": False}],
                                       "head": 0}], "total_size": 0},
         "bad body literal"),
        ({"classes": ["a", "b"], "rules": [{"body": [], "head": True}], "total_size": 0},
         "out of range"),
        ({"classes": ["a"], "rules": [], "total_size": True}, "non-negative"),
        ({"classes": ["p", "p"], "rules": [], "total_size": 0}, "distinct"),
        # the training feature names, when stored, are a list of strings
        ({"classes": ["a"], "rules": [], "total_size": 0,
          "metadata": {"feature_names": "f0"}}, "feature_names"),
        ({"classes": ["a"], "rules": [], "total_size": 0,
          "metadata": {"feature_names": ["f0", 1]}}, "feature_names"),
        # the stored binning, when present: increasing numeric cuts, and one
        # string label per bin
        ({"classes": ["a"], "rules": [], "total_size": 0,
          "metadata": {"numeric_bins": []}}, "numeric_bins must be an object"),
    ] + [
        ({"classes": ["a"], "rules": [], "total_size": 0,
          "metadata": {"numeric_bins": {"x": entry}}}, r"numeric_bins\['x'\]")
        for entry in ([4.0], {"cuts": [4.0]}, {"cuts": 4.0, "labels": ["a", "b"]},
                      {"cuts": [True], "labels": ["a", "b"]},
                      {"cuts": ["4"], "labels": ["a", "b"]},
                      {"cuts": [float("nan")], "labels": ["a", "b"]},
                      {"cuts": [2, 2], "labels": ["a", "b", "c"]},
                      {"cuts": [4.0], "labels": ["a"]},
                      {"cuts": [4.0], "labels": ["a", 1]})
    ],
)
def test_deserialize_rejects_malformed_documents(doc, fragment):
    with pytest.raises(ModelError, match=fragment):
        deserialize(doc)


def test_load_model_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelError, match="invalid JSON"):
        load_model(str(path))
