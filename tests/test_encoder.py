"""CNF builder semantics, variable layout, and cardinality helpers."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

import rulesat
from rulesat.encoder import (
    Encoder,
    EncodingError,
    Scope,
    VarMap,
    build_bounded,
    build_perfect,
    build_sparse,
    exactly_one,
    lam_to_cost,
)
from rulesat.dataset import BinDataset
from rulesat.formula import normalize_clause
from rulesat.model import Rule, decode, verify_perfect
from rulesat.solver import Solver

from conftest import forced_rules, make_ex1, random_dataset
from oracles import all_models


def solve_bundle(bundle, assumptions=()):
    solver = Solver()
    solver.add_formula(bundle.formula)
    sat = solver.solve(assumptions)
    return sat, solver.model


# ---------------------------------------------------------------- Scope


def test_scope_validate_accepts_good_scopes():
    Scope.aggregated().validate(2)
    Scope.per_class(0).validate(2)
    Scope.per_class(2).validate(3)


@pytest.mark.parametrize(
    "scope,num_classes,fragment",
    [
        (Scope(kind="aggregated", target=1), 2, "takes no target"),
        (Scope.aggregated(), 3, "needs exactly 2 classes"),
        (Scope.per_class(2), 2, "out of range"),
        (Scope(kind="per_class"), 2, "out of range"),
        (Scope(kind="banana"), 2, "unknown scope kind"),
    ],
)
def test_scope_validate_rejects(scope, num_classes, fragment):
    with pytest.raises(EncodingError, match=fragment):
        scope.validate(num_classes)


# ---------------------------------------------------------------- VarMap


def test_varmap_core_layout():
    vm = VarMap(n_nodes=7, n_features=4, n_examples=8)
    # node-major: node j holds 5 selectors, its truth and 8 validities
    # in the 14 ids from 14 * (j - 1) + 1
    assert vm.core_vars == 98
    assert vm.num_vars == 98
    for j in range(1, 8):
        first = 14 * (j - 1) + 1
        assert vm.first_id(j) == first
        assert [vm.select_var(j, r) for r in range(1, 6)] == list(range(first, first + 5))
        assert vm.class_sel_var(j) == first + 4
        assert vm.truth_var(j) == first + 5
        assert [vm.valid_var(i, j) for i in range(1, 9)] == list(range(first + 6, first + 14))
    assert vm.select_var(7, 5) == 89
    assert vm.truth_var(7) == 90
    assert vm.valid_var(8, 7) == 98
    ids = (
        [vm.select_var(j, r) for j in range(1, 8) for r in range(1, 6)]
        + [vm.truth_var(j) for j in range(1, 8)]
        + [vm.valid_var(i, j) for i in range(1, 9) for j in range(1, 8)]
    )
    assert sorted(ids) == list(range(1, 99))


def test_varmap_flag_blocks_and_aux():
    vm = VarMap(n_nodes=7, n_features=4, n_examples=8,
                has_unused=True, has_misclass=True)
    # misclassification flags first, then 15-id node blocks ending in
    # the unused flag
    assert [vm.misclass_var(i) for i in range(1, 9)] == list(range(1, 9))
    for j in range(1, 8):
        first = 8 + 15 * (j - 1) + 1
        assert vm.first_id(j) == first
        assert vm.select_var(j, 1) == first
        assert vm.truth_var(j) == first + 5
        assert vm.valid_var(1, j) == first + 6
        assert vm.unused_var(j) == first + 14
    assert vm.unused_var(1) == 23
    assert vm.unused_var(7) == 113
    assert vm.core_vars == 113
    ids = (
        [vm.misclass_var(i) for i in range(1, 9)]
        + [vm.select_var(j, r) for j in range(1, 8) for r in range(1, 6)]
        + [vm.truth_var(j) for j in range(1, 8)]
        + [vm.valid_var(i, j) for i in range(1, 9) for j in range(1, 8)]
        + [vm.unused_var(j) for j in range(1, 8)]
    )
    assert sorted(ids) == list(range(1, 114))
    first = vm.new_aux()
    assert first == 114
    assert vm.num_vars == 114
    # an appended node starts after the auxiliaries, renumbering nothing
    assert vm.add_node() == 8
    assert vm.first_id(8) == 115
    assert vm.unused_var(8) == 129
    assert vm.unused_var(7) == 113
    assert vm.core_vars == 128
    assert vm.num_vars == 129


def test_varmap_json_blocks():
    vm = VarMap(n_nodes=2, n_features=3, n_examples=2, has_unused=True)
    doc = vm.to_json_dict()
    assert doc["n_nodes"] == 2 and doc["n_features"] == 3
    assert len(doc["select"]) == 2 and len(doc["select"][0]) == 4
    assert doc["truth"] == [vm.truth_var(1), vm.truth_var(2)]
    assert doc["unused"] == [vm.unused_var(1), vm.unused_var(2)]
    assert "misclass" not in doc


# ---------------------------------------------------------------- exactly_one


def lit_truth(code, lit):
    bit = (code >> (abs(lit) - 1)) & 1
    return bool(bit) if lit > 0 else not bool(bit)


def test_exactly_one_pairwise_models():
    lits = [1, -2, 3]
    clauses = exactly_one(lits)
    models = all_models(3, clauses)
    picks = sorted(
        tuple(lit_truth(code, l) for l in lits).index(True) for code in models
    )
    assert len(models) == 3
    assert picks == [0, 1, 2]


def test_exactly_one_ladder_models():
    lits = [1, -2, 3]
    counter = [3]

    def new_var():
        counter[0] += 1
        return counter[0]

    clauses = exactly_one(lits, new_var=new_var, pairwise_limit=0)
    models = all_models(counter[0], clauses)
    picks = []
    for code in models:
        values = [lit_truth(code, l) for l in lits]
        assert values.count(True) == 1
        picks.append(values.index(True))
    assert sorted(set(picks)) == [0, 1, 2]


def test_exactly_one_ladder_matches_pairwise():
    rng = random.Random(42)
    for n in range(2, 8):
        lits = [v if rng.random() < 0.5 else -v for v in range(1, n + 1)]
        pairwise = exactly_one(lits)
        counter = [n]

        def new_var():
            counter[0] += 1
            return counter[0]

        ladder = exactly_one(lits, new_var=new_var, pairwise_limit=0)
        seen_pw = {
            tuple(lit_truth(c, l) for l in lits) for c in all_models(n, pairwise)
        }
        seen_ld = {
            tuple(lit_truth(c, l) for l in lits)
            for c in all_models(counter[0], ladder)
        }
        assert seen_pw == seen_ld


def test_exactly_one_degenerate_cases():
    assert exactly_one([7]) == [[7]]
    with pytest.raises(EncodingError, match="empty literal list"):
        exactly_one([])
    with pytest.raises(EncodingError, match="needs a variable allocator"):
        exactly_one([1, 2], pairwise_limit=1)


# ---------------------------------------------------------------- lam_to_cost


@pytest.mark.parametrize(
    "lam,m,expected",
    [
        (0.5, 8, 4),
        (0.05, 355, 18),
        (0.005, 8, 1),
        (1.2, 8, 10),
        (0.1, 30, 3),  # decimal reading; binary 0.1 * 30 would round up to 4
        (0.0, 5, 1),
        (2, 5, 10),
        (Fraction(1, 3), 6, 2),
    ],
)
def test_lam_to_cost_values(lam, m, expected):
    assert lam_to_cost(lam, m) == expected


def test_lam_to_cost_rejects_bad_inputs():
    with pytest.raises(EncodingError, match="lambda must be >= 0"):
        lam_to_cost(-0.1, 10)
    with pytest.raises(EncodingError, match="m_effective"):
        lam_to_cost(0.5, 0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(EncodingError, match="finite"):
            lam_to_cost(bad, 10)


def test_the_cli_imports_fractions_only_for_a_penalty():
    # only sparse calls lam_to_cost: learn, cv and eval for opt and mopt
    # start without fractions (and the decimal and numbers it imports)
    env = dict(os.environ, PYTHONPATH=str(Path(rulesat.__file__).parent.parent))
    probe = "import sys, rulesat.cli; print('fractions' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         encoding="utf-8", check=True).stdout
    assert out == "False\n"


# ---------------------------------------------------------------- builders


def test_build_perfect_variable_and_soft_counts():
    bundle = build_perfect(make_ex1(), 7, Scope.aggregated())
    assert bundle.varmap.core_vars == 98
    assert bundle.formula.num_vars >= 98
    assert bundle.formula.soft == []
    assert bundle.mode == "perfect"
    assert bundle.lambda_cost is None
    assert bundle.classes == ["0", "1"]


def test_build_bounded_soft_clauses_are_unused_flags():
    bundle = build_bounded(make_ex1(), 7, Scope.aggregated())
    vm = bundle.varmap
    assert bundle.formula.soft == [
        ((vm.unused_var(j),), 1) for j in range(1, 8)
    ]


def test_build_sparse_soft_weights_and_top():
    bundle = build_sparse(make_ex1(), 7, 4, Scope.aggregated())
    vm = bundle.varmap
    softs = bundle.formula.soft
    assert softs[:8] == [((-vm.misclass_var(i),), 1) for i in range(1, 9)]
    assert softs[8:] == [((vm.unused_var(j),), 4) for j in range(1, 8)]
    assert bundle.formula.top_weight() == 1 + 8 + 7 * 4
    assert bundle.lambda_cost == 4


def test_builders_reject_bad_requests(ex1):
    with pytest.raises(EncodingError, match="at least one node"):
        build_perfect(ex1, 0, Scope.aggregated())
    empty = BinDataset(2, ["0", "1"], ["a", "b"], [])
    with pytest.raises(EncodingError, match="at least one example"):
        build_perfect(empty, 3, Scope.aggregated())
    with pytest.raises(EncodingError, match="node cost >= 1"):
        build_sparse(ex1, 3, 0, Scope.aggregated())
    with pytest.raises(EncodingError, match="needs exactly 2 classes"):
        build_perfect(
            BinDataset(1, ["a", "b", "c"], ["x"], [((0,), 0, 1)]),
            2,
            Scope.aggregated(),
        )


@pytest.mark.parametrize(
    "scope,sizes",
    [
        (Scope.aggregated(), [(161, 817, 0, 2435), (168, 864, 7, 2550), (176, 864, 15, 2622)]),
        (Scope.per_class(0), [(133, 739, 0, 2230), (140, 786, 7, 2345), (148, 786, 15, 2414)]),
        (Scope.per_class(1), [(119, 695, 0, 2118), (126, 742, 7, 2233), (134, 742, 15, 2300)]),
    ],
)
def test_build_sizes_are_pinned(ex1, scope, sizes):
    # (vars, hard clauses, soft clauses, literals) of the perfect, bounded
    # and sparse encodings of ex1 at 7 nodes; the node-major layout
    # renumbers variables but emits the same clauses
    bundles = [build_perfect(ex1, 7, scope), build_bounded(ex1, 7, scope),
               build_sparse(ex1, 7, 3, scope)]
    got = [(b.formula.num_vars, len(b.formula.hard), len(b.formula.soft),
            b.formula.literal_count()) for b in bundles]
    assert got == sizes


def test_build_is_deterministic(ex1):
    b1 = build_sparse(ex1, 5, 3, Scope.aggregated())
    b2 = build_sparse(ex1, 5, 3, Scope.aggregated())
    assert b1.formula.hard == b2.formula.hard
    assert b1.formula.soft == b2.formula.soft
    assert b1.formula.num_vars == b2.formula.num_vars


class RecordingSink:
    """A clause sink that keeps every clause exactly as it arrives and,
    like a Solver, counts the variables its clauses name."""

    def __init__(self):
        self.clauses = []
        self.num_vars = 0

    def add_clause(self, lits):
        self.clauses.append(tuple(lits))
        self.ensure_vars(max(abs(l) for l in lits))

    def ensure_vars(self, n):
        self.num_vars = max(self.num_vars, n)


def _dataset(rng, k, m):
    """m distinct random rows over k features, both classes, weights 1-3."""
    return BinDataset(k, ["0", "1"], ["f%d" % f for f in range(k)],
                      [(tuple((v >> f) & 1 for f in range(k)), rng.randrange(2), rng.randint(1, 3))
                       for v in rng.sample(range(1 << k), m)])


def test_encoder_emits_canonical_clauses_in_build_order():
    # a search's clauses go from the Encoder straight into its Solver, whose
    # add_trusted checks no literal; so every clause must already be what
    # normalize_clause makes of it, and the sequence must be the one a
    # built Formula holds; beside small random data, two datasets of 20
    # and more features, whose node choices take exactly_one's ladder, and
    # two of 16 and 40 rows; sparse mode puts each misclassification flag
    # first.  A guarded build emits the same clauses, the guard first in
    # each clause of the ending
    rng = random.Random(606)
    cases = []
    for trial in range(15):
        ds = random_dataset(rng, max_m=5, max_k=3, weighted=True)
        cases.append((ds, rng.randint(1, 4)))
    cases += [(_dataset(rng, k, m), n) for k, m, n in ((20, 4, 3), (23, 3, 2), (4, 16, 3),
                                                         (6, 40, 2))]
    for trial, (ds, n) in enumerate(cases):
        for scope in (Scope.aggregated(), Scope.per_class(0), Scope.per_class(1)):
            for mode, bundle in (("perfect", build_perfect(ds, n, scope)),
                                 ("bounded", build_bounded(ds, n, scope)),
                                 ("sparse", build_sparse(ds, n, 2, scope))):
                sinks = sink, guarded = RecordingSink(), RecordingSink()
                encs = [Encoder(ds, scope, mode, s, 2 if mode == "sparse" else None)
                        for s in sinks]
                assert encs[0].build(n)
                assert all(normalize_clause(c) == c for c in sink.clauses), (trial, mode)
                assert sink.clauses == bundle.formula.hard, (trial, scope, mode)
                assert sink.num_vars == bundle.formula.num_vars
                assert encs[0].soft() == bundle.formula.soft
                g = encs[1].build(n, guarded=True)
                assert [c[1:] if c[0] == -g else c for c in guarded.clauses] == sink.clauses
                assert sum(c[0] == -g for c in guarded.clauses) == 1 + len(encs[1].covered)
    assert max(ds.num_features for ds, _ in cases) > 20
    assert max(ds.num_examples for ds, _ in cases) == 40


class CheckedSink:
    """Feeds a Solver through add_clause only: it has no add_trusted."""

    def __init__(self, solver):
        self.solver = solver

    def add_clause(self, lits):
        self.solver.add_clause(lits)

    def ensure_vars(self, n):
        self.solver.ensure_vars(n)


def solver_state(s):
    return s._watches, s._trail, s.num_vars, s._n_problem_clauses, s.ok


def test_trusted_clauses_build_the_solver_add_clause_builds():
    # an Encoder feeds its Solver through add_trusted, which checks no
    # literal; the solver must come out as add_clause would build it, also
    # where literals are fixed at the root: node 1's validity units, what
    # a solve propagates, and a retired guard; the wide dataset's node
    # choices take the ladder, whose auxiliaries must be reserved as well
    rng = random.Random(1313)
    wide = BinDataset(20, ["0", "1"], ["f%d" % f for f in range(20)],
                      [(tuple(rng.randrange(2) for _ in range(20)), cls, 1) for cls in (0, 1, 1)])
    datasets = [random_dataset(rng, max_m=5, max_k=3, weighted=True) for _ in range(12)]
    for trial, ds in enumerate(datasets + [wide]):
        n = rng.randint(1, 3)
        grow = rng.randint(1, 2)
        for scope in (Scope.aggregated(), Scope.per_class(0), Scope.per_class(1)):
            for mode in ("perfect", "bounded", "sparse"):
                solvers = trusted, checked = Solver(), Solver()
                encoders = [Encoder(ds, scope, mode, sink, 2 if mode == "sparse" else None)
                            for sink in (trusted, CheckedSink(checked))]
                for budget in (n, n + grow):
                    guards = [enc.build(budget, guarded=True) for enc in encoders]
                    assert solver_state(trusted) == solver_state(checked), (trial, scope, mode)
                    for solver, guard in zip(solvers, guards):
                        solver.solve([guard])
                        solver.add_clause([-guard])
                assert solver_state(trusted) == solver_state(checked), (trial, scope, mode)


# ------------------------------------------------------- encoding semantics


def test_forced_node_table_decodes_known_rules(ex1):
    # pin the seven nodes to a known exact classifier, class-0 rules first:
    # a positive sleep literal closing on class 0, a positive caffeine
    # literal closing on class 0, and a negative sleep and negative
    # caffeine pair closing on class 1
    bundle = build_perfect(ex1, 7, Scope.aggregated())
    vm = bundle.varmap
    table = [
        (1, True), (5, False),
        (2, True), (5, False),
        (1, False), (2, False), (5, True),
    ]
    assumptions = []
    for j, (r, truth) in enumerate(table, start=1):
        assumptions.append(vm.select_var(j, r))
        assumptions.append(vm.truth_var(j) if truth else -vm.truth_var(j))
    sat, model = solve_bundle(bundle, assumptions)
    assert sat
    dset = decode(model, vm, bundle.scope, bundle.classes)
    assert dset.total_size == 7
    assert set(dset.rules) == {
        Rule(body=((0, True),), head=0),
        Rule(body=((0, False), (1, False)), head=1),
        Rule(body=((1, True),), head=0),
    }
    ok, witness = verify_perfect(dset, ex1, bundle.scope)
    assert ok, witness


def test_aggregated_encoding_admits_only_class_0_rules_first(ex1):
    # the known classifier's three rules in each of their six orders: a
    # sequence is a model exactly when the class-1 rule comes last, in the
    # perfect encoding and in a bounded one whose last two nodes are unused
    rules = [Rule(((0, True),), 0), Rule(((1, True),), 0),
             Rule(((0, False), (1, False)), 1)]
    perfect = build_perfect(ex1, 7, Scope.aggregated())
    bounded = build_bounded(ex1, 9, Scope.aggregated())
    admitted = 0
    for order in permutations(rules):
        in_class_order = order[-1].head == 1
        for bundle, extra in ((perfect, []), (bounded, [bounded.varmap.unused_var(8)])):
            sat, model = solve_bundle(bundle, forced_rules(bundle.varmap, order) + extra)
            assert sat == in_class_order, (order, bundle.mode)
            if sat:
                dset = decode(model, bundle.varmap, bundle.scope, bundle.classes)
                assert (dset.rules, dset.total_size) == (list(order), 7)
                admitted += 1
    assert admitted == 4  # two orders, two encodings


def test_validity_chain_matches_resimulation(ex1):
    bundle = build_perfect(ex1, 7, Scope.aggregated())
    sat, model = solve_bundle(bundle)
    assert sat
    vm = bundle.varmap
    for i, (bits, _, _) in enumerate(ex1.examples, start=1):
        valid = True
        for j in range(1, 8):
            assert model.lit_true(vm.valid_var(i, j)) == valid
            is_leaf = model.lit_true(vm.class_sel_var(j))
            if is_leaf:
                valid = True
                continue
            feature = next(
                r for r in range(1, 5) if model.lit_true(vm.select_var(j, r))
            )
            truth = model.lit_true(vm.truth_var(j))
            valid = valid and (bits[feature - 1] == (1 if truth else 0))


def test_used_nodes_validities_follow_from_selectors_and_truths():
    # fix a model's selectors, truths and unused flags: every validity of
    # a node up to the last leaf is then forced, so flipping any one of
    # them leaves no model, in every mode and scope
    rng = random.Random(1414)
    encodings = {"perfect": build_perfect, "bounded": build_bounded,
                 "sparse": lambda ds, n, scope: build_sparse(ds, n, 2, scope)}
    flipped = 0
    for trial in range(10):
        ds = random_dataset(rng, max_m=5, max_k=3)
        for scope in (Scope.aggregated(), Scope.per_class(0), Scope.per_class(1)):
            for mode, build in encodings.items():
                n = rng.randint(2, 5)
                while True:
                    bundle = build(ds, n, scope)
                    solver = Solver()
                    solver.add_formula(bundle.formula)
                    if solver.solve():
                        break
                    n += 1
                vm, model = bundle.varmap, solver.model
                fixed = [vm.select_var(j, r) for j in range(1, n + 1)
                         for r in range(1, vm.n_features + 2)]
                fixed += [vm.truth_var(j) for j in range(1, n + 1)]
                if vm.has_unused:
                    fixed += [vm.unused_var(j) for j in range(1, n + 1)]
                fixed = [v if model.lit_true(v) else -v for v in fixed]
                leaves = [j for j in range(1, n + 1) if model.lit_true(vm.class_sel_var(j))
                          and not (vm.has_unused and model.lit_true(vm.unused_var(j)))]
                for j in range(1, max(leaves, default=0) + 1):
                    for i in range(1, ds.num_examples + 1):
                        v = vm.valid_var(i, j)
                        flip = -v if model.lit_true(v) else v
                        assert not solver.solve(fixed + [flip]), (trial, scope, mode, i, j)
                        flipped += 1
    assert flipped > 500


def test_perfect_unsat_below_minimum(ex1):
    bundle = build_perfect(ex1, 3, Scope.aggregated())
    sat, _ = solve_bundle(bundle)
    assert not sat


def test_per_class_heads_and_minimum(ex1):
    bundle = build_perfect(ex1, 3, Scope.per_class(1))
    sat, model = solve_bundle(bundle)
    assert sat
    dset = decode(model, bundle.varmap, bundle.scope, bundle.classes)
    assert all(rule.head == 1 for rule in dset.rules)
    ok, witness = verify_perfect(dset, ex1, bundle.scope)
    assert ok, witness
    sat, _ = solve_bundle(build_perfect(ex1, 2, Scope.per_class(1)))
    assert not sat


def test_bounded_cannot_switch_everything_off(ex1):
    bundle = build_bounded(ex1, 3, Scope.aggregated())
    vm = bundle.varmap
    sat, _ = solve_bundle(bundle, [vm.unused_var(j) for j in range(1, 4)])
    assert not sat
    sat, _ = solve_bundle(bundle)
    assert not sat  # 3 nodes cannot fit data that needs 7


def test_sparse_all_unused_forces_misclassification(ex1):
    bundle = build_sparse(ex1, 2, 4, Scope.aggregated())
    vm = bundle.varmap
    sat, model = solve_bundle(bundle, [vm.unused_var(1), vm.unused_var(2)])
    assert sat
    assert all(model.lit_true(vm.misclass_var(i)) for i in range(1, 9))
    dset = decode(model, vm, bundle.scope, bundle.classes)
    assert dset.rules == []
    assert dset.total_size == 0


def test_sparse_per_class_only_covers_target(ex1):
    bundle = build_sparse(ex1, 1, 1, Scope.per_class(1))
    vm = bundle.varmap
    sat, model = solve_bundle(bundle, [vm.unused_var(1)])
    assert sat
    targets = [i for i, (_, cls, _) in enumerate(ex1.examples, start=1) if cls == 1]
    assert all(model.lit_true(vm.misclass_var(i)) for i in targets)


def test_bounded_scope_without_targets_allows_empty_model():
    ds = BinDataset(2, ["0", "1"], ["a", "b"],
                    [((0, 1), 1, 1), ((1, 1), 1, 1)])
    bundle = build_bounded(ds, 2, Scope.per_class(0))
    vm = bundle.varmap
    sat, model = solve_bundle(bundle, [vm.unused_var(1), vm.unused_var(2)])
    assert sat
    dset = decode(model, vm, bundle.scope, bundle.classes)
    assert dset.rules == []
