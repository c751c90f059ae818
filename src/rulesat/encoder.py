"""CNF builders for minimum-size decision set training.

A candidate classifier is laid out as a sequence of N nodes.  Every node
either carries a feature literal or closes the current rule with a class
literal (a leaf).  Per node j the encoding allocates selector variables
(one per feature plus one for the class), a truth variable giving the
node's polarity, and per example i a validity variable that tracks
whether example i still matches the rule prefix ending at node j.

Three model variants share that skeleton:

* perfect   - every node used, classifier must fit the data exactly
* bounded   - nodes may be switched off by unused flags (soft, weight 1),
              classifier must still fit exactly
* sparse    - additionally, per-example misclassification indicators buy
              freedom from fitting; their weights are the example weights
              and each used node costs a fixed integer penalty
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .dataset import BinDataset
from .formula import Formula

PAIRWISE_LIMIT = 20


class EncodingError(ValueError):
    """Invalid scope, node count, or penalty for an encoding request."""


@dataclass(frozen=True)
class Scope:
    """Which examples a training model must classify.

    aggregated: one model predicts both classes of a binary dataset; the
    node truth value at a leaf picks the class.  per_class: the model
    only predicts the target class, leaves are forced positive, and
    examples of other classes must simply stay uncovered.
    """

    kind: str
    target: int | None = None

    @staticmethod
    def aggregated() -> "Scope":
        return Scope(kind="aggregated")

    @staticmethod
    def per_class(target: int) -> "Scope":
        return Scope(kind="per_class", target=target)

    @property
    def is_aggregated(self) -> bool:
        return self.kind == "aggregated"

    def validate(self, num_classes: int) -> None:
        if self.kind == "aggregated":
            if self.target is not None:
                raise EncodingError("aggregated scope takes no target class")
            if num_classes != 2:
                raise EncodingError(
                    "aggregated scope needs exactly 2 classes, dataset has %d" % num_classes
                )
        elif self.kind == "per_class":
            if self.target is None or not 0 <= self.target < num_classes:
                raise EncodingError("per-class scope target %r out of range" % (self.target,))
        else:
            raise EncodingError("unknown scope kind %r" % (self.kind,))


@dataclass
class VarMap:
    """Variable ids for one encoding instance.

    Core blocks come first in a fixed order (selectors, truths,
    validities, then unused and misclassification flags when present);
    auxiliary variables follow.
    """

    n_nodes: int
    n_features: int
    n_examples: int
    has_unused: bool = False
    has_misclass: bool = False
    num_vars: int = 0

    def __post_init__(self):
        base = self.n_nodes * (self.n_features + 1) + self.n_nodes
        base += self.n_examples * self.n_nodes
        if self.has_unused:
            base += self.n_nodes
        if self.has_misclass:
            base += self.n_examples
        self._core = base
        if self.num_vars < base:
            self.num_vars = base

    @property
    def core_vars(self) -> int:
        return self._core

    def select_var(self, j: int, r: int) -> int:
        """Node j picks feature r; r = n_features + 1 is the class feature."""
        assert 1 <= j <= self.n_nodes and 1 <= r <= self.n_features + 1
        return (j - 1) * (self.n_features + 1) + r

    def class_sel_var(self, j: int) -> int:
        return self.select_var(j, self.n_features + 1)

    def truth_var(self, j: int) -> int:
        assert 1 <= j <= self.n_nodes
        return self.n_nodes * (self.n_features + 1) + j

    def valid_var(self, i: int, j: int) -> int:
        assert 1 <= i <= self.n_examples and 1 <= j <= self.n_nodes
        return self.n_nodes * (self.n_features + 2) + (i - 1) * self.n_nodes + j

    def unused_var(self, j: int) -> int:
        assert self.has_unused and 1 <= j <= self.n_nodes
        return self.n_nodes * (self.n_features + 2) + self.n_examples * self.n_nodes + j

    def misclass_var(self, i: int) -> int:
        assert self.has_misclass and 1 <= i <= self.n_examples
        return (
            self.n_nodes * (self.n_features + 3)
            + self.n_examples * self.n_nodes
            + i
        )

    def new_aux(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def to_json_dict(self) -> dict:
        doc = {
            "n_nodes": self.n_nodes,
            "n_features": self.n_features,
            "n_examples": self.n_examples,
            "num_vars": self.num_vars,
            "select": [
                [self.select_var(j, r) for r in range(1, self.n_features + 2)]
                for j in range(1, self.n_nodes + 1)
            ],
            "truth": [self.truth_var(j) for j in range(1, self.n_nodes + 1)],
            "valid": [
                [self.valid_var(i, j) for j in range(1, self.n_nodes + 1)]
                for i in range(1, self.n_examples + 1)
            ],
        }
        if self.has_unused:
            doc["unused"] = [self.unused_var(j) for j in range(1, self.n_nodes + 1)]
        if self.has_misclass:
            doc["misclass"] = [self.misclass_var(i) for i in range(1, self.n_examples + 1)]
        return doc


@dataclass
class CnfBundle:
    formula: Formula
    varmap: VarMap
    scope: Scope
    mode: str  # "perfect" | "bounded" | "sparse"
    classes: list[str]
    lambda_cost: int | None = None


def exactly_one(lits, new_var=None, pairwise_limit: int = PAIRWISE_LIMIT) -> list[list[int]]:
    """Clauses forcing exactly one of lits true.

    Uses the pairwise encoding up to pairwise_limit literals and a
    sequential ladder above it (ladder needs new_var for auxiliaries).
    Models restricted to lits are exactly the unit-weight assignments.
    """
    lits = list(lits)
    if not lits:
        raise EncodingError("exactly_one over an empty literal list")
    clauses: list[list[int]] = [list(lits)]
    n = len(lits)
    if n == 1:
        return clauses
    if n <= pairwise_limit:
        for a in range(n):
            for b in range(a + 1, n):
                clauses.append([-lits[a], -lits[b]])
        return clauses
    if new_var is None:
        raise EncodingError("ladder encoding needs a variable allocator")
    # sequential ladder: y_i says "one of the first i literals is true"
    ys = [new_var() for _ in range(n - 1)]
    clauses.append([-lits[0], ys[0]])
    for i in range(1, n - 1):
        clauses.append([-lits[i], ys[i]])
        clauses.append([-ys[i - 1], ys[i]])
        clauses.append([-lits[i], -ys[i - 1]])
    clauses.append([-lits[n - 1], -ys[n - 2]])
    return clauses


def lam_to_cost(lam, m_effective: int) -> int:
    """Integer per-node penalty: ceil(lam * m_effective), at least 1.

    Floats are read at decimal precision (0.1 means one tenth), so
    lam_to_cost(0.1, 30) is exactly 3.
    """
    if m_effective < 1:
        raise EncodingError("m_effective must be >= 1")
    if isinstance(lam, float):
        frac = Fraction(str(lam))
    else:
        frac = Fraction(lam)
    if frac < 0:
        raise EncodingError("lambda must be >= 0")
    return max(1, ceil(frac * m_effective))


class _Builder:
    def __init__(self, ds: BinDataset, n_nodes: int, scope: Scope, mode: str,
                 lambda_cost: int | None = None):
        scope.validate(len(ds.classes))
        if n_nodes < 1:
            raise EncodingError("need at least one node, got %d" % n_nodes)
        if ds.num_examples < 1:
            raise EncodingError("need at least one example")
        if mode == "sparse":
            if lambda_cost is None or lambda_cost < 1:
                raise EncodingError("sparse mode needs an integer node cost >= 1")
        self.ds = ds
        self.n = n_nodes
        self.k = ds.num_features
        self.m = ds.num_examples
        self.scope = scope
        self.mode = mode
        self.lambda_cost = lambda_cost if mode == "sparse" else None
        self.vm = VarMap(
            n_nodes=self.n,
            n_features=self.k,
            n_examples=self.m,
            has_unused=mode in ("bounded", "sparse"),
            has_misclass=mode == "sparse",
        )
        self.formula = Formula(num_vars=self.vm.num_vars)
        if scope.is_aggregated:
            self.bits = [cls for _, cls, _ in ds.examples]
        else:
            self.bits = [1 if cls == scope.target else 0 for _, cls, _ in ds.examples]
        if scope.is_aggregated:
            self.covered = list(range(1, self.m + 1))
        else:
            self.covered = [i + 1 for i, b in enumerate(self.bits) if b == 1]

    def _new_aux(self) -> int:
        v = self.vm.new_aux()
        if v > self.formula.num_vars:
            self.formula.num_vars = v
        return v

    def _truth_lit(self, j: int, bit: int) -> int:
        t = self.vm.truth_var(j)
        return t if bit else -t

    def _node_choice(self) -> None:
        vm, add = self.vm, self.formula.add_hard
        for j in range(1, self.n + 1):
            row = [vm.select_var(j, r) for r in range(1, self.k + 2)]
            if vm.has_unused:
                row = [vm.unused_var(j)] + row
            for clause in exactly_one(row, new_var=self._new_aux):
                add(clause)

    def _termination(self) -> None:
        vm, add = self.vm, self.formula.add_hard
        if self.mode == "perfect":
            add([vm.class_sel_var(self.n)])
            return
        # unused nodes form a suffix, entered only right after a leaf
        for j in range(1, self.n):
            add([-vm.unused_var(j), vm.unused_var(j + 1)])
            add([-vm.unused_var(j + 1), vm.unused_var(j), vm.class_sel_var(j)])
        add([vm.unused_var(self.n), vm.class_sel_var(self.n)])

    def _validity_chain(self) -> None:
        vm, add, ds = self.vm, self.formula.add_hard, self.ds
        for i in range(1, self.m + 1):
            add([vm.valid_var(i, 1)])
        for i, (bits, _, _) in enumerate(ds.examples, start=1):
            for j in range(1, self.n):
                agree = self._new_aux()
                if self.k == 0:
                    add([-agree])
                for r in range(1, self.k + 1):
                    sel = vm.select_var(j, r)
                    tau = self._truth_lit(j, bits[r - 1])
                    add([-sel, -tau, agree])  # matching literal marks agreement
                    add([-agree, -sel, tau])  # agreement at this node implies the match
                add([-agree, -vm.class_sel_var(j)])
                leaf = vm.class_sel_var(j)
                v_next = vm.valid_var(i, j + 1)
                v_cur = vm.valid_var(i, j)
                add([-leaf, v_next])  # a leaf resets validity for the next rule
                add([-v_cur, -agree, v_next])
                add([-v_next, leaf, v_cur])
                add([-v_next, leaf, agree])

    def _class_agreement(self) -> None:
        vm, add = self.vm, self.formula.add_hard
        for i in range(1, self.m + 1):
            bit = self.bits[i - 1]
            for j in range(1, self.n + 1):
                clause = [-vm.class_sel_var(j), -vm.valid_var(i, j), self._truth_lit(j, bit)]
                if self.mode == "sparse":
                    clause.append(vm.misclass_var(i))
                add(clause)

    def _coverage(self) -> None:
        vm, add = self.vm, self.formula.add_hard
        for i in self.covered:
            hits = []
            for j in range(1, self.n + 1):
                aux = self._new_aux()
                add([-aux, vm.class_sel_var(j)])
                add([-aux, vm.valid_var(i, j)])
                add([-vm.class_sel_var(j), -vm.valid_var(i, j), aux])
                hits.append(aux)
            clause = list(hits)
            if self.mode == "sparse":
                clause.append(vm.misclass_var(i))
            add(clause)

    def _per_class_heads(self) -> None:
        if self.scope.is_aggregated:
            return
        vm, add = self.vm, self.formula.add_hard
        for j in range(1, self.n + 1):
            add([-vm.class_sel_var(j), vm.truth_var(j)])

    def _softs(self) -> None:
        vm = self.vm
        if self.mode == "bounded":
            for j in range(1, self.n + 1):
                self.formula.add_soft([vm.unused_var(j)], 1)
        elif self.mode == "sparse":
            for i, (_, _, weight) in enumerate(self.ds.examples, start=1):
                self.formula.add_soft([-vm.misclass_var(i)], weight)
            for j in range(1, self.n + 1):
                self.formula.add_soft([vm.unused_var(j)], self.lambda_cost)

    def build(self) -> CnfBundle:
        self._node_choice()
        self._termination()
        self._validity_chain()
        self._class_agreement()
        self._coverage()
        self._per_class_heads()
        self._softs()
        return CnfBundle(
            formula=self.formula,
            varmap=self.vm,
            scope=self.scope,
            mode=self.mode,
            classes=list(self.ds.classes),
            lambda_cost=self.lambda_cost,
        )


def build_perfect(ds: BinDataset, n_nodes: int, scope: Scope) -> CnfBundle:
    """Exact-fit training model over exactly n_nodes nodes."""
    return _Builder(ds, n_nodes, scope, "perfect").build()


def build_bounded(ds: BinDataset, n_nodes: int, scope: Scope) -> CnfBundle:
    """Exact-fit model over at most n_nodes nodes; unused nodes are soft."""
    return _Builder(ds, n_nodes, scope, "bounded").build()


def build_sparse(ds: BinDataset, n_nodes: int, lambda_cost: int, scope: Scope) -> CnfBundle:
    """Accuracy/size trade-off model: misclassification flags cost their
    example weight, every used node costs lambda_cost."""
    return _Builder(ds, n_nodes, scope, "sparse", lambda_cost=lambda_cost).build()
