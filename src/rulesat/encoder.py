"""CNF builders for minimum-size decision set training.

A candidate classifier is laid out as a sequence of N nodes.  Every node
either carries a feature literal or closes the current rule with a class
literal (a leaf).  Per node j the encoding allocates selector variables
(one per feature plus one for the class), a truth variable giving the
node's polarity, and per example i a validity variable that tracks
whether example i still matches the rule prefix ending at node j.

Validity is tied straight to the previous node's selectors and truth
(Encoder._link).  With leaf_j node j's class selector, sel_r its selector
of feature r and tau_r the polarity of feature r that example i has:

    v(i, 1)
    v(i, j+1) <-> leaf_j or (v(i, j) and OR_r (sel_r and tau_r))

as the clauses [-leaf_j, v(i, j+1)], [-v(i, j+1), leaf_j, v(i, j)] and,
per feature r, [-v(i, j), -sel_r, -tau_r, v(i, j+1)] and
[-v(i, j+1), -sel_r, tau_r]: 2k + 2 clauses per example and node, and no
auxiliary.  On a used node exactly one selector is true, so the
validities of the node after it follow from selectors and truths alone.

Three model variants share that skeleton:

* perfect   - every node used, classifier must fit the data exactly
* bounded   - nodes may be switched off by unused flags (soft, weight 1),
              classifier must still fit exactly
* sparse    - additionally, per-example misclassification indicators buy
              freedom from fitting; their weights are the example weights
              and each used node costs a fixed integer penalty

Variables are numbered node by node (VarMap), and Encoder emits the
clauses one node at a time, so an encoding can grow by a node without
renumbering.  It writes into a clause sink: a search driver's Solver, or
the Formula of a build_* function.  Only the clauses that make the last
node the end of the sequence (termination and coverage) depend on which
node is last.  build() writes them after the last node: plainly for a
build_* function, or under a guard literal for a search driver, which
retires them with a unit before it grows the encoding further.

In aggregated scope the encoding also fixes the order of the rules:
every class-0 rule comes before every class-1 rule (one auxiliary per
node, see Encoder._class_order).  A decision set is unordered, so this
loses no set and spares the solver refuting every ordering of the same
candidate rules.  The models keep the same sets and sizes because:

* any decision set can list its class-0 rules first;
* the validity chain restarts after each leaf, so what a rule covers,
  and its size, do not depend on where it stands;
* the unused suffix and the guarded ending do not depend on which rule
  is last.

So an UNSAT answer for the ordered encoding is one for decision sets.
Per-class encodings have one head and carry no such clauses.

The aggregated encodings serve the sparse search and `rulesat encode`
only: an exact fit splits by class, so the opt and mopt searches run per
class in every scope and join the rules (optimizer._join).
"""

from __future__ import annotations

from math import ceil

from .dataset import BinDataset
from .formula import Formula

PAIRWISE_LIMIT = 20


class EncodingError(ValueError):
    """Invalid scope, node count, or penalty for an encoding request."""


class Scope:
    """Which examples a training model must classify.

    aggregated: one model predicts both classes of a binary dataset; the
    node truth value at a leaf picks the class.  per_class: the model
    only predicts the target class, leaves are forced positive, and
    examples of other classes must simply stay uncovered.

    A scope is an immutable value: equal kind and target, equal scope.
    """

    def __init__(self, kind: str, target: int | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "target", target)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a Scope" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.target) == (other.kind, other.target)

    def __hash__(self):
        return hash((self.kind, self.target))

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


class VarMap:
    """Variable ids for one encoding instance, laid out node by node.

    The misclassification flags, when present, take ids 1..n_examples.
    Each node j then gets a block of core ids starting at first_id(j):
    its selectors, its truth variable, its validities (one per example)
    and its unused flag when present.  Auxiliary variables allocated
    while a node is encoded follow that node's block, so appending a
    node never renumbers the earlier ones.
    """

    def __init__(self, n_nodes: int, n_features: int, n_examples: int,
                 has_unused: bool = False, has_misclass: bool = False):
        self.n_nodes = 0  # add_node counts up to n_nodes
        self.n_features = n_features
        self.n_examples = n_examples
        self.has_unused = has_unused
        self.has_misclass = has_misclass
        self.num_vars = n_examples if has_misclass else 0
        self._first: list[int] = []
        for _ in range(n_nodes):
            self.add_node()

    @property
    def _node_width(self) -> int:
        return self.n_features + 2 + self.n_examples + (1 if self.has_unused else 0)

    @property
    def core_vars(self) -> int:
        """Number of non-auxiliary variables."""
        flags = self.n_examples if self.has_misclass else 0
        return flags + self.n_nodes * self._node_width

    def add_node(self) -> int:
        """Lay out the next node's block after every id allocated so far."""
        self.n_nodes += 1
        self._first.append(self.num_vars + 1)
        self.num_vars += self._node_width
        return self.n_nodes

    def first_id(self, j: int) -> int:
        assert 1 <= j <= self.n_nodes
        return self._first[j - 1]

    def select_var(self, j: int, r: int) -> int:
        """Node j picks feature r; r = n_features + 1 is the class feature."""
        assert 1 <= j <= self.n_nodes and 1 <= r <= self.n_features + 1
        return self._first[j - 1] + r - 1

    def class_sel_var(self, j: int) -> int:
        assert 1 <= j <= self.n_nodes
        return self._first[j - 1] + self.n_features

    def truth_var(self, j: int) -> int:
        assert 1 <= j <= self.n_nodes
        return self._first[j - 1] + self.n_features + 1

    def valid_var(self, i: int, j: int) -> int:
        assert 1 <= i <= self.n_examples and 1 <= j <= self.n_nodes
        return self._first[j - 1] + self.n_features + 1 + i

    def unused_var(self, j: int) -> int:
        assert self.has_unused and 1 <= j <= self.n_nodes
        return self._first[j - 1] + self.n_features + 2 + self.n_examples

    def misclass_var(self, i: int) -> int:
        assert self.has_misclass and 1 <= i <= self.n_examples
        return i

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


class CnfBundle:
    def __init__(self, formula: Formula, varmap: VarMap, scope: Scope, mode: str,
                 classes: list[str], lambda_cost: int | None = None):
        self.formula = formula
        self.varmap = varmap
        self.scope = scope
        self.mode = mode  # "perfect" | "bounded" | "sparse"
        self.classes = classes
        self.lambda_cost = lambda_cost


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
    from fractions import Fraction  # only sparse charges a penalty: import on use

    if m_effective < 1:
        raise EncodingError("m_effective must be >= 1")
    try:
        frac = Fraction(str(lam)) if isinstance(lam, float) else Fraction(lam)
    except (ValueError, OverflowError):  # nan, inf
        raise EncodingError("lambda must be a finite number, got %r" % (lam,)) from None
    if frac < 0:
        raise EncodingError("lambda must be >= 0")
    return max(1, ceil(frac * m_effective))


class Encoder:
    """A node-sequence encoding that grows one node at a time.

    append_node() emits every clause of the next node into sink, a Solver
    or a Formula: its selector choice, its links to the previous node
    (validity chain and unused suffix), class agreement, its coverage
    auxiliaries and its forced head (per class) or its place in the class
    order (aggregated).  The class order admits exactly the sequences that
    list every class-0 rule before every class-1 rule; each decision set
    has such a listing, and a rule's coverage and size do not depend on
    its place, so the order changes no optimum.  build() grows the
    encoding and then writes the clauses that end the sequence at the
    last node, as another node would void them.

    Each clause is in id order, as normalize_clause sorts it, since a
    Solver watches its first two literals; only a guard goes first.  The
    VarMap layout gives that order: misclassification flags, then node j's
    selectors, truth t, validities (example i's is t + i), unused flag and
    auxiliaries, then node j + 1; only exactly_one's clauses are sorted.
    Each part of a node, and the ending, goes to the sink as one list: to
    a Solver's add_trusted, which checks no literal (so every id is
    reserved with sink.ensure_vars first), or else per clause to add_clause.
    """

    def __init__(self, ds: BinDataset, scope: Scope, mode: str, sink,
                 lambda_cost: int | None = None):
        scope.validate(len(ds.classes))
        if ds.num_examples < 1:
            raise EncodingError("need at least one example")
        if mode == "sparse":
            if lambda_cost is None or lambda_cost < 1:
                raise EncodingError("sparse mode needs an integer node cost >= 1")
        self.ds = ds
        self.k = ds.num_features
        self.m = ds.num_examples
        self.scope = scope
        self.mode = mode
        self.lambda_cost = lambda_cost if mode == "sparse" else None
        self.vm = VarMap(
            n_nodes=0,
            n_features=self.k,
            n_examples=self.m,
            has_unused=mode in ("bounded", "sparse"),
            has_misclass=mode == "sparse",
        )
        self.sink = sink
        self._put = getattr(sink, "add_trusted", None) or self._put_each
        if scope.is_aggregated:
            self.bits = [cls for _, cls, _ in ds.examples]
        else:
            self.bits = [1 if cls == scope.target else 0 for _, cls, _ in ds.examples]
        if scope.is_aggregated:
            self.covered = list(range(1, self.m + 1))
        else:
            self.covered = [i + 1 for i, b in enumerate(self.bits) if b == 1]
        # per covered example, the aux saying "node j's rule covers it"
        self._hits: list[list[int]] = [[] for _ in self.covered]
        self._order = 0  # s of the last node, in aggregated scope (see _class_order)

    def _put_each(self, clauses) -> None:
        for clause in clauses:
            self.sink.add_clause(clause)

    def _aux(self, count: int) -> list[int]:
        """count fresh auxiliary ids, reserved in the sink."""
        ids = [self.vm.new_aux() for _ in range(count)]
        self.sink.ensure_vars(self.vm.num_vars)
        return ids

    def append_node(self) -> None:
        """Lay out node n + 1 and emit its clauses."""
        vm = self.vm
        j = vm.add_node()
        self.sink.ensure_vars(vm.num_vars)
        self._node_choice(j)
        if j == 1:
            t = vm.truth_var(1)
            self._put([[t + i] for i in range(1, self.m + 1)])
        else:
            self._link(j - 1)
        self._class_agreement(j)
        self._coverage_aux(j)
        if self.scope.is_aggregated:
            self._class_order(j)
        else:
            self._put([[-vm.class_sel_var(j), vm.truth_var(j)]])

    def _class_order(self, j: int) -> None:
        """Node j's clauses of the class order.  Its auxiliary s_j says a
        class-1 leaf occurs at or before node j: a class-1 leaf sets it, it
        stays set, and once s_{j-1} is set a leaf at node j is class 1."""
        vm = self.vm
        leaf, t = vm.class_sel_var(j), vm.truth_var(j)
        prev, (s,) = self._order, self._aux(1)
        self._order = s
        self._put([[-leaf, -t, s], [-prev, s], [-prev, -leaf, t]] if prev else [[-leaf, -t, s]])

    def _node_choice(self, j: int) -> None:
        vm = self.vm
        row = [vm.select_var(j, r) for r in range(1, self.k + 2)]
        if vm.has_unused:
            row = [vm.unused_var(j)] + row
        clauses = exactly_one(row, new_var=vm.new_aux)
        self.sink.ensure_vars(vm.num_vars)  # the ladder's auxiliaries
        self._put([sorted(clause, key=abs) for clause in clauses])

    def _link(self, j: int) -> None:
        """Clauses tying node j + 1 to node j.  Per example i they encode

            v(i, j+1) <-> leaf_j or (v(i, j) and node j's literal matches i)

        as [-leaf, v_next] and [leaf, v_cur, -v_next], plus per feature r
        [-sel_r, -tau_r, -v_cur, v_next] and [-sel_r, tau_r, -v_next],
        where tau_r is the polarity that matches example i on feature r.
        Exactly one of node j's selectors is true, so sel_r excludes the
        leaf, and a used node's validities follow from the selectors and
        truths: 2k + 2 clauses per example and node, and no auxiliary."""
        vm = self.vm
        leaf, t, t_next = vm.class_sel_var(j), vm.truth_var(j), vm.truth_var(j + 1)
        clauses = []
        if vm.has_unused:
            # unused nodes form a suffix, entered only right after a leaf
            u, u_next = vm.unused_var(j), vm.unused_var(j + 1)
            clauses += [[-u, u_next], [leaf, u, -u_next]]
        sels = range(vm.select_var(j, 1), leaf)
        for i, (bits, _, _) in enumerate(self.ds.examples, start=1):
            v_cur, v_next = t + i, t_next + i
            for sel, bit in zip(sels, bits):
                tau = t if bit else -t
                clauses.append([-sel, -tau, -v_cur, v_next])  # a matching literal keeps validity
                clauses.append([-sel, tau, -v_next])  # validity past a literal needs its match
            clauses.append([-leaf, v_next])  # a leaf resets validity for the next rule
            clauses.append([leaf, v_cur, -v_next])
        self._put(clauses)

    def _class_agreement(self, j: int) -> None:
        leaf, t = self.vm.class_sel_var(j), self.vm.truth_var(j)
        clauses = [[-leaf, t if bit else -t, -t - i] for i, bit in enumerate(self.bits, start=1)]
        if self.mode == "sparse":  # example i's misclassification flag, id i, goes first
            clauses = [[i] + clause for i, clause in enumerate(clauses, start=1)]
        self._put(clauses)

    def _coverage_aux(self, j: int) -> None:
        leaf, t = self.vm.class_sel_var(j), self.vm.truth_var(j)
        clauses = []
        for i, hits, aux in zip(self.covered, self._hits, self._aux(len(self.covered))):
            clauses += ([leaf, -aux], [t + i, -aux], [-leaf, -t - i, aux])
            hits.append(aux)
        self._put(clauses)

    def build(self, n_nodes: int, stop=lambda: False, guarded: bool = False):
        """Grow the encoding to n_nodes nodes and end the sequence at the
        last: it closes a rule (or is unused), and some rule up to it covers
        each covered example (or, in sparse mode, flags it misclassified).

        Guarded, each of these clauses starts with the negation of a fresh
        literal g, so they bind only while g is assumed and the unit -g
        retires them; build() then returns g, else True.  It returns False,
        leaving the encoding unfinished, once stop() is true before a node.
        """
        vm = self.vm
        while vm.n_nodes < n_nodes:
            if stop():
                return False
            self.append_node()
        n = vm.n_nodes
        leaf = vm.class_sel_var(n)
        clauses = [[leaf, vm.unused_var(n)] if vm.has_unused else [leaf]]
        if self.mode == "sparse":
            clauses += [[vm.misclass_var(i)] + hits for i, hits in zip(self.covered, self._hits)]
        else:
            clauses += self._hits
        guard = [-self._aux(1)[0]] if guarded else []
        # fresh lists: a Solver keeps the lists it is given, and hits grow
        self._put([guard + clause for clause in clauses])
        return -guard[0] if guarded else True

    def soft(self) -> list[tuple[tuple[int, ...], int]]:
        """Weighted soft clauses: each example classified correctly, in
        sparse mode, then each node unused (weight 1 or the node cost)."""
        vm = self.vm
        flags = [((-vm.misclass_var(i),), w)
                 for i, (_, _, w) in enumerate(self.ds.examples, start=1) if vm.has_misclass]
        return flags + [((vm.unused_var(j),), self.lambda_cost or 1)
                        for j in range(1, vm.n_nodes + 1) if vm.has_unused]


def _build(ds: BinDataset, n_nodes: int, scope: Scope, mode: str,
           lambda_cost: int | None = None) -> CnfBundle:
    if n_nodes < 1:
        raise EncodingError("need at least one node, got %d" % n_nodes)
    formula = Formula()
    enc = Encoder(ds, scope, mode, formula, lambda_cost)
    enc.build(n_nodes)
    for clause, weight in enc.soft():
        formula.add_soft(clause, weight)
    return CnfBundle(
        formula=formula,
        varmap=enc.vm,
        scope=scope,
        mode=mode,
        classes=list(ds.classes),
        lambda_cost=enc.lambda_cost,
    )


def build_perfect(ds: BinDataset, n_nodes: int, scope: Scope) -> CnfBundle:
    """Exact-fit training model over exactly n_nodes nodes."""
    return _build(ds, n_nodes, scope, "perfect")


def build_bounded(ds: BinDataset, n_nodes: int, scope: Scope) -> CnfBundle:
    """Exact-fit model over at most n_nodes nodes; unused nodes are soft."""
    return _build(ds, n_nodes, scope, "bounded")


def build_sparse(ds: BinDataset, n_nodes: int, lambda_cost: int, scope: Scope) -> CnfBundle:
    """Accuracy/size trade-off model: misclassification flags cost their
    example weight, every used node costs lambda_cost."""
    return _build(ds, n_nodes, scope, "sparse", lambda_cost=lambda_cost)
