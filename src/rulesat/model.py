"""Decision set objects: decoding, verification, evaluation, serialization.

A decision set is an unordered collection of rules.  A rule body is a
conjunction of feature literals; the head names a class.  A rule covers
an example when every body literal matches; rule size is body length
plus one for the head, mirroring the node count that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from math import isnan
from operator import eq, itemgetter, mul, or_

from .dataset import BinDataset
from .encoder import Scope, VarMap
from .formula import Assignment


class ModelError(ValueError):
    """Inconsistent decision set, assignment, or serialized document."""


@dataclass(frozen=True)
class Rule:
    body: tuple[tuple[int, bool], ...]  # (feature index, required polarity)
    head: int  # class index
    # the coverage test, built once: a getter over the body's features
    # and the value it must return on a covered tuple of bits
    _pick: itemgetter = field(init=False, repr=False, compare=False)
    _want: int | tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        features = [f for f, _ in self.body]
        want = tuple(1 if positive else 0 for _, positive in self.body)
        if len(features) == 1:  # a one-item getter returns the bit, not a tuple
            pick, want = itemgetter(features[0]), want[0]
        elif features:
            pick = itemgetter(*features)
        else:
            pick = itemgetter(slice(0, 0))  # () for every tuple
        object.__setattr__(self, "_pick", pick)
        object.__setattr__(self, "_want", want)

    @property
    def size(self) -> int:
        return len(self.body) + 1

    def covers(self, bits: tuple) -> bool:
        return self._pick(bits) == self._want

    def render(self, feature_names, classes) -> str:
        if self.body:
            parts = []
            for f, positive in self.body:
                name = feature_names[f] if f < len(feature_names) else "f%d" % f
                parts.append(name if positive else "not " + name)
            lhs = " and ".join(parts)
        else:
            lhs = "true"
        return "%s => %s" % (lhs, classes[self.head])


@dataclass
class DecisionSet:
    rules: list[Rule]
    classes: list[str]
    total_size: int
    metadata: dict = field(default_factory=dict)

    @property
    def num_rules(self) -> int:
        return len(self.rules)


@dataclass
class EvalReport:
    num_examples: int  # weighted count of evaluated examples
    errors: int        # weighted count of misclassified examples
    accuracy: float
    per_example: list[str]
    separated_errors: int | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "examples": self.num_examples,
            "misclassified": self.errors,
            "accuracy": self.accuracy,
            "outcomes": list(self.per_example),
        }
        if self.separated_errors is not None:
            doc["separated_misclassified"] = self.separated_errors
        return doc


def decode(assignment: Assignment, varmap: VarMap, scope: Scope, classes) -> DecisionSet:
    """Read the rule set out of a satisfying assignment.

    Nodes flagged unused are skipped; every used node must either select
    exactly one feature (a body literal with the node truth value as its
    polarity) or the class feature (closing the current rule).
    """
    rules: list[Rule] = []
    body: list[tuple[int, bool]] = []
    used = 0
    for j in range(1, varmap.n_nodes + 1):
        if varmap.has_unused and assignment.lit_true(varmap.unused_var(j)):
            continue
        used += 1
        truth = assignment.lit_true(varmap.truth_var(j))
        if assignment.lit_true(varmap.class_sel_var(j)):
            if scope.is_aggregated:
                head = 1 if truth else 0
            else:
                head = scope.target
            seen = set()
            merged = []
            for lit in body:
                if lit not in seen:  # duplicate literals collapse for display
                    seen.add(lit)
                    merged.append(lit)
            rules.append(Rule(body=tuple(merged), head=head))
            body = []
            continue
        chosen = None
        for r in range(1, varmap.n_features + 1):
            if assignment.lit_true(varmap.select_var(j, r)):
                chosen = r
                break
        if chosen is None:
            raise ModelError("node %d selects neither a feature nor the class" % j)
        body.append((chosen - 1, truth))
    if body:
        raise ModelError("trailing body literals without a closing class node")
    return DecisionSet(rules=rules, classes=list(classes), total_size=used)


def verify_perfect(dset: DecisionSet, ds: BinDataset, scope: Scope) -> tuple[bool, tuple | None]:
    """Exact-fit check against a dataset.

    Scope-relevant examples must be covered by at least one rule of their
    own class, and no example may be covered by a rule of a different
    class.  Returns (ok, first violation) where a violation is
    ("wrong-cover", example index, rule index) or ("uncovered", example
    index, None).
    """
    scope.validate(len(ds.classes))
    for i, (bits, cls, _) in enumerate(ds.examples):
        own = False
        for ri, rule in enumerate(dset.rules):
            if not rule.covers(bits):
                continue
            if rule.head == cls:
                own = True
            else:
                return False, ("wrong-cover", i, ri)
        needs_cover = scope.is_aggregated or cls == scope.target
        if needs_cover and not own:
            return False, ("uncovered", i, None)
    return True, None


def _class_map(dset: DecisionSet, ds: BinDataset) -> dict[int, int]:
    mapping = {}
    for idx, label in enumerate(dset.classes):
        if label not in ds.classes:
            raise ModelError("model class %r unknown to the dataset" % label)
        mapping[idx] = ds.classes.index(label)
    return mapping


def evaluate(dset: DecisionSet, ds: BinDataset, mode: str = "standard") -> EvalReport:
    """Score a decision set on a dataset.

    An example counts as misclassified when a rule of a wrong class
    covers it, or when no rule of its own class covers it.  Mode
    "separated" additionally reports the per-class tally where each
    wrongly covering class counts once and a missing own-class cover
    counts once.
    """
    if mode not in ("standard", "separated"):
        raise ModelError("evaluation mode must be 'standard' or 'separated'")
    for rule in dset.rules:
        for f, _ in rule.body:
            if f >= ds.num_features:
                raise ModelError(
                    "rule uses feature %d but the dataset has %d features"
                    % (f, ds.num_features)
                )
    head_map = _class_map(dset, ds)
    rows = [bits for bits, _, _ in ds.examples]
    # per row, the dataset classes whose rules cover it, as bits of a mask:
    # each rule tests every row in one map, and a class ORs its rules' bits
    masks = [0] * len(rows)
    for rule in dset.rules:
        hits = map(eq, map(rule._pick, rows), repeat(rule._want))
        masks = list(map(or_, masks, map(mul, hits, repeat(1 << head_map[rule.head]))))
    total = 0
    errors = 0
    separated = 0
    outcomes: list[str] = []
    for (_, cls, weight), mask in zip(ds.examples, masks):
        total += weight
        own = mask >> cls & 1
        wrong = (mask ^ own << cls).bit_count()
        if wrong:
            outcomes.append("wrong-class-covered")
            errors += weight
        elif not own:
            outcomes.append("non-classified")
            errors += weight
        else:
            outcomes.append("correct")
        separated += weight * (wrong + 1 - own)
    accuracy = 100.0 * (total - errors) / total if total else 100.0
    return EvalReport(
        num_examples=total,
        errors=errors,
        accuracy=accuracy,
        per_example=outcomes,
        separated_errors=separated if mode == "separated" else None,
    )


def serialize(dset: DecisionSet) -> dict:
    return {
        "classes": list(dset.classes),
        "rules": [
            {
                "body": [{"feature": f, "neg": not positive} for f, positive in rule.body],
                "head": rule.head,
            }
            for rule in dset.rules
        ],
        "total_size": dset.total_size,
        "metadata": dict(dset.metadata),
    }


def _is_int(value) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _check_numeric_bins(bins) -> None:
    """The stored binning of numeric columns: per column name, increasing
    numeric cut points and one string label per bin."""
    if not isinstance(bins, dict):
        raise ModelError("metadata numeric_bins must be an object")
    for name, entry in bins.items():
        cuts = entry.get("cuts") if isinstance(entry, dict) else None
        labels = entry.get("labels") if isinstance(entry, dict) else None
        if (
            not isinstance(cuts, list)
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) and not isnan(c)
                       for c in cuts)
            or not all(a < b for a, b in zip(cuts, cuts[1:]))
            or not isinstance(labels, list)
            or not all(isinstance(label, str) for label in labels)
            or len(labels) != len(cuts) + 1
        ):
            raise ModelError("metadata numeric_bins[%r] needs increasing numeric cuts and "
                             "one string label per bin" % name)


def deserialize(doc: dict) -> DecisionSet:
    if not isinstance(doc, dict):
        raise ModelError("model document must be an object")
    try:
        classes = doc["classes"]
        rules_doc = doc["rules"]
        total_size = doc["total_size"]
    except (KeyError, TypeError) as exc:
        raise ModelError("model document is missing %s" % exc) from None
    if (
        not isinstance(classes, list)
        or not classes
        or not all(isinstance(c, str) for c in classes)
    ):
        raise ModelError("classes must be a non-empty list of strings")
    if len(set(classes)) != len(classes):
        raise ModelError("classes must be distinct, got %r" % (classes,))
    if not _is_int(total_size) or total_size < 0:
        raise ModelError("total_size must be a non-negative int")
    if not isinstance(rules_doc, list):
        raise ModelError("rules must be a list")
    rules = []
    for rd in rules_doc:
        if not isinstance(rd, dict) or "body" not in rd or "head" not in rd:
            raise ModelError("each rule needs body and head")
        head = rd["head"]
        if not _is_int(head) or not 0 <= head < len(classes):
            raise ModelError("rule head %r out of range" % (head,))
        body = []
        for ld in rd["body"]:
            if (
                not isinstance(ld, dict)
                or not _is_int(ld.get("feature"))
                or ld["feature"] < 0
                or not isinstance(ld.get("neg"), bool)
            ):
                raise ModelError("bad body literal %r" % (ld,))
            body.append((ld["feature"], not ld["neg"]))
        rules.append(Rule(body=tuple(body), head=head))
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ModelError("metadata must be an object")
    names = metadata.get("feature_names", [])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ModelError("metadata feature_names must be a list of strings")
    _check_numeric_bins(metadata.get("numeric_bins", {}))
    return DecisionSet(rules=rules, classes=list(classes), total_size=total_size,
                       metadata=dict(metadata))


def save_model(dset: DecisionSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize(dset), fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> DecisionSet:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError("invalid JSON: %s" % exc) from None
        except UnicodeDecodeError as exc:
            raise ModelError("%s is not UTF-8 text: %s" % (path, exc)) from None
    return deserialize(doc)
