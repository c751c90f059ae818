"""CSV ingestion, quantization, one-hot binarization, and CV folds.

The path from a CSV file to a BinDataset works by column and by
distinct value, in C-level operations.  load_csv splits the whole body
at once and slices its columns; only when a bulk check finds a ragged
row, an empty cell or a quote does it walk the lines, to name the first
bad cell.  binarize codes each column's distinct values once and gives
each row one int key over its codes and its class; the rows then share
one example tuple per distinct key.

A BinDataset checks its examples when it is constructed.  binarize
constructs one on its distinct examples, so each is checked once, and
derives the rows from it; subset, sanitize and fold_carriers build
theirs from rows already checked and do not check them again.  Folds
copy no rows: fold_carriers groups the rows once into their distinct
examples, and each fold trains and scores on those, weighted by their
counts in the fold.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from math import ceil, isnan
from operator import add, mul


MAX_CATEGORIES = 32  # the most distinct values binarize one-hots in a text column


class DatasetError(ValueError):
    """Malformed input data or invalid pipeline parameters."""


@dataclass
class RawDataset:
    """Header-labelled string table; the last CSV column is the class."""

    feature_names: list[str]
    class_name: str
    columns: list[list[str]]  # one list of values per feature
    labels: list[str]

    @property
    def num_examples(self) -> int:
        return len(self.labels)


@dataclass
class BinDataset:
    """Fully binarized dataset: examples are 0/1 feature vectors."""

    num_features: int
    classes: list[str]
    feature_names: list[str]
    examples: list[tuple[tuple[int, ...], int, int]]  # (bits, class index, weight)
    # numeric column name -> {"cuts": [...], "labels": [...]}: how binarize
    # binned it, so that other data can be binned the same way
    numeric_bins: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.feature_names) != self.num_features:
            raise DatasetError("feature name count does not match width")
        width = self.num_features
        num_classes = len(self.classes)
        for bits, cls, weight in self.examples:
            if not isinstance(bits, tuple):
                raise DatasetError("example bits must be a tuple, got %s" % type(bits).__name__)
            if len(bits) != width:
                raise DatasetError("example width %d, expected %d" % (len(bits), width))
            if bits.count(0) + bits.count(1) != width:
                raise DatasetError("non-binary feature value")
            if not 0 <= cls < num_classes:
                raise DatasetError("class index %d out of range" % cls)
            if weight < 1:
                raise DatasetError("example weight must be >= 1")

    @property
    def num_examples(self) -> int:
        return len(self.examples)

    @property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.examples)

    def subset(self, indices) -> "BinDataset":
        return self._derived(list(map(self.examples.__getitem__, indices)))

    def _derived(self, examples) -> "BinDataset":
        """A copy of this dataset's metadata over examples, which must be
        valid rows of it: they are not checked again."""
        out = object.__new__(BinDataset)
        out.num_features = self.num_features
        out.classes = list(self.classes)
        out.feature_names = list(self.feature_names)
        out.examples = examples
        out.numeric_bins = self.numeric_bins
        return out


@dataclass
class SanitizeReport:
    merged: int = 0   # weight units folded into duplicate carriers
    removed: int = 0  # weight units dropped with contradictory groups


@dataclass
class FoldPlan:
    num_folds: int
    seed: int
    assignments: list[int]  # example index -> fold index

    def test_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignments) if f == fold]

    def train_indices(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.assignments) if f != fold]


def load_csv(path: str) -> RawDataset:
    """Parse a comma-separated UTF-8 file with a header row, after a
    byte-order mark if it has one.

    The last column is the class label.  Fields and names may not be
    quoted; ragged rows and empty cells are rejected with their position.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise DatasetError("%s is not UTF-8 text: %s" % (path, exc)) from None
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise DatasetError("empty file: no header row")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 1 or any(not h for h in header):
        raise DatasetError("header row has an empty column name")
    for col, name in enumerate(header):
        if name.startswith('"') or name.endswith('"'):
            raise DatasetError("row 1, column %d: quoted fields are not supported" % (col + 1))
        if name in header[:col]:
            raise DatasetError("header row repeats the column name %r" % name)
    width = len(header)
    body = lines[1:]
    text = ",".join(body)
    cells = list(map(str.strip, text.split(","))) if body else []
    # three bulk checks; only when one fails is each line looked at
    if body and (set(map(str.count, body, repeat(","))) != {width - 1}
                 or "" in cells or '"' in text):
        _find_bad_cell(body, header)
    return RawDataset(feature_names=header[:-1], class_name=header[-1],
                      columns=[cells[c::width] for c in range(width - 1)],
                      labels=cells[width - 1::width])


def _find_bad_cell(body: list[str], header: list[str]) -> None:
    """Raise the error of the first bad cell of body, the lines after the
    header, if it has one: a ragged row, an empty cell, or a cell that
    starts or ends with a quote."""
    width = len(header)
    for lineno, line in enumerate(body, start=2):
        cells = list(map(str.strip, line.split(",")))
        if len(cells) != width:
            raise DatasetError(
                "row %d: expected %d fields, got %d" % (lineno, width, len(cells))
            )
        if "" in cells or '"' in line:  # some cell may be bad: find the first
            for col, cell in enumerate(cells):
                if not cell:
                    raise DatasetError(
                        "row %d, column %r: empty value" % (lineno, header[col])
                    )
                if cell.startswith('"') or cell.endswith('"'):
                    raise DatasetError(
                        "row %d, column %r: quoted fields are not supported"
                        % (lineno, header[col])
                    )


def _as_numbers(values: list[str]) -> list[float] | None:
    try:
        return list(map(float, values))
    except ValueError:
        return None


def _quantize(numbers: list[float], q: int) -> tuple[list[float], list[str]]:
    """Equal-frequency binning into at most q bins: the cut points and a
    label per bin.  A value's bin is the number of cuts strictly below it.

    Columns with at most q distinct values pass through untouched, one
    bin per value; this keeps 0/1 data fixed under re-binarization.
    """
    distinct = set(numbers)
    if len(distinct) <= q:
        distinct = sorted(distinct)
        return distinct[:-1], ["%g" % v for v in distinct]
    srt = sorted(numbers)
    m = len(srt)
    cuts = sorted({srt[ceil(m * k / q) - 1] for k in range(1, q)})
    # each cut is a value and lands in its own bin; the bin above the last
    # cut is empty when that cut is the largest value
    if cuts[-1] == srt[-1]:
        cuts.pop()
    return cuts, ["bin%d" % i for i in range(len(cuts) + 1)]


def binarize(raw: RawDataset, q: int = 2, numeric_bins: dict | None = None) -> BinDataset:
    """Quantize numeric columns and one-hot everything wider than one bit.

    Columns with exactly two values become a single bit, columns with d > 2
    values become d indicator bits, and constant columns become a single
    all-zero bit.  q must be 2, 3, or 4.  A NaN cell in a numeric column
    has no place in the bin order and is rejected with its row, numbered
    as in the CSV (the header is row 1).

    numeric_bins, shaped as BinDataset.numeric_bins (a trained model's, for
    example), fixes the cuts and labels of the columns it names, which
    must then be numeric; other numeric columns are binned from the data.
    """
    if q not in (2, 3, 4):
        raise DatasetError("quantization level must be 2, 3, or 4, got %r" % (q,))
    if raw.num_examples == 0:
        raise DatasetError("cannot binarize an empty dataset")
    fixed = numeric_bins or {}
    bins: dict = {}
    feature_names: list[str] = []
    classes = sorted(set(raw.labels))
    class_index = {c: i for i, c in enumerate(classes)}
    # each row's key: its class, then its code in each column, in mixed radix
    keys = list(map(class_index.__getitem__, raw.labels))
    pieces: list[tuple] = []  # per column: the bits of each of its codes
    for name, values in zip(raw.feature_names, raw.columns):
        distinct = list(dict.fromkeys(values))
        numbers = _as_numbers(distinct)
        if numbers is not None:
            if isnan(sum(numbers)):  # some value is NaN, or the column holds both infinities
                nans = {v for v, x in zip(distinct, numbers) if isnan(x)}
                for row, v in enumerate(values, start=2):
                    if v in nans:
                        raise DatasetError("row %d, column %r: NaN cannot be binned"
                                           % (row, name))
            if name in fixed:
                cuts, labels = fixed[name]["cuts"], fixed[name]["labels"]
                if len(labels) != len(cuts) + 1:  # a bin without a label has no code
                    raise DatasetError("numeric_bins[%r] needs one label per bin: %d cuts, "
                                       "%d labels" % (name, len(cuts), len(labels)))
            else:
                number_of = dict(zip(distinct, numbers))
                cuts, labels = _quantize(list(map(number_of.__getitem__, values)), q)
            bins[name] = {"cuts": list(cuts), "labels": list(labels)}
            code_of = dict(zip(distinct, map(bisect_left, repeat(cuts), numbers)))
        elif name in fixed:
            raise DatasetError("column %r is binned as numeric, but holds text" % name)
        else:
            labels = sorted(distinct)
            if len(labels) > MAX_CATEGORIES:
                raise DatasetError(
                    "column %r has %d categories, over the limit of %d"
                    % (name, len(labels), MAX_CATEGORIES)
                )
            code_of = {v: i for i, v in enumerate(labels)}
        d = len(labels)
        if d <= 2:  # one bit, 0 in a constant column
            feature_names.append(name)
            pieces.append(((0,), (1,))[:d])
        else:
            feature_names.extend("%s=%s" % (name, label) for label in labels)
            pieces.append(tuple(tuple(int(code == level) for level in range(d))
                                for code in range(d)))
        keys = list(map(add, map(mul, keys, repeat(d)), map(code_of.__getitem__, values)))

    def example(key: int) -> tuple[tuple[int, ...], int, int]:
        parts = []
        for piece in reversed(pieces):
            key, code = divmod(key, len(piece))
            parts.append(piece[code])
        return tuple(chain.from_iterable(reversed(parts))), key, 1

    # one example per distinct key, checked once; rows share them
    example_of = {key: example(key) for key in dict.fromkeys(keys)}
    distinct_examples = BinDataset(
        num_features=len(feature_names),
        classes=classes,
        feature_names=feature_names,
        examples=list(example_of.values()),
        numeric_bins=bins,
    )
    return distinct_examples._derived(list(map(example_of.__getitem__, keys)))


def sanitize(ds: BinDataset, mode: str) -> tuple[BinDataset, SanitizeReport]:
    """Merge duplicate examples into weights; optionally drop contradictions.

    mode "perfect" removes every group of identical feature vectors that
    carries more than one class; mode "sparse" keeps them (the training
    objective charges for them instead).
    """
    if mode not in ("perfect", "sparse"):
        raise DatasetError("sanitize mode must be 'perfect' or 'sparse'")
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    order: list[tuple[tuple[int, ...], int]] = []
    merged = 0
    for bits, cls, weight in ds.examples:
        by_class = groups.setdefault(bits, {})
        if cls in by_class:
            merged += weight
        else:
            order.append((bits, cls))
        by_class[cls] = by_class.get(cls, 0) + weight
    total = ds.total_weight
    examples = []
    for bits, cls in order:
        by_class = groups[bits]
        if mode == "perfect" and len(by_class) > 1:
            continue
        examples.append((bits, cls, by_class[cls]))
    report = SanitizeReport(merged=merged, removed=total - sum(w for _, _, w in examples))
    return ds._derived(examples), report


def kfold_split(ds: BinDataset, k: int, seed: int) -> FoldPlan:
    """Deterministic stratified k-fold assignment.

    Examples are shuffled within each class and dealt cyclically to folds
    with a single cursor shared across classes, so overall fold sizes
    differ by at most one and each class spreads as evenly as possible.
    """
    if k < 2:
        raise DatasetError("need at least 2 folds, got %d" % k)
    if ds.num_examples < k:
        raise DatasetError("cannot split %d examples into %d folds" % (ds.num_examples, k))
    rng = random.Random(seed)
    by_class: dict[int, list[int]] = {}
    for i, (_, cls, _) in enumerate(ds.examples):
        by_class.setdefault(cls, []).append(i)
    assignments = [0] * ds.num_examples
    cursor = rng.randrange(k)
    for cls in sorted(by_class):
        members = by_class[cls]
        rng.shuffle(members)
        for i in members:
            assignments[i] = cursor % k
            cursor += 1
    return FoldPlan(num_folds=k, seed=seed, assignments=assignments)


def fold_carriers(ds: BinDataset, plan: FoldPlan):
    """ds's rows as weighted carriers: the whole dataset's, and per fold of
    plan a (train, test) pair, with no copy of the rows.

    A carrier is one of ds's distinct examples (bits, class, weight), its
    weight multiplied by the number of its rows.  Returns the whole
    dataset's carriers and an iterator over the folds of the carriers of
    their training and test rows.  Each set lists its carriers in the
    order of their first row, so sanitize gives of a fold's training set
    the examples, in order, that it gives of
    ds.subset(plan.train_indices(fold)), and evaluate scores its test set
    as it scores ds.subset(plan.test_indices(fold)): both read only weight
    sums.  The carriers come from checked rows and are not checked again.
    Each row's fold must be in range(plan.num_folds), as kfold_split's are.
    """
    by_id: dict = {}
    first: dict = {}
    k = plan.num_folds
    # one pass over the rows, in C, that hashes no example tuple: a row's
    # code is its example object's first row * k + its fold
    codes = Counter(map(add, map(by_id.setdefault, map(id, ds.examples), count(0, k)),
                        plan.assignments))
    # equal examples in distinct objects share their value's first row; the
    # codes come in order of first row, so a value's first code holds it
    value_row = {code: first.setdefault(ds.examples[code // k], code // k) for code in codes}

    def carried(counts: dict) -> BinDataset:
        return ds._derived([(bits, cls, weight * n) for (bits, cls, weight), n
                            in zip(map(ds.examples.__getitem__, counts), counts.values())])

    def split(fold) -> tuple[BinDataset, BinDataset]:
        # a carrier first enters train (test) with its first row out of (in) the fold
        train: dict = {}
        test: dict = {}
        for code, n in codes.items():
            part = test if code % k == fold else train
            row = value_row[code]
            part[row] = part.get(row, 0) + n
        return carried(train), carried(test)

    whole, _ = split(None)  # no row is in fold None
    return whole, map(split, range(plan.num_folds))
