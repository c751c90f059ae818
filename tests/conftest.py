import random

import pytest

from rulesat.dataset import BinDataset

# Sleep-study toy data: Length-of-sleep, Caffeine, Evening-shift, Snoring
# features and a binary Headache class over eight observations.
EX1_FEATURES = ["L", "C", "E", "S"]
EX1_ROWS = [
    ((1, 0, 1, 0), 0),
    ((1, 0, 0, 1), 0),
    ((0, 0, 1, 0), 1),
    ((1, 1, 0, 0), 0),
    ((0, 0, 0, 1), 1),
    ((1, 1, 1, 1), 0),
    ((0, 1, 1, 0), 0),
    ((0, 0, 1, 1), 1),
]

EX1_CSV = "L,C,E,S,H\n" + "\n".join(
    "%d,%d,%d,%d,%d" % (bits + (cls,)) for bits, cls in EX1_ROWS
) + "\n"


def make_ex1() -> BinDataset:
    return BinDataset(
        num_features=4,
        classes=["0", "1"],
        feature_names=list(EX1_FEATURES),
        examples=[(bits, cls, 1) for bits, cls in EX1_ROWS],
    )


def make_untight() -> BinDataset:
    """Both classes' solver-free lower bounds, 2, are below their optima, 3
    (optimizer._prime_facts): no search of either class starts from a
    witness, so each meets conflicts."""
    rows = [((0, 0, 0, 0), 1), ((0, 0, 1, 1), 0), ((0, 1, 0, 1), 0), ((0, 1, 1, 1), 0),
            ((1, 0, 0, 1), 1), ((1, 0, 0, 0), 1)]
    return BinDataset(4, ["0", "1"], ["f%d" % f for f in range(4)],
                      [(bits, cls, 1) for bits, cls in rows])


@pytest.fixture
def ex1() -> BinDataset:
    return make_ex1()


@pytest.fixture
def ex1_csv(tmp_path):
    path = tmp_path / "ex1.csv"
    path.write_text(EX1_CSV, encoding="utf-8")
    return str(path)


def random_dataset(rng: random.Random, max_m: int = 6, max_k: int = 4,
                   num_classes: int = 2, weighted: bool = False) -> BinDataset:
    """Consistent random dataset: distinct feature vectors, random labels."""
    k = rng.randint(1, max_k)
    m = rng.randint(1, min(max_m, 1 << k))
    vectors = rng.sample(range(1 << k), m)
    examples = []
    for code in vectors:
        bits = tuple((code >> f) & 1 for f in range(k))
        cls = rng.randrange(num_classes)
        weight = rng.randint(1, 3) if weighted else 1
        examples.append((bits, cls, weight))
    classes = [str(c) for c in range(num_classes)]
    names = ["f%d" % f for f in range(k)]
    return BinDataset(num_features=k, classes=classes, feature_names=names,
                      examples=examples)


def forced_rules(vm, rules) -> list[int]:
    """Assumptions pinning the first nodes of an encoding to rules, listed
    in the given order: per rule, a node per body literal (its feature and
    polarity), then a leaf whose truth value is the head."""
    table = []
    for rule in rules:
        table += [(f + 1, positive) for f, positive in rule.body]
        table.append((vm.n_features + 1, rule.head == 1))
    lits = []
    for j, (r, truth) in enumerate(table, start=1):
        t = vm.truth_var(j)
        lits += [vm.select_var(j, r), t if truth else -t]
    return lits
