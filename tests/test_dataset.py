"""CSV parsing, binarization, duplicate handling, and fold assignment."""

import random

import pytest

from rulesat.dataset import (
    BinDataset,
    DatasetError,
    FoldPlan,
    _as_numbers,
    _quantize,
    binarize,
    fold_carriers,
    kfold_split,
    load_csv,
    sanitize,
)

from rulesat.model import DecisionSet, Rule, evaluate

from conftest import EX1_CSV, EX1_ROWS, make_ex1, random_dataset


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- load_csv


def test_load_csv_happy_path(ex1_csv):
    raw = load_csv(ex1_csv)
    assert raw.feature_names == ["L", "C", "E", "S"]
    assert raw.class_name == "H"
    assert raw.num_examples == 8
    assert [column[0] for column in raw.columns] == ["1", "0", "1", "0"]
    assert raw.labels == ["0", "0", "1", "0", "1", "0", "0", "1"]


def test_load_csv_strips_whitespace_and_trailing_blanks(tmp_path):
    text = " a , b , y \n 1 , x , 0 \n\n  \n"
    raw = load_csv(write_csv(tmp_path, text))
    assert raw.feature_names == ["a", "b"]
    assert raw.class_name == "y"
    assert raw.columns == [["1"], ["x"]]
    assert raw.labels == ["0"]


def test_load_csv_header_only_then_binarize_rejects(tmp_path):
    raw = load_csv(write_csv(tmp_path, "a,b,y\n"))
    assert raw.num_examples == 0
    with pytest.raises(DatasetError, match="empty dataset"):
        binarize(raw)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("a,b,y\n1,0\n", "row 2: expected 3 fields, got 2"),
        ("a,b,y\n1,0,0\n1,0,0,1\n", "row 3: expected 3 fields, got 4"),
        ("a,b,y\n1,,0\n", "row 2, column 'b': empty value"),
        ('a,b,y\n1,"x",0\n', "quoted fields are not supported"),
        ("", "empty file: no header row"),
        ("\n\n", "empty file: no header row"),
        ("a,,y\n1,0,0\n", "header row has an empty column name"),
    ],
)
def test_load_csv_errors(tmp_path, text, fragment):
    with pytest.raises(DatasetError, match=fragment):
        load_csv(write_csv(tmp_path, text))


def test_load_csv_rejects_a_repeated_column_name(tmp_path):
    # a rule on "a" could not say which of the two columns it tests
    for text in ("a,a,y\n1,0,p\n0,1,q\n", " a , b ,a \n1,0,p\n"):
        with pytest.raises(DatasetError) as err:
            load_csv(write_csv(tmp_path, text))
        assert str(err.value) == "header row repeats the column name 'a'"


@pytest.mark.parametrize("header,message", [
    ('"a",b,y', "row 1, column 1: quoted fields are not supported"),
    ('a, "b ,y', "row 1, column 2: quoted fields are not supported"),
    ('a,b,y"', "row 1, column 3: quoted fields are not supported"),
    ('"a","a",y', "row 1, column 1: quoted fields are not supported"),
])
def test_load_csv_refuses_a_quoted_header_name(tmp_path, header, message):
    # as in a data row: a name may not start or end with a quote
    with pytest.raises(DatasetError) as err:
        load_csv(write_csv(tmp_path, header + "\n1,0,p\n0,0,q\n"))
    assert str(err.value) == message


def test_load_csv_accepts_a_quote_inside_a_header_name(tmp_path):
    raw = load_csv(write_csv(tmp_path, 'a"b,c,y\n1,0,p\n'))
    assert (raw.feature_names, raw.class_name) == (['a"b', "c"], "y")


def test_load_csv_accepts_a_quote_inside_a_cell(tmp_path):
    raw = load_csv(write_csv(tmp_path, 'a,b,y\n1,a"b,0\n2,c,1\n'))
    assert raw.columns == [["1", "2"], ['a"b', "c"]]
    assert raw.labels == ["0", "1"]


@pytest.mark.parametrize(
    "last,message",
    [
        ("1,,0", "row 5002, column 'b': empty value"),
        ("1, ,0", "row 5002, column 'b': empty value"),
        ("1,0,", "row 5002, column 'y': empty value"),
        ('1,"x",0', "row 5002, column 'b': quoted fields are not supported"),
        ('1,0,0"', "row 5002, column 'y': quoted fields are not supported"),
        ('"1,,0', "row 5002, column 'a': quoted fields are not supported"),
        ('1,,"0"', "row 5002, column 'b': empty value"),
    ],
)
def test_load_csv_names_a_bad_cell_on_the_last_of_many_rows(tmp_path, last, message):
    rows = ["%d,%d,%d" % (i % 2, i % 3, i % 5) for i in range(5000)]
    text = "\n".join(["a,b,y"] + rows + [last]) + "\n"
    with pytest.raises(DatasetError) as err:
        load_csv(write_csv(tmp_path, text))
    assert str(err.value) == message


def rowwise_csv(text):
    """load_csv's (columns, labels), or its error message, from a parse
    of one line at a time."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    header = [name.strip() for name in lines[0].split(",")]
    for col, name in enumerate(header, start=1):
        if name[0] == '"' or name[-1] == '"':
            return "row 1, column %d: quoted fields are not supported" % col
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [cell.strip() for cell in line.split(",")]
        if len(cells) != len(header):
            return "row %d: expected %d fields, got %d" % (lineno, len(header), len(cells))
        for name, cell in zip(header, cells):
            if not cell:
                return "row %d, column %r: empty value" % (lineno, name)
            if cell[0] == '"' or cell[-1] == '"':
                return "row %d, column %r: quoted fields are not supported" % (lineno, name)
        rows.append(cells)
    columns = [[row[c] for row in rows] for c in range(len(header))]
    return columns[:-1], columns[-1]


def test_load_csv_equals_a_line_by_line_parse(tmp_path):
    rng = random.Random(2311)
    faults = 0
    for case in range(400):
        width = rng.randint(1, 4)
        values = ["0", "1", "2.5", "-3", "red", "x y"] + (['a"b'] if rng.random() < 0.3 else [])

        def pad():
            return rng.choice(["", "", " ", "  ", "\t"])

        def cell():
            return pad() + rng.choice(values) + pad()

        rows = [[cell() for _ in range(width)] for _ in range(rng.randint(1, 30))]
        names = [("c%d" if rng.random() < 0.8 else 'c"%d') % c for c in range(width)]
        fault = rng.choice([None, "ragged", "empty", "blank", "quote", "header"])
        if fault:
            row, col = rng.choice(rows), rng.randrange(width)
            if fault == "ragged":
                if width > 1 and rng.random() < 0.5:
                    del row[col]
                else:
                    row.insert(col, cell())
            elif fault == "empty":
                row[col] = ""
            elif fault == "blank":
                row[col] = rng.choice([" ", "  ", "\t"])
            elif fault == "header":
                names[col] = rng.choice(['"%s', '%s"', '"%s"', ' "%s ']) % names[col]
            else:
                row[col] = rng.choice(['"%s', '%s"', '"%s"', ' "%s ']) % rng.choice(values)
        newline = rng.choice(["\n", "\r\n"])
        header = ",".join(pad() + name + pad() for name in names)
        text = newline.join([header] + [",".join(row) for row in rows])
        text += newline * rng.randint(0, 2) + rng.choice(["", " ", " " + newline])
        path = tmp_path / ("c%d.csv" % case)
        path.write_bytes(text.encode("utf-8"))
        want = rowwise_csv(text)
        try:
            raw = load_csv(str(path))
        except DatasetError as err:
            assert str(err) == want, (case, text)
            faults += 1
        else:
            assert (raw.columns, raw.labels) == want, (case, text)
            assert raw.feature_names + [raw.class_name] == names, (case, text)
    assert 200 < faults < 360  # both outcomes are well exercised


# ---------------------------------------------------------------- binarize


def test_binarize_is_identity_on_binary_data(tmp_path):
    ds = binarize(load_csv(write_csv(tmp_path, EX1_CSV)))
    assert ds.num_features == 4
    assert ds.feature_names == ["L", "C", "E", "S"]
    assert ds.classes == ["0", "1"]
    assert [(bits, cls) for bits, cls, _ in ds.examples] == EX1_ROWS
    assert all(w == 1 for _, _, w in ds.examples)


def test_binarize_median_split_eight_values(tmp_path):
    rows = "\n".join("%d,0" % v for v in range(1, 9))
    ds = binarize(load_csv(write_csv(tmp_path, "x,y\n" + rows + "\n")), q=2)
    # 8 distinct values force one equal-frequency cut at the 4th order
    # statistic; values <= 4 land left of it, values above land right,
    # and two bins collapse to a single bit
    assert ds.num_features == 1
    assert ds.feature_names == ["x"]
    got = [bits[0] for bits, _, _ in ds.examples]
    assert got == [0, 0, 0, 0, 1, 1, 1, 1]


def test_binarize_three_way_split(tmp_path):
    rows = "\n".join("%d,0" % v for v in range(1, 10))
    ds = binarize(load_csv(write_csv(tmp_path, "x,y\n" + rows + "\n")), q=3)
    assert ds.feature_names == ["x=bin0", "x=bin1", "x=bin2"]
    codes = [bits.index(1) for bits, _, _ in ds.examples]
    assert codes == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_binarize_small_numeric_domain_passes_through(tmp_path):
    # Three distinct values with q=4 skip quantization: one-hot over the
    # raw values with %g labels instead of synthetic bin names.
    text = "x,y\n1,0\n2.5,0\n2.5,1\n7,0\n"
    ds = binarize(load_csv(write_csv(tmp_path, text)), q=4)
    assert ds.feature_names == ["x=1", "x=2.5", "x=7"]
    assert [bits for bits, _, _ in ds.examples] == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_binarize_two_value_numeric_column_is_single_bit(tmp_path):
    text = "x,y\n3.5,0\n7,1\n3.5,1\n"
    ds = binarize(load_csv(write_csv(tmp_path, text)))
    assert ds.feature_names == ["x"]
    assert [bits for bits, _, _ in ds.examples] == [(0,), (1,), (0,)]


def test_binarize_constant_column_becomes_zero_bit(tmp_path):
    text = "x,z,y\n5,a,0\n5,b,1\n"
    ds = binarize(load_csv(write_csv(tmp_path, text)))
    assert ds.feature_names == ["x", "z"]
    assert [bits for bits, _, _ in ds.examples] == [(0, 0), (0, 1)]


def test_binarize_categorical_one_hot_sorted(tmp_path):
    text = "c,y\nred,0\nblue,1\ngreen,0\nred,1\n"
    ds = binarize(load_csv(write_csv(tmp_path, text)))
    assert ds.feature_names == ["c=blue", "c=green", "c=red"]
    assert [bits for bits, _, _ in ds.examples] == [
        (0, 0, 1),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_binarize_two_category_column_is_single_bit(tmp_path):
    text = "c,y\nyes,0\nno,1\n"
    ds = binarize(load_csv(write_csv(tmp_path, text)))
    assert ds.feature_names == ["c"]
    # lexicographic order: no -> 0, yes -> 1
    assert [bits for bits, _, _ in ds.examples] == [(1,), (0,)]


def test_binarize_classes_sorted(tmp_path):
    text = "x,y\n0,pos\n1,neg\n"
    ds = binarize(load_csv(write_csv(tmp_path, text)))
    assert ds.classes == ["neg", "pos"]
    assert [cls for _, cls, _ in ds.examples] == [1, 0]


def test_binarize_category_limit(tmp_path):
    rows = "\n".join("v%02d,0" % i for i in range(33))
    with pytest.raises(DatasetError, match="33 categories, over the limit of 32"):
        binarize(load_csv(write_csv(tmp_path, "c,y\n" + rows + "\n")))


@pytest.mark.parametrize("x,row", [
    (["nan", "1", "2", "3", "4", "5", "6"], 2),
    (["1", "2", "3", "nan", "4", "5", "6"], 5),
])
def test_binarize_rejects_a_nan_cell_in_either_row_order(tmp_path, x, row):
    # NaN has no place in the sorted order the bins are cut from, so the
    # bins would depend on where the NaN row stands
    text = "w,x,y\n" + "".join("%d,%s,%d\n" % (i % 2, v, i > 3) for i, v in enumerate(x))
    with pytest.raises(DatasetError) as err:
        binarize(load_csv(write_csv(tmp_path, text)))
    assert str(err.value) == "row %d, column 'x': NaN cannot be binned" % row


def test_binarize_keeps_nan_as_a_category_of_a_text_column(tmp_path):
    ds = binarize(load_csv(write_csv(tmp_path, "c,y\nnan,0\nred,1\nnan,1\n")))
    assert ds.feature_names == ["c"]
    assert [bits for bits, _, _ in ds.examples] == [(0,), (1,), (0,)]


@pytest.mark.parametrize("q", [1, 5, 0])
def test_binarize_rejects_bad_quantization(tmp_path, q):
    path = write_csv(tmp_path, "x,y\n1,0\n2,1\n")
    with pytest.raises(DatasetError, match="quantization level must be 2, 3, or 4"):
        binarize(load_csv(path), q=q)


def test_quantize_drops_a_cut_at_the_largest_value():
    # the median is the maximum, so no value lies above the only cut:
    # the column is a single bin
    assert _quantize([1, 2, 3, 3, 3, 3, 3, 3], 2) == ([], ["bin0"])


def rowwise_examples(raw, q):
    """binarize's examples built one row at a time from per-column codes."""
    columns = []
    for ci in range(len(raw.feature_names)):
        values = raw.columns[ci]
        numbers = _as_numbers(values)
        if numbers is not None:
            cuts, labels = _quantize(numbers, q)
            codes = [sum(c < v for c in cuts) for v in numbers]
        else:
            labels = sorted(set(values))
            codes = [labels.index(v) for v in values]
        columns.append((codes, len(labels)))
    classes = sorted(set(raw.labels))
    examples = []
    for r in range(raw.num_examples):
        bits = []
        for codes, d in columns:
            if d == 1:
                bits.append(0)
            elif d == 2:
                bits.append(codes[r])
            else:
                bits.extend(1 if codes[r] == level else 0 for level in range(d))
        examples.append((tuple(bits), classes.index(raw.labels[r]), 1))
    return examples


def test_binarize_examples_equal_the_row_by_row_construction(tmp_path):
    rng = random.Random(4401)
    for case in range(43):  # the last three of a few thousand rows, values repeated
        width = rng.randint(0, 4)
        kinds = [rng.choice(["wide", "narrow", "category", "constant"]) for _ in range(width)]
        lines = [",".join(["c%d" % c for c in range(width)] + ["y"])]
        for _ in range(rng.randint(1, 80) if case < 40 else rng.randint(2000, 4000)):
            cells = []
            for kind in kinds:
                if kind == "wide":
                    cells.append("%.2f" % rng.uniform(-5, 5))
                elif kind == "narrow":
                    cells.append(str(rng.randrange(3)))
                elif kind == "category":
                    cells.append(rng.choice(["red", "green", "blue", "grey"][:rng.randint(2, 4)]))
                else:
                    cells.append("k")
            lines.append(",".join(cells + [rng.choice("PQR")]))
        raw = load_csv(write_csv(tmp_path, "\n".join(lines) + "\n", "r%d.csv" % case))
        q = rng.choice([2, 3, 4])
        assert binarize(raw, q=q).examples == rowwise_examples(raw, q)


def test_binarize_checks_each_distinct_example_once(tmp_path, monkeypatch):
    # 12,000 rows shaped like the cv benchmark's CSV: a numeric distractor,
    # a 3-level colour and a flag, the class set by colour and flag
    rng = random.Random(23)
    lines = ["x,color,flag,label"]
    for _ in range(12000):
        color, flag = rng.choice(["red", "green", "blue"]), rng.randrange(2)
        label = {"red": "A", "green": "B"}.get(color, "C" if flag else "A")
        lines.append("%.3f,%s,%d,%s" % (rng.uniform(0, 10), color, flag, label))
    raw = load_csv(write_csv(tmp_path, "\n".join(lines) + "\n"))
    checked = []
    check = BinDataset.__init__  # every constructor call checks its examples

    def record(ds, *args, **kwargs):
        check(ds, *args, **kwargs)
        checked.append(len(ds.examples))

    monkeypatch.setattr(BinDataset, "__init__", record)
    ds = binarize(raw)
    assert ds.num_examples == 12000
    assert checked == [len({(bits, cls) for bits, cls, _ in ds.examples})] == [12]


def test_binarize_reuses_given_numeric_bins(tmp_path):
    train = binarize(load_csv(write_csv(
        tmp_path, "x,k,y\n" + "".join("%d,u,%s\n" % (v, "AB"[v > 4]) for v in range(1, 9)))))
    assert train.numeric_bins == {"x": {"cuts": [4.0], "labels": ["bin0", "bin1"]}}
    assert [bits for bits, _, _ in train.examples] == [(0, 0)] * 4 + [(1, 0)] * 4
    test_csv = write_csv(tmp_path, "x,k,y\n5,u,A\n6,u,A\n7,u,B\n8,u,B\n", "test.csv")
    # from the data alone the cut falls at 6; the training cut puts every row in bin1
    assert [bits for bits, _, _ in binarize(load_csv(test_csv)).examples] == [
        (0, 0), (0, 0), (1, 0), (1, 0)]
    fixed = binarize(load_csv(test_csv), numeric_bins=train.numeric_bins)
    assert [bits for bits, _, _ in fixed.examples] == [(1, 0)] * 4
    assert fixed.feature_names == train.feature_names
    assert fixed.numeric_bins == train.numeric_bins
    assert fixed.subset([0]).numeric_bins == train.numeric_bins
    # a small domain passes through: its values are the cuts and labels
    three = {"x": {"cuts": [1.0, 2.0], "labels": ["1", "2", "3"]}}
    assert binarize(load_csv(write_csv(tmp_path, "x,y\n1,A\n2,B\n3,A\n")),
                    q=4).numeric_bins == three
    ds = binarize(load_csv(write_csv(tmp_path, "x,y\n0,A\n2.5,B\n9,A\n")), numeric_bins=three)
    assert ds.feature_names == ["x=1", "x=2", "x=3"]
    assert [bits for bits, _, _ in ds.examples] == [(1, 0, 0), (0, 0, 1), (0, 0, 1)]
    with pytest.raises(DatasetError, match="'x' is binned as numeric, but holds text"):
        binarize(load_csv(write_csv(tmp_path, "x,y\nlow,A\n")), numeric_bins=three)
    unlabelled = {"x": {"cuts": [1.0, 2.0], "labels": ["low", "high"]}}
    with pytest.raises(DatasetError) as err:
        binarize(load_csv(write_csv(tmp_path, "x,y\n0,A\n2.5,B\n")), numeric_bins=unlabelled)
    assert str(err.value) == "numeric_bins['x'] needs one label per bin: 2 cuts, 2 labels"


def test_binarize_label_only_csv_gives_empty_vectors(tmp_path):
    ds = binarize(load_csv(write_csv(tmp_path, "y\nb\na\nb\n")))
    assert ds.num_features == 0
    assert ds.examples == [((), 1, 1), ((), 0, 1), ((), 1, 1)]


# ---------------------------------------------------------------- BinDataset


def test_bindataset_validation():
    with pytest.raises(DatasetError, match="feature name count"):
        BinDataset(2, ["0"], ["a"], [])
    with pytest.raises(DatasetError, match="example width"):
        BinDataset(2, ["0"], ["a", "b"], [((1,), 0, 1)])
    with pytest.raises(DatasetError, match="non-binary"):
        BinDataset(1, ["0"], ["a"], [((2,), 0, 1)])
    with pytest.raises(DatasetError, match="class index"):
        BinDataset(1, ["0"], ["a"], [((1,), 1, 1)])
    with pytest.raises(DatasetError, match="weight"):
        BinDataset(1, ["0"], ["a"], [((1,), 0, 0)])


def test_bindataset_rejects_bits_that_are_not_a_tuple():
    with pytest.raises(DatasetError) as err:
        BinDataset(2, ["0", "1"], ["a", "b"], [([0, 1], 0, 1)])
    assert str(err.value) == "example bits must be a tuple, got list"


MANY_VALID = [((i % 2, i // 2 % 2), i % 2, 1 + i % 3) for i in range(5000)]


@pytest.mark.parametrize(
    "bad,message",
    [
        (((0, 2), 0, 1), "non-binary feature value"),
        (((0, -1), 0, 1), "non-binary feature value"),
        (((0, 0.5), 0, 1), "non-binary feature value"),
        (((1,), 0, 1), "example width 1, expected 2"),
        (((1, 0, 1), 0, 1), "example width 3, expected 2"),
        (((2,), 0, 1), "example width 1, expected 2"),  # width is checked first
        (((0, 1), 2, 1), "class index 2 out of range"),
        (((0, 1), -1, 1), "class index -1 out of range"),
        (((0, 2), 2, 0), "non-binary feature value"),  # then the values
        (((0, 1), 0, 0), "example weight must be >= 1"),
        ([[0, 1], 0, 1], "example bits must be a tuple, got list"),
    ],
)
def test_bindataset_rejects_a_bad_example_after_many_valid_ones(bad, message):
    with pytest.raises(DatasetError) as err:
        BinDataset(2, ["0", "1"], ["a", "b"], MANY_VALID + [bad])
    assert str(err.value) == message


def test_bindataset_reports_the_first_bad_example():
    second_bad = MANY_VALID + [((0, 1), 5, 1), ((0, 7), 0, 1)]
    with pytest.raises(DatasetError, match="class index 5 out of range"):
        BinDataset(2, ["0", "1"], ["a", "b"], second_bad)


def test_bindataset_counts_and_subset(ex1):
    assert ex1.num_examples == 8
    assert ex1.total_weight == 8
    sub = ex1.subset([0, 2, 4])
    assert sub.num_examples == 3
    assert sub.examples == [ex1.examples[0], ex1.examples[2], ex1.examples[4]]
    assert sub.feature_names == ex1.feature_names
    # subset copies metadata, so mutating it leaves the parent alone
    sub.classes.append("junk")
    assert ex1.classes == ["0", "1"]


# ---------------------------------------------------------------- sanitize


def test_sanitize_clean_dataset_reports_zero(ex1):
    out, report = sanitize(ex1, "perfect")
    assert report.merged == 0
    assert report.removed == 0
    assert out.examples == ex1.examples


def test_sanitize_merges_duplicates_into_weight():
    ds = make_ex1()
    ds.examples.append(ds.examples[2][:2] + (1,))
    out, report = sanitize(ds, "perfect")
    assert report.merged == 1
    assert report.removed == 0
    assert out.num_examples == 8
    assert out.examples[2] == (EX1_ROWS[2][0], EX1_ROWS[2][1], 2)
    assert out.total_weight == 9


def test_sanitize_perfect_drops_contradictions():
    ds = BinDataset(2, ["0", "1"], ["a", "b"],
                    [((0, 1), 0, 1), ((0, 1), 1, 1)])
    out, report = sanitize(ds, "perfect")
    assert out.examples == []
    assert report.merged == 0
    assert report.removed == 2


def test_sanitize_sparse_keeps_contradictions():
    ds = BinDataset(2, ["0", "1"], ["a", "b"],
                    [((0, 1), 0, 1), ((0, 1), 1, 1), ((0, 1), 1, 1)])
    out, report = sanitize(ds, "sparse")
    assert out.examples == [((0, 1), 0, 1), ((0, 1), 1, 2)]
    assert report.merged == 1
    assert report.removed == 0


def test_sanitize_mixed_duplicates_and_contradictions():
    a, b = (0, 0), (1, 1)
    ds = BinDataset(2, ["0", "1"], ["a", "b"],
                    [(a, 0, 1), (a, 0, 1), (b, 0, 1), (b, 1, 1)])
    out, report = sanitize(ds, "perfect")
    assert out.examples == [(a, 0, 2)]
    assert report.merged == 1
    assert report.removed == 2


def test_sanitize_weighted_contradiction_reads_the_total_once(monkeypatch):
    a, b, c = (0, 1), (1, 0), (1, 1)
    ds = BinDataset(2, ["0", "1"], ["a", "b"],
                    [(a, 0, 2), (b, 0, 1), (a, 1, 3), (c, 1, 5), (b, 0, 4)])
    reads = []
    total = BinDataset.total_weight
    monkeypatch.setattr(BinDataset, "total_weight",
                        property(lambda self: reads.append(1) or total.fget(self)))
    # merged is the weight folded into an earlier row of the same vector
    # and class: b's class-0 row of weight 4
    expected = {"perfect": ([(b, 0, 5), (c, 1, 5)], 4, 5),
                "sparse": ([(a, 0, 2), (b, 0, 5), (a, 1, 3), (c, 1, 5)], 4, 0)}
    for mode, (rows, merged, removed) in expected.items():
        reads.clear()
        out, report = sanitize(ds, mode)
        assert (out.examples, report.merged, report.removed) == (rows, merged, removed), mode
        assert len(reads) == 1, mode
    # with unit weights, merged is the rows less the (vector, class) groups
    unit = BinDataset(2, ["0", "1"], ["a", "b"], [(bits, cls, 1) for bits, cls, _ in ds.examples])
    for mode, removed in (("perfect", 2), ("sparse", 0)):
        _, report = sanitize(unit, mode)
        assert (report.merged, report.removed) == (5 - 4, removed), mode


def test_sanitize_weight_conservation():
    # after sanitize, total weight must equal the input weight minus the
    # removed contradictions, in both modes, for arbitrary inputs
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randint(1, 3)
        examples = []
        for _ in range(rng.randint(1, 12)):
            bits = tuple(rng.randint(0, 1) for _ in range(k))
            examples.append((bits, rng.randrange(2), rng.randint(1, 3)))
        ds = BinDataset(k, ["0", "1"], ["f%d" % f for f in range(k)], examples)
        for mode in ("perfect", "sparse"):
            out, report = sanitize(ds, mode)
            assert out.total_weight == ds.total_weight - report.removed
            if mode == "sparse":
                assert report.removed == 0
            seen = set()
            for bits, cls, w in out.examples:
                assert w >= 1
                assert (bits, cls) not in seen
                seen.add((bits, cls))


def test_sanitize_preserves_first_seen_order():
    a, b, c = (0, 0), (1, 0), (1, 1)
    ds = BinDataset(2, ["0", "1"], ["a", "b"],
                    [(c, 1, 1), (a, 0, 1), (c, 1, 1), (b, 0, 1)])
    out, _ = sanitize(ds, "perfect")
    assert [bits for bits, _, _ in out.examples] == [c, a, b]


def test_sanitize_rejects_unknown_mode(ex1):
    with pytest.raises(DatasetError, match="perfect.*sparse"):
        sanitize(ex1, "both")


# ---------------------------------------------------------------- kfold_split


def test_kfold_deterministic(ex1):
    p1 = kfold_split(ex1, 4, seed=99)
    p2 = kfold_split(ex1, 4, seed=99)
    assert p1.assignments == p2.assignments


def test_kfold_partitions_all_examples(ex1):
    plan = kfold_split(ex1, 3, seed=5)
    seen = []
    for fold in range(3):
        test = plan.test_indices(fold)
        train = plan.train_indices(fold)
        assert sorted(test + train) == list(range(8))
        seen.extend(test)
    assert sorted(seen) == list(range(8))


def test_kfold_sizes_differ_by_at_most_one(ex1):
    plan = kfold_split(ex1, 5, seed=0)
    sizes = sorted(len(plan.test_indices(f)) for f in range(5))
    assert sizes == [1, 1, 2, 2, 2]


def test_kfold_stratifies_balanced_classes():
    examples = []
    for code in range(5):
        bits = tuple((code >> f) & 1 for f in range(3))
        examples.append((bits, 0, 1))
        examples.append((bits[::-1], 1, 1))
    ds = BinDataset(3, ["0", "1"], ["a", "b", "c"], examples)
    plan = kfold_split(ds, 5, seed=11)
    for fold in range(5):
        classes = [ds.examples[i][1] for i in plan.test_indices(fold)]
        assert sorted(classes) == [0, 1]


def test_kfold_spreads_classes_when_not_divisible():
    rng = random.Random(3)
    for trial in range(20):
        ds = random_dataset(rng, max_m=6, max_k=4)
        if ds.num_examples < 2:
            continue
        k = rng.randint(2, ds.num_examples)
        plan = kfold_split(ds, k, seed=trial)
        per_class = {}
        for i, (_, cls, _) in enumerate(ds.examples):
            per_class.setdefault(cls, []).append(plan.assignments[i])
        for cls, folds in per_class.items():
            counts = [folds.count(f) for f in range(k)]
            assert max(counts) - min(counts) <= 1


@pytest.mark.parametrize(
    "k,fragment",
    [(1, "need at least 2 folds"), (9, "cannot split 8 examples into 9 folds")],
)
def test_kfold_rejects_bad_fold_counts(ex1, k, fragment):
    with pytest.raises(DatasetError, match=fragment):
        kfold_split(ex1, k, seed=0)


# ---------------------------------------------------------------- fold_carriers


def test_fold_carriers_train_and_score_as_the_rows_do():
    # random data with repeated rows, weights 1-3, contradictions and 2-3
    # classes, under random fold plans: per fold, sanitize of the training
    # carriers equals sanitize of the training rows, and evaluate of the
    # test carriers equals evaluate of the test rows
    rng = random.Random(20)
    for trial in range(200):
        k = rng.randint(1, 3)
        num_classes = rng.randint(2, 3)
        pool = [(tuple(rng.randint(0, 1) for _ in range(k)), rng.randrange(num_classes),
                 rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
        examples = [rng.choice(pool) for _ in range(rng.randint(2, 30))]
        ds = BinDataset(k, [str(c) for c in range(num_classes)], ["f%d" % f for f in range(k)],
                        examples)
        num_folds = rng.randint(2, min(5, len(examples)))
        plan = FoldPlan(num_folds, trial, [rng.randrange(num_folds) for _ in examples])
        rules = [Rule(tuple((f, bool(rng.getrandbits(1))) for f in rng.sample(range(k), size)),
                      rng.randrange(num_classes))
                 for size in (rng.randint(0, k) for _ in range(rng.randint(0, 4)))]
        dset = DecisionSet(rules, ds.classes, sum(len(r.body) + 1 for r in rules))
        whole, folds = fold_carriers(ds, plan)
        for mode in ("perfect", "sparse"):
            assert _sanitize_result(whole, mode) == _sanitize_result(ds, mode), (trial, mode)
        for fold, (train, test) in enumerate(folds):
            rows = ds.subset(plan.train_indices(fold))
            for mode in ("perfect", "sparse"):
                assert (_sanitize_result(train, mode)
                        == _sanitize_result(rows, mode)), (trial, fold, mode)
            carried, scored = (evaluate(dset, data, mode="separated")
                               for data in (test, ds.subset(plan.test_indices(fold))))
            assert ((carried.num_examples, carried.errors, carried.accuracy,
                     carried.separated_errors)
                    == (scored.num_examples, scored.errors, scored.accuracy,
                        scored.separated_errors)), (trial, fold)
        assert fold == num_folds - 1


def test_fold_carriers_refuse_a_plan_that_does_not_fit():
    # a row's carrier code is its first row * num_folds + its fold, so a
    # fold out of range would pass one row off as another's
    ds = BinDataset(2, ["0", "1"], ["a", "b"],
                    [((1, 0), 0, 1), ((0, 1), 1, 1), ((1, 1), 1, 1), ((0, 0), 0, 1)])
    for assignments, message in (([0, 2, 1, 0], "fold outside 0..1"),
                                 ([0, -1, 1, 0], "fold outside 0..1"),
                                 ([0, 1], "2 rows, the dataset 4"),
                                 ([0, 1, 0, 1, 0], "5 rows, the dataset 4")):
        with pytest.raises(DatasetError, match=message):
            fold_carriers(ds, FoldPlan(2, 0, assignments))
    whole, folds = fold_carriers(ds, kfold_split(ds, 2, seed=0))
    assert whole.examples == ds.examples
    assert sorted(ex for _, test in folds for ex in test.examples) == sorted(ds.examples)


def by_value_carriers(ds, plan, fold):
    """fold_carriers' (train, test) examples of fold, or the whole dataset's
    when fold is None, grouped row by row by the example's value."""
    parts = ({}, {})
    for example, f in zip(ds.examples, plan.assignments):
        part = parts[f == fold]
        part[example] = part.get(example, 0) + 1
    return [[(bits, cls, weight * n) for (bits, cls, weight), n in part.items()]
            for part in parts]


def test_fold_carriers_group_rows_as_grouping_by_value_does():
    # fold_carriers keys the rows by their example object; rows holding
    # equal examples must still share one carrier, at the first of their
    # rows, whether they share the tuple (as binarize's rows do), hold
    # equal copies, or mix both, also on subset and _derived rows
    rng = random.Random(2324)
    for trial in range(150):
        k = rng.randint(1, 3)
        pool = list(dict.fromkeys((tuple(rng.randint(0, 1) for _ in range(k)), rng.randrange(2),
                                   rng.randint(1, 3)) for _ in range(rng.randint(1, 6))))
        sharing = trial % 3  # 0: shared tuples, 1: equal copies, 2: both
        examples = []
        for _ in range(rng.randint(1, 40)):
            example = rng.choice(pool)
            copy = sharing == 1 or (sharing == 2 and rng.random() < 0.5)
            examples.append((tuple(list(example[0])), *example[1:]) if copy else example)
        objects = len(set(map(id, examples)))
        assert objects == (len(set(examples)) if sharing == 0 else
                           len(examples) if sharing == 1 else objects)
        ds = BinDataset(k, ["0", "1"], ["f%d" % f for f in range(k)], examples)
        if trial % 2:
            ds = ds.subset([rng.randrange(len(examples)) for _ in range(rng.randint(1, 40))])
        num_folds = rng.randint(1, 4)
        plan = FoldPlan(num_folds, trial, [rng.randrange(num_folds) for _ in ds.examples])
        whole, folds = fold_carriers(ds, plan)
        assert whole.examples == by_value_carriers(ds, plan, None)[0], trial
        assert len(whole.examples) == len(set(ds.examples))
        for fold, (train, test) in enumerate(folds):
            assert [train.examples, test.examples] == by_value_carriers(ds, plan, fold), trial
        assert fold == num_folds - 1


def _sanitize_result(ds, mode):
    """sanitize's examples, in order, and the weight it removed."""
    out, report = sanitize(ds, mode)
    return out.examples, report.removed
