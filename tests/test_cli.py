"""End-to-end command-line behaviour: flags, outputs, and exit codes."""

import hashlib
import json
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from rulesat import cli, optimizer
from rulesat.cli import MODES, SCOPES, main
from rulesat.dataset import BinDataset
from rulesat.encoder import Scope
from rulesat.model import evaluate, load_model
from rulesat.optimizer import minimize_bounded

from conftest import EX1_CSV, make_ex1

PERFECT_MODEL = {
    "classes": ["0", "1"],
    "rules": [
        {"body": [{"feature": 0, "neg": False}], "head": 0},
        {"body": [{"feature": 0, "neg": True}, {"feature": 1, "neg": True}],
         "head": 1},
        {"body": [{"feature": 1, "neg": False}], "head": 0},
    ],
    "total_size": 7,
    "metadata": {},
}

PARTIAL_MODEL = {
    "classes": ["0", "1"],
    "rules": [{"body": [{"feature": 0, "neg": True}], "head": 1}],
    "total_size": 2,
    "metadata": {},
}


def status_line(out: str) -> str:
    matches = [l for l in out.splitlines() if l.startswith("status=")]
    assert len(matches) == 1, out
    return matches[0]


def write_model(tmp_path, doc, name="model.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def mode_flags(mode: str) -> list[str]:
    return ["--mode", mode] + (["--lambda", "0.5"] if mode == "sparse" else [])


@pytest.fixture
def three_class_csv(tmp_path):
    # every vector over 4 features, labelled a, b or c by f0 + f1
    path = tmp_path / "three.csv"
    rows = ["%d,%d,%d,%d,%s" % (code & 1, code >> 1 & 1, code >> 2 & 1, code >> 3,
                                "abc"[(code & 1) + (code >> 1 & 1)]) for code in range(16)]
    path.write_text("\n".join(["f0,f1,f2,f3,y"] + rows) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- learn


def test_learn_default_per_class(ex1_csv, capsys):
    assert main(["learn", "--data", ex1_csv]) == 0
    out = capsys.readouterr().out
    assert "status=optimal total_size=7 objective=7" in status_line(out)
    assert out.count("rule: ") >= 2


def test_learn_aggregated_scope(ex1_csv, capsys):
    assert main(["learn", "--data", ex1_csv, "--scope", "aggregated"]) == 0
    assert "total_size=7 objective=7" in status_line(capsys.readouterr().out)


def test_learn_sparse_single_rule(ex1_csv, capsys):
    code = main(["learn", "--data", ex1_csv, "--mode", "sparse",
                 "--lambda", "0.5", "--scope", "aggregated"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rule: true => 0" in out
    assert "status=optimal total_size=1 objective=7 rules=1" in status_line(out)


def test_learn_writes_model_file(ex1_csv, tmp_path, capsys):
    out_path = str(tmp_path / "model.json")
    code = main(["learn", "--data", ex1_csv, "--scope", "aggregated",
                 "--out", out_path])
    assert code == 0
    assert "model written to %s" % out_path in capsys.readouterr().out
    loaded = load_model(out_path)
    assert loaded.total_size == 7
    assert loaded.metadata["mode"] == "opt"
    assert evaluate(loaded, make_ex1()).accuracy == 100.0


def test_learn_verbose_progress_is_json(ex1_csv, capsys):
    code = main(["learn", "--data", ex1_csv, "--scope", "aggregated",
                 "--verbose"])
    assert code == 0
    records = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    # per class: its primes, then each improved cover, the last one optimal
    assert [(r["class"], r["event"]) for r in records] == [
        ("0", "primes"), ("0", "model"), ("1", "primes"), ("1", "model")]
    assert [r["cost"] for r in records if r["event"] == "model"] == [4, 3]
    assert all(r["primes"] >= r["kept"] >= 1 for r in records if r["event"] == "primes")


def test_verbose_records_read_the_commands_one_clock(ex1_csv, capsys):
    # a per-class or per-fold run's records count from the command's
    # start, as the classes of an aggregated run do
    sparse = ["--mode", "sparse", "--lambda", "0.1"]
    for argv in (["learn"], ["learn", "--scope", "aggregated"],
                 ["cv", "--folds", "4", "--seed", "7"],
                 ["cv", "--folds", "4", "--seed", "7"] + sparse,
                 ["cv", "--folds", "4", "--seed", "7", "--scope", "aggregated"] + sparse):
        assert main(argv + ["--data", ex1_csv, "--verbose"]) == 0
        records = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
        joint = "sparse" in argv and "aggregated" in argv  # one search, with no class
        assert {r.get("class") for r in records} == ({None} if joint else {"0", "1"}), argv
        if argv[0] == "cv":
            assert [r["fold"] for r in records] == sorted(r["fold"] for r in records)
            assert {r["fold"] for r in records} == {0, 1, 2, 3}
        times = [r["elapsed"] for r in records]
        assert times == sorted(times), argv


def test_learn_verbose_reports_each_improved_model(ex1_csv, capsys):
    code = main(["learn", "--data", ex1_csv, "--mode", "mopt",
                 "--scope", "aggregated", "--verbose"])
    assert code == 0
    records = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    models = [r for r in records if r.get("event") == "model"]
    assert models
    # each class's search reports its own models, down to its optimum
    optima = {"0": 4, "1": 3}
    assert all(r["cost"] >= optima[r["class"]] for r in models)
    assert [r["class"] for r in records] == sorted(r["class"] for r in records)
    assert {r["class"]: r["cost"] for r in models} == optima


def test_learn_contradictory_data_needs_sparse(tmp_path, capsys):
    path = tmp_path / "contra.csv"
    path.write_text("a,y\n1,0\n1,1\n", encoding="utf-8")
    assert main(["learn", "--data", str(path)]) == 1
    err = capsys.readouterr().err
    assert "contradictory examples" in err
    assert "--mode sparse" in err
    code = main(["learn", "--data", str(path), "--mode", "sparse",
                 "--lambda", "1.0"])
    assert code == 0
    assert "total_size=0" in status_line(capsys.readouterr().out)


def test_learn_timeout_exits_2(ex1_csv, capsys):
    code = main(["learn", "--data", ex1_csv, "--scope", "aggregated",
                 "--time-limit", "1e-9"])
    assert code == 2
    assert "time budget exhausted" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra,fragment",
    [
        (["--mode", "sparse"], "--lambda is required"),
        (["--lambda", "0.5"], "only applies"),
        (["--mode", "sparse", "--lambda", "-1"], "must be >= 0"),
        (["--time-limit", "nan"], "error: time budgets must be positive and finite"),
        (["--solve-limit", "inf"], "error: time budgets must be positive and finite"),
        (["--mode", "sparse", "--lambda", "nan"], "error: lambda must be a finite number"),
        (["--mode", "sparse", "--lambda", "1e400"], "error: lambda must be a finite number"),
        (["--n0", "4"], "error: --n0 only applies to --mode sparse and to encode"),
        (["--mode", "mopt", "--n0", "4"], "error: --n0 only applies to --mode sparse and to encode"),
        (["--mode", "sparse", "--lambda", "0.5", "--n0", "65"], "outside 1..64 (the node cap"),
    ],
)
def test_learn_config_errors_exit_1(ex1_csv, tmp_path, capsys, extra, fragment):
    # every command checks its flags alike; encode has no clock, and any
    # --n0 is a node count it can write
    commands = [["learn"], ["cv", "--folds", "2"]]
    if not {"--time-limit", "--solve-limit", "--n0"} & set(extra):
        commands.append(["encode", "--dimacs", str(tmp_path / "out.cnf")])
    for command in commands:
        assert main(command + ["--data", ex1_csv] + extra) == 1, command
        assert fragment in capsys.readouterr().err, command
    assert not (tmp_path / "out.cnf").exists()


def test_sparse_certifies_its_optimum_past_a_small_first_budget(tmp_path, capsys):
    # "a => 1, not a => 0" costs 4 nodes and nothing else at lambda_cost 1;
    # the one-node set "true => 0" (objective 6) fits --n0 2 with a node
    # to spare, which does not make it optimal: a cheaper set may use up to
    # (6 - 1) // 1 = 5 nodes, so a round at 5 nodes must run
    path = tmp_path / "ab.csv"
    rows = ["1,0,1"] * 2 + ["1,1,1"] * 3 + ["0,0,0"] * 3 + ["0,1,0"] * 2
    path.write_text("a,b,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    for extra in (["--n0", "2"], []):
        assert main(["learn", "--data", str(path), "--mode", "sparse", "--lambda", "0.1",
                     "--scope", "aggregated"] + extra) == 0
        line = status_line(capsys.readouterr().out)
        assert "status=optimal total_size=4 objective=4" in line, extra


@pytest.mark.parametrize("command,extra", [
    ("learn", []), ("cv", ["--folds", "2"]), ("encode", ["--dimacs", "out.cnf"])])
def test_step_is_not_an_option(ex1_csv, capsys, command, extra):
    # every later node budget follows from what a round proves
    assert main([command, "--data", ex1_csv, "--mode", "mopt", "--step", "3"] + extra) == 1
    assert "unrecognized arguments: --step 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["learn", "--seed", "1"], "--seed 1"),
    (["eval", "--model", "model.json", "--verbose"], "--verbose"),
    (["encode", "--dimacs", "out.cnf", "--time-limit", "5"], "--time-limit 5")])
def test_each_subcommand_takes_only_the_flags_it_reads(ex1_csv, tmp_path, capsys, monkeypatch,
                                                      argv, flag):
    # --seed splits cv's folds; only learn and cv search, on a clock
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--data", ex1_csv]) == 1
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("command", [["learn"], ["cv", "--folds", "2"]])
def test_aggregated_scope_refuses_three_classes_and_per_class_learns_them(
        three_class_csv, capsys, command, mode):
    argv = command + ["--data", three_class_csv, "--verbose"] + mode_flags(mode)
    assert main(argv + ["--scope", "aggregated"]) == 1
    assert capsys.readouterr() == (
        "", "error: aggregated scope needs exactly 2 classes, dataset has 3\n")
    assert main(argv + ["--scope", "per-class"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["opt", "mopt"])
def test_exact_fit_scope_changes_only_the_models_labels(ex1_csv, tmp_path, capsys, mode):
    # both scopes run the same class searches on the same shares of time
    model = str(tmp_path / "model.json")
    outputs, docs = {}, {}
    for scope in SCOPES:
        assert main(["learn", "--data", ex1_csv, "--scope", scope, "--out", model]
                    + mode_flags(mode)) == 0
        assert main(["cv", "--data", ex1_csv, "--scope", scope, "--folds", "4", "--seed", "7"]
                    + mode_flags(mode)) == 0
        outputs[scope] = capsys.readouterr()
        docs[scope] = json.loads(Path(model).read_text(encoding="utf-8"))
    assert outputs["aggregated"] == outputs["per-class"]
    metadata = {scope: docs[scope]["metadata"] for scope in SCOPES}
    assert metadata["per-class"].pop("per_class_objectives") == {"0": 4, "1": 3}
    assert {scope: metadata[scope].pop("scope") for scope in SCOPES} == {
        "aggregated": "aggregated", "per-class": "per-class"}
    assert docs["aggregated"] == docs["per-class"]


def test_learn_bad_flag_values_exit_1(ex1_csv, capsys):
    assert main(["learn", "--data", ex1_csv, "--mode", "bogus"]) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert main(["learn"]) == 1  # --data is required
    assert main([]) == 1  # a subcommand is required
    capsys.readouterr()


def test_learn_nan_cell_exits_1(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("x,y\n1,a\n2,a\nnan,a\n3,b\n4,b\n", encoding="utf-8")
    assert main(["learn", "--data", str(path)]) == 1
    assert "row 4, column 'x': NaN cannot be binned" in capsys.readouterr().err


def test_learn_missing_file_exit_1(tmp_path, capsys):
    assert main(["learn", "--data", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_learn_reads_a_csv_past_its_byte_order_mark(tmp_path, capsys):
    # a BOM is not part of the first column's name, so a model learnt on a
    # CSV saved with one scores the same rows saved without it
    text = "a,b,y\n1,0,p\n1,1,p\n0,0,n\n0,1,n\n"
    bom, plain, model = tmp_path / "bom.csv", tmp_path / "plain.csv", tmp_path / "model.json"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    plain.write_text(text, encoding="utf-8")
    assert main(["learn", "--data", str(bom), "--out", str(model)]) == 0
    out = capsys.readouterr().out
    assert "rule: a => p" in out and "rule: not a => n" in out
    assert main(["eval", "--data", str(plain), "--model", str(model)]) == 0
    assert "examples=4 misclassified=0 accuracy=100.0" in capsys.readouterr().out


def test_learn_refuses_a_quoted_header_name_exit_1(tmp_path, capsys):
    # a quoted name would name a feature with its quotes, as in 'rule: "a" => p'
    path = tmp_path / "quoted.csv"
    path.write_text('"a",b,y\n1,0,p\n0,0,q\n', encoding="utf-8")
    assert main(["learn", "--data", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: row 1, column 1: quoted fields are not supported\n")


def test_learn_refuses_a_csv_that_is_not_utf8_exit_1(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x,y\ncaf\xe9,a\ntea,b\n")
    assert main(["learn", "--data", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: %s is not UTF-8 text: " % path) and err.count("\n") == 1, err


# ---------------------------------------------------------------- eval


def test_eval_perfect_model(ex1_csv, tmp_path, capsys):
    model = write_model(tmp_path, PERFECT_MODEL)
    assert main(["eval", "--data", ex1_csv, "--model", model]) == 0
    out = capsys.readouterr().out
    assert "examples=8 misclassified=0 accuracy=100.0" in out
    assert "outcomes: correct=8" in out


def test_eval_partial_model(ex1_csv, tmp_path, capsys):
    model = write_model(tmp_path, PARTIAL_MODEL)
    assert main(["eval", "--data", ex1_csv, "--model", model]) == 0
    out = capsys.readouterr().out
    assert "examples=8 misclassified=5 accuracy=37.5" in out
    assert "correct=3" in out
    assert "non-classified=4" in out
    assert "wrong-class-covered=1" in out


def test_eval_malformed_model_exit_1(ex1_csv, tmp_path, capsys):
    model = write_model(tmp_path, {"classes": ["0"], "rules": []})
    assert main(["eval", "--data", ex1_csv, "--model", model]) == 1
    assert "missing" in capsys.readouterr().err


def test_eval_refuses_a_model_that_is_not_utf8_exit_1(ex1_csv, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["eval", "--data", ex1_csv, "--model", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: %s is not UTF-8 text: " % path) and err.count("\n") == 1, err


def test_eval_reads_a_model_past_its_byte_order_mark(ex1_csv, tmp_path, capsys):
    # an editor may save the model JSON with a BOM; eval reads it as without
    model = tmp_path / "model.json"
    assert main(["learn", "--data", ex1_csv, "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", ex1_csv, "--model", str(model)]) == 0
    plain = capsys.readouterr()
    model.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
    assert main(["eval", "--data", ex1_csv, "--model", str(model)]) == 0
    assert capsys.readouterr() == plain
    assert "accuracy=100.0" in plain.out


def test_eval_rejects_boolean_ints_and_repeated_classes_exit_1(ex1_csv, tmp_path, capsys):
    bool_feature = json.loads(json.dumps(PERFECT_MODEL))
    bool_feature["rules"][0]["body"][0]["feature"] = True
    bool_head = json.loads(json.dumps(PERFECT_MODEL))
    bool_head["rules"][1]["head"] = True
    for doc in (bool_feature, bool_head, {**PERFECT_MODEL, "total_size": True},
                {**PERFECT_MODEL, "classes": ["0", "0"]}):
        model = write_model(tmp_path, doc)
        assert main(["eval", "--data", ex1_csv, "--model", model]) == 1, doc
        assert "error:" in capsys.readouterr().err, doc


def test_eval_refuses_data_whose_features_differ_from_the_model(tmp_path, capsys):
    # the eval CSV lacks green and adds yellow, so its features shift: the
    # rule on color=red would be read as one on color=yellow
    train = tmp_path / "train.csv"
    train.write_text("color,label\nred,A\ngreen,B\nblue,C\n", encoding="utf-8")
    test = tmp_path / "test.csv"
    test.write_text("color,label\nred,A\nblue,C\nyellow,B\nred,A\n", encoding="utf-8")
    model = str(tmp_path / "model.json")
    assert main(["learn", "--data", str(train), "--mode", "opt", "--out", model]) == 0
    assert load_model(model).metadata["feature_names"] == [
        "color=blue", "color=green", "color=red"]
    capsys.readouterr()
    assert main(["eval", "--data", str(test), "--model", model]) == 1
    err = capsys.readouterr().err
    assert "feature 1 is 'color=green' in the model and 'color=red' in the data" in err
    assert main(["eval", "--data", str(train), "--model", model]) == 0
    assert "accuracy=100.0" in capsys.readouterr().out
    # a model saved without the names is scored as before
    doc = json.loads(Path(model).read_text(encoding="utf-8"))
    del doc["metadata"]["feature_names"]
    assert main(["eval", "--data", str(test), "--model", write_model(tmp_path, doc)]) == 0
    assert "accuracy=25.0" in capsys.readouterr().out


def test_eval_bins_numeric_columns_with_the_training_cuts(tmp_path, capsys):
    # trained on x = 1..4 -> A and 5..8 -> B, the cut lies at 4; the eval
    # rows 5..8 all lie above it, though their own median is 6
    train = tmp_path / "train.csv"
    train.write_text("x,label\n" + "".join("%d,%s\n" % (v, "AB"[v > 4]) for v in range(1, 9)),
                     encoding="utf-8")
    test = tmp_path / "test.csv"
    test.write_text("x,label\n5,A\n6,A\n7,B\n8,B\n", encoding="utf-8")
    model = str(tmp_path / "model.json")
    assert main(["learn", "--data", str(train), "--mode", "opt", "--out", model]) == 0
    assert load_model(model).metadata["numeric_bins"] == {
        "x": {"cuts": [4.0], "labels": ["bin0", "bin1"]}}
    capsys.readouterr()
    assert main(["eval", "--data", str(test), "--model", model]) == 0
    assert "examples=4 misclassified=2 accuracy=50.0" in capsys.readouterr().out
    # a model saved without the bins derives them from the eval data, as before
    doc = json.loads(Path(model).read_text(encoding="utf-8"))
    del doc["metadata"]["numeric_bins"]
    assert main(["eval", "--data", str(test), "--model", write_model(tmp_path, doc)]) == 0
    assert "accuracy=100.0" in capsys.readouterr().out


# ---------------------------------------------------------------- cv


def run_cv(ex1_csv, capsys, *extra):
    code = main(["cv", "--data", ex1_csv, "--folds", "4", "--seed", "7"]
                + list(extra))
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_cv_reports_each_fold_and_means(ex1_csv, capsys):
    out = run_cv(ex1_csv, capsys)
    fold_lines = [l for l in out.splitlines() if l.startswith("fold ")]
    assert len(fold_lines) == 4
    for line in fold_lines:
        assert "accuracy=" in line and "status=optimal" in line
    assert out.splitlines()[-1].startswith("mean accuracy=")


def test_cv_checks_each_row_once(ex1_csv, capsys, monkeypatch):
    # binarize checks the rows; each fold's subsets and sanitize output
    # come from checked rows and are not checked again
    calls = []
    check = BinDataset.__init__  # every constructor call checks its examples
    monkeypatch.setattr(BinDataset, "__init__",
                        lambda ds, *args, **kwargs: calls.append(check(ds, *args, **kwargs)))
    run_cv(ex1_csv, capsys, "--folds", "3", "--mode", "mopt")
    assert len(calls) <= 1


def test_cv_deterministic(ex1_csv, capsys):
    serial = run_cv(ex1_csv, capsys)
    again = run_cv(ex1_csv, capsys)
    assert serial == again


def test_cv_time_limit_bounds_the_whole_command(tmp_path, capsys):
    # 60 distinct rows over 8 features, the class a 3-clause rule: each
    # sparse fold alone needs longer than the one-second limit
    rng = random.Random(11)
    rows = []
    for code in rng.sample(range(1 << 8), 60):
        f = [(code >> i) & 1 for i in range(8)]
        cls = int((f[0] and not f[1]) or (f[2] and f[3]) or (f[4] and f[5] and not f[6]))
        rows.append(",".join(map(str, f + [cls])))
    path = tmp_path / "planted.csv"
    path.write_text("\n".join([",".join("f%d" % i for i in range(8)) + ",y"] + rows) + "\n",
                    encoding="utf-8")
    start = time.monotonic()
    code = main(["cv", "--data", str(path), "--folds", "3", "--mode", "sparse",
                 "--lambda", "0.01", "--time-limit", "1"])
    elapsed = time.monotonic() - start
    out, err = capsys.readouterr()
    assert elapsed < 1 + 1.0, elapsed  # the slack covers encodings built after the deadline
    if code == 0:
        fold_lines = [l for l in out.splitlines() if l.startswith("fold ")]
        assert len(fold_lines) == 3
        assert all("status=feasible" in l or "status=optimal" in l for l in fold_lines)
    else:
        assert code == 2
        assert "time budget exhausted" in err


def test_cv_time_limit_is_shared_among_the_runs(tmp_path, capsys):
    # the 60-row planted-rule CSV above in 3 folds x 2 classes: no run may
    # spend the time of the runs after it, so every run finds a model.
    # With --n0 1 a first model takes a one-node encoding, far less than
    # the sixth of a second each run is handed
    rng = random.Random(11)
    rows = []
    for code in rng.sample(range(1 << 8), 60):
        f = [(code >> i) & 1 for i in range(8)]
        cls = int((f[0] and not f[1]) or (f[2] and f[3]) or (f[4] and f[5] and not f[6]))
        rows.append(",".join(map(str, f + [cls])))
    path = tmp_path / "planted.csv"
    path.write_text("\n".join([",".join("f%d" % i for i in range(8)) + ",y"] + rows) + "\n",
                    encoding="utf-8")
    code = main(["cv", "--data", str(path), "--folds", "3", "--mode", "sparse",
                 "--lambda", "0.01", "--n0", "1", "--time-limit", "1"])
    out = capsys.readouterr().out
    assert code == 0
    fold_lines = [l for l in out.splitlines() if l.startswith("fold ")]
    assert len(fold_lines) == 3


def test_cv_hands_each_class_search_the_same_share_in_both_scopes(ex1_csv, capsys,
                                                                  monkeypatch):
    # every fold of a 2-fold cv on 100 seconds is a share of the command's
    # clock, and every class search a share of its fold's; the i-th class
    # search takes takes[i] seconds
    skew = [0.0]
    monotonic = optimizer.time.monotonic
    monkeypatch.setattr(optimizer, "time",
                        SimpleNamespace(monotonic=lambda: monotonic() + skew[0]))
    cover_class = cli._cover_class
    budgets, takes = [], []

    def timed(ds, scope, clock, progress):
        budgets.append(clock.wall_deadline - optimizer.time.monotonic())
        out = cover_class(ds, scope, clock, progress)
        skew[0] += takes[len(budgets) - 1]
        return out

    monkeypatch.setattr(cli, "_cover_class", timed)
    for durations, expected in (
            # fold 0 gets half of the 100 seconds and its class 0 half of
            # that; class 0 takes 30 seconds, so class 1 gets the 20 left
            # of fold 0's half, and fold 1's classes get a half and the
            # whole of the 70 left
            ([30.0, 0.0, 0.0, 0.0], [25.0, 20.0, 35.0, 70.0]),
            # class 0 returns at once, so class 1 gets the rest of fold 0's
            # half; it takes 10 seconds, and fold 1 starts on all that is left
            ([0.0, 10.0, 0.0, 0.0], [25.0, 50.0, 45.0, 90.0])):
        takes[:] = durations
        for scope in SCOPES:
            budgets.clear()
            skew[0] = 0.0
            assert main(["cv", "--data", ex1_csv, "--folds", "2", "--time-limit", "100",
                         "--scope", scope]) == 0
            assert budgets == pytest.approx(expected, abs=0.1), (scope, takes, budgets)
    capsys.readouterr()


def test_cv_starts_no_search_past_its_deadline(ex1_csv, capsys, monkeypatch):
    # time jumps 5 s past the 1 s limit as fold 0's class 0 ends and then
    # stands still: class 1 runs on an expired share, makes no solve call
    # and finds no set, so fold 0 has no model
    frozen = []
    monotonic = optimizer.time.monotonic
    monkeypatch.setattr(optimizer, "time",
                        SimpleNamespace(monotonic=lambda: frozen[0] if frozen else monotonic()))
    cover_class = cli._cover_class
    statuses = []

    def timed(ds, scope, clock, progress):
        out = cover_class(ds, scope, clock, progress)
        statuses.append((out.status, out.stats["solve_calls"] > 0))
        if not frozen:
            frozen.append(clock.start + clock.limits.wall_time_budget + 5.0)
        return out

    monkeypatch.setattr(cli, "_cover_class", timed)
    assert main(["cv", "--data", ex1_csv, "--folds", "2", "--time-limit", "1"]) == 2
    assert "time budget exhausted" in capsys.readouterr().err
    assert statuses == [("optimal", True), ("timeout", False)]


def test_cv_bad_fold_counts_exit_1(ex1_csv, capsys):
    assert main(["cv", "--data", ex1_csv, "--folds", "1"]) == 1
    assert "--folds must be >= 2" in capsys.readouterr().err
    assert main(["cv", "--data", ex1_csv, "--folds", "9"]) == 1
    assert "cannot split 8 examples into 9 folds" in capsys.readouterr().err


def test_cv_refuses_contradictory_data_before_fold_0(tmp_path, capsys):
    # the vector 1,0 carries both classes: weight 2 of the whole data.  Which
    # fold holds those rows once decided whether, and after how many fold
    # lines, the exact-fit modes refused
    path = tmp_path / "contradictory.csv"
    path.write_text("a,b,y\n1,0,A\n1,0,B\n0,1,A\n0,0,B\n1,1,A\n0,1,A\n", encoding="utf-8")
    for mode in ("opt", "mopt"):
        for folds in ("2", "3"):
            code = main(["cv", "--data", str(path), "--folds", folds, "--seed", "1",
                         "--mode", mode])
            out, err = capsys.readouterr()
            assert (code, out) == (1, ""), (mode, folds)
            assert "dataset has contradictory examples (weight 2 removed by sanitize)" in err
    assert main(["cv", "--data", str(path), "--folds", "3", "--seed", "1", "--mode", "sparse",
                 "--lambda", "0.1"]) == 0
    assert capsys.readouterr().out.count("fold ") == 3


def test_cv_rejects_node_budgets_opt_ignores_or_no_round_reaches(ex1_csv, capsys):
    for extra, fragment in ((["--mode", "opt", "--n0", "4"], "--n0 only applies"),
                            (["--mode", "mopt", "--n0", "4"], "--n0 only applies"),
                            (["--mode", "sparse", "--lambda", "0.5", "--n0", "100"],
                             "outside 1..64")):
        assert main(["cv", "--data", ex1_csv, "--folds", "2"] + extra) == 1
        err = capsys.readouterr().err
        assert fragment in err and "time budget exhausted" not in err


def test_cv_output_is_pinned(tmp_path, capsys):
    # 3,000 rows, most of them repeats of 14 feature vectors: a numeric
    # distractor, a colour whose three common levels and the flag set the
    # class, and six rare "black" rows labelled by an XOR the folds cannot
    # all learn, so fold 1 misclassifies one of its test rows
    rng = random.Random(2024)
    lines = ["x,color,flag,label"]
    for i in range(3000):
        x = "%.1f" % rng.uniform(0, 10)
        flag = rng.randrange(2)
        if i % 500 == 499:
            color, label = "black", "C" if (float(x) >= 5) != flag else "B"
        else:
            color = rng.choice(["red", "green", "blue"])
            label = "A" if color == "red" else "B" if color == "green" else ("C" if flag else "A")
        lines.append("%s,%s,%d,%s" % (x, color, flag, label))
    path = tmp_path / "repeats.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["cv", "--data", str(path), "--folds", "3", "--mode", "mopt", "--seed", "7"])
    assert code == 0
    assert capsys.readouterr().out == (
        "fold 0: accuracy=100.0 total_size=20 status=optimal\n"
        "fold 1: accuracy=99.9 total_size=14 status=optimal\n"
        "fold 2: accuracy=100.0 total_size=20 status=optimal\n"
        "mean accuracy=100.0 mean total_size=18.0\n"
    )


# ---------------------------------------------------------------- encode


def test_encode_sparse_aggregated(ex1_csv, tmp_path, capsys):
    target = str(tmp_path / "train.wcnf")
    code = main(["encode", "--data", ex1_csv, "--mode", "sparse",
                 "--lambda", "0.5", "--scope", "aggregated",
                 "--n0", "7", "--dimacs", target])
    assert code == 0
    assert "wrote %s" % target in capsys.readouterr().out
    header = Path(target).read_text(encoding="utf-8").splitlines()[0].split()
    assert header[:2] == ["p", "wcnf"]
    assert header[4] == "37"  # 1 + total weight 8 + 7 nodes * cost 4
    sidecar = json.loads(Path(target + ".map.json").read_text(encoding="utf-8"))
    assert sidecar["mode"] == "sparse"
    assert sidecar["lambda_cost"] == 4
    assert sidecar["target"] is None
    assert sidecar["varmap"]["n_nodes"] == 7
    assert sidecar["feature_names"] == ["L", "C", "E", "S"]


def test_encode_per_class_emits_one_file_per_class(ex1_csv, tmp_path, capsys):
    target = str(tmp_path / "train.cnf")
    code = main(["encode", "--data", ex1_csv, "--n0", "7",
                 "--dimacs", target])
    assert code == 0
    out = capsys.readouterr().out
    for cls in (0, 1):
        path = str(tmp_path / ("train.class%d.cnf" % cls))
        assert "wrote %s" % path in out
        assert Path(path).read_text(encoding="utf-8").startswith("p cnf ")
        sidecar = json.loads(Path(path + ".map.json").read_text(encoding="utf-8"))
        assert sidecar["scope"] == "per_class"
        assert sidecar["target"] == str(cls)


def test_encode_default_budget_from_feature_count(ex1_csv, tmp_path):
    target = str(tmp_path / "default.cnf")
    code = main(["encode", "--data", ex1_csv, "--scope", "aggregated",
                 "--dimacs", target])
    assert code == 0
    sidecar = json.loads(Path(target + ".map.json").read_text(encoding="utf-8"))
    assert sidecar["varmap"]["n_nodes"] == 12  # 2 * (4 features + 2)


def test_encode_mopt_default_budget_is_the_first_learn_round(ex1_csv, tmp_path):
    target = str(tmp_path / "mopt.cnf")
    assert main(["encode", "--data", ex1_csv, "--mode", "mopt", "--dimacs", target]) == 0
    # the greedy budgets of ex1, where 2 * (4 features + 2) gave 12
    for cls, budget in ((0, 4), (1, 6)):
        sidecar = json.loads((tmp_path / ("mopt.class%d.cnf.map.json" % cls)).read_text(
            encoding="utf-8"))
        first = minimize_bounded(make_ex1(), Scope.per_class(cls)).stats["rounds"][0]
        assert sidecar["varmap"]["n_nodes"] == first["n"] == budget, cls


# sha256 of every file `encode --n0 4` writes for ex1, mode x scope
ENCODE_SHA256 = {
    "mopt-aggregated.cnf":
        "614cea3297df3cbf3f901d4345eae2aa19d8c53b30fddea96c281e4e5d3674db",
    "mopt-aggregated.cnf.map.json":
        "34ae9d7f5fec1626d7c565359d24287354bff8fbfa2dca61a86979babb4023d8",
    "mopt-per-class.class0.cnf":
        "88751844e8a07cd3dda923d888b0d88ddc375df1e7a4ee9f03d813c7a4a2e733",
    "mopt-per-class.class0.cnf.map.json":
        "35be812553a41cdc16c7c6e94179555f929edb9dad444794eadeb638f8cd5529",
    "mopt-per-class.class1.cnf":
        "597181e8dbb68356410d689ed5d47d813dd8b9fa7d67bd0ade5d66e2e808221c",
    "mopt-per-class.class1.cnf.map.json":
        "2ad8e40da40829639449694da967a0032fcc518a6a96cb1a33720ab2b1b8b814",
    "opt-aggregated.cnf":
        "7b73b9087650c90d39907a0c12230fcf391626cd62c3f8ed35dbe15671bd9fc0",
    "opt-aggregated.cnf.map.json":
        "083f0858e4e1f034f5331e95321e1e99655ab041f458353870141ff5a7f40980",
    "opt-per-class.class0.cnf":
        "3e38b3eea5dc48429138643de0dbdad8488102f27bc8dd3a819ec772ef80fa7c",
    "opt-per-class.class0.cnf.map.json":
        "e4f98cee9facef69d8a64e619a36a307ac223863b6d511aa7f3aadd06fda218b",
    "opt-per-class.class1.cnf":
        "2c12986a2067a254dc89a869d1f12d1018101ad8cf6ade13709feaf087c7acd5",
    "opt-per-class.class1.cnf.map.json":
        "21dfe83ba306bb846d36c836592f8ba326f2d9a4c23bec0306819474e28175ad",
    "sparse-aggregated.cnf":
        "06c0a4f2ecb5a15cc957abc76d6be12725f835c1e10d415f2188d9e97912cac5",
    "sparse-aggregated.cnf.map.json":
        "59cfc6b002334d5f4e8277afc5b3595b8483dbe1bfc2846a9ab8fee121089839",
    "sparse-per-class.class0.cnf":
        "ba162a3b22cd95114650003ed3e37464ac813323fcddff05ce9951ed11ea34d9",
    "sparse-per-class.class0.cnf.map.json":
        "0f7135824948c916ec6d4178a8c0066f2eb0579fa08f536b0555341aa828bea7",
    "sparse-per-class.class1.cnf":
        "b4af42dfd1cedcb96c8c1c9f0aa7fdc093518efd6c547ccda44308538ef37987",
    "sparse-per-class.class1.cnf.map.json":
        "edbd464fcecd45703f2003c6deb347ae26c0c29f048c128a35f2e4b3015274a0",
}


def test_encode_output_is_pinned(ex1_csv, tmp_path, capsys):
    for mode in ("opt", "mopt", "sparse"):
        for scope in ("aggregated", "per-class"):
            extra = ["--lambda", "0.5"] if mode == "sparse" else []
            target = str(tmp_path / ("%s-%s.cnf" % (mode, scope)))
            assert main(["encode", "--data", ex1_csv, "--mode", mode, "--scope", scope,
                         "--n0", "4", "--dimacs", target] + extra) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in tmp_path.iterdir() if path.name != "ex1.csv"}
    assert got == ENCODE_SHA256


@pytest.mark.parametrize("command", [[], ["learn"], ["eval"], ["cv"], ["encode"]])
def test_help_exits_0(command, capsys):
    # argparse formats help only when asked, so a stray % in a help text
    # shows up here and nowhere else
    assert main(command + ["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: rulesat")


def test_bins_help_names_the_levels_binarize_takes(ex1_csv, capsys):
    for command in ("learn", "eval", "cv", "encode"):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "quantization bins for numeric features: 2, 3 or 4 (default 2)" in text, command
    assert main(["learn", "--data", ex1_csv, "--bins", "5"]) == 1
    assert "quantization level must be 2, 3, or 4, got 5" in capsys.readouterr().err


def test_n0_help_matches_each_command(capsys):
    for command, says, not_says in (("learn", "1..64 (the node cap", "any n0"),
                                    ("cv", "1..64 (the node cap", "any n0"),
                                    ("encode", "any n0 >= 1", "node cap")):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        n0 = text[text.index("--n0 N0 "):]
        assert says in n0 and not_says not in n0, command
