"""End-to-end command-line behaviour: flags, outputs, and exit codes."""

import hashlib
import json
import random
import time

import pytest

from rulesat.cli import main
from rulesat.model import evaluate, load_model

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
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 7  # one record per node count tried
    for line in err_lines:
        record = json.loads(line)
        assert record["status"] in ("sat", "unsat")
        assert 1 <= record["n"] <= 7


def test_learn_verbose_reports_each_improved_model(ex1_csv, capsys):
    code = main(["learn", "--data", ex1_csv, "--mode", "mopt",
                 "--scope", "aggregated", "--verbose"])
    assert code == 0
    records = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    models = [r for r in records if r.get("event") == "model"]
    assert models
    assert all(r["cost"] >= 7 for r in models)


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
    ],
)
def test_learn_config_errors_exit_1(ex1_csv, capsys, extra, fragment):
    assert main(["learn", "--data", ex1_csv] + extra) == 1
    assert fragment in capsys.readouterr().err


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


def test_cv_bad_fold_counts_exit_1(ex1_csv, capsys):
    assert main(["cv", "--data", ex1_csv, "--folds", "1"]) == 1
    assert "--folds must be >= 2" in capsys.readouterr().err
    assert main(["cv", "--data", ex1_csv, "--folds", "9"]) == 1
    assert "cannot split 8 examples into 9 folds" in capsys.readouterr().err


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
    header = open(target, encoding="utf-8").readline().split()
    assert header[:2] == ["p", "wcnf"]
    assert header[4] == "37"  # 1 + total weight 8 + 7 nodes * cost 4
    sidecar = json.load(open(target + ".map.json", encoding="utf-8"))
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
        assert open(path, encoding="utf-8").readline().startswith("p cnf ")
        sidecar = json.load(open(path + ".map.json", encoding="utf-8"))
        assert sidecar["scope"] == "per_class"
        assert sidecar["target"] == str(cls)


def test_encode_default_budget_from_feature_count(ex1_csv, tmp_path):
    target = str(tmp_path / "default.cnf")
    code = main(["encode", "--data", ex1_csv, "--scope", "aggregated",
                 "--dimacs", target])
    assert code == 0
    sidecar = json.load(open(target + ".map.json", encoding="utf-8"))
    assert sidecar["varmap"]["n_nodes"] == 12  # 2 * (4 features + 2)


# sha256 of every file `encode --n0 4` writes for ex1, mode x scope
ENCODE_SHA256 = {
    "mopt-aggregated.cnf":
        "1f674ef22337e107b0f4087444275fcad5c57d913c55aeec4e0516ff56b763e9",
    "mopt-aggregated.cnf.map.json":
        "280f10979dc891666e04cf5e70db1eafd78a7884903d259cd11c166620debffa",
    "mopt-per-class.class0.cnf":
        "13a92cadb3e49b09e73186276df3bb9a57b333f960b0378d6826a96c06c779e7",
    "mopt-per-class.class0.cnf.map.json":
        "1dd87e43cb8e1f04bfdd94d166ee8110fec13b55c13b9b4f3565629c4f5fe5ef",
    "mopt-per-class.class1.cnf":
        "be6704dd112161283d75fb03a459a6178068456d7345f847483ab2e4f816d09f",
    "mopt-per-class.class1.cnf.map.json":
        "9dd0c882b2ce7f558c401c7e7536a6c72fe16556619d2064562bbbdfe4a3484e",
    "opt-aggregated.cnf":
        "bb45aed5521c48754a2c466785cb7ddeddad0193b532e6cd6f063461c7aee1c8",
    "opt-aggregated.cnf.map.json":
        "8cc80b795da3a2f1098ad32967bcc159f25215bb28768d9ba45afc2fa1d2a63a",
    "opt-per-class.class0.cnf":
        "b77822e6960b03ead9d08421e1205b3f8e8b67f03635e7b17187c2e324e9359c",
    "opt-per-class.class0.cnf.map.json":
        "a802d062deaa51d651f9b3aa2228de67911d99ec358125f3dec1bee181e55d0f",
    "opt-per-class.class1.cnf":
        "3653b4a5c9ab87cea47d3a8d2f69add40cec4c3d491b19d915b5f023a9efabd9",
    "opt-per-class.class1.cnf.map.json":
        "394e63c33522e53a879420283421385973d14d01086d115b971b3a8058e9d5ee",
    "sparse-aggregated.cnf":
        "1575793b2512707c6895f4cdeb2765217012195c6d35157bd29fc1afdf642986",
    "sparse-aggregated.cnf.map.json":
        "3aacff5dd22626fbd9aca9bb8079cb2d500e4cab4dc08b8e81c4995b015837f3",
    "sparse-per-class.class0.cnf":
        "fb3fb1f73e4713457d4d2c41791633e770c904cd3115f7da61f304a3156139c2",
    "sparse-per-class.class0.cnf.map.json":
        "f640df809a936700027d191112971411bf207d7fdc711e7fbfa514f9029acaa7",
    "sparse-per-class.class1.cnf":
        "6cb34a6d19d36ca5924f090454c55890cc44335d49d682eda16e2fede8cd5680",
    "sparse-per-class.class1.cnf.map.json":
        "8e4abc819797eff8e9505924f01ecf064f0e7ada09d783c7abb70e15dcbaaca7",
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
