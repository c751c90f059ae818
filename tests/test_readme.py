"""The README's examples, run on its ex1.csv, print what the README shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from rulesat.cli import main

from conftest import EX1_CSV

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_blocks(lang: str) -> list[str]:
    return re.findall(r"^```%s\n(.*?)^```" % lang, README, flags=re.M | re.S)


def shell_examples() -> list[tuple[str, str]]:
    """(command, the output the README shows for it) for each `$ ` line."""
    examples = []
    for block in code_blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command, output.strip("\n")))
    return examples


EXAMPLES = dict(shell_examples())
RUN = [
    "rulesat learn --data ex1.csv",
    "rulesat learn --data ex1.csv --mode sparse --lambda 0.5 --scope aggregated",
    "rulesat eval --data ex1.csv --model ex1.model.json",
    "rulesat cv --data ex1.csv --folds 4 --seed 7",
]


@pytest.fixture
def ex1_dir(tmp_path, monkeypatch):
    """A directory holding the README's ex1.csv and a model learnt on it."""
    (tmp_path / "ex1.csv").write_text(EXAMPLES["cat ex1.csv"] + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["learn", "--data", "ex1.csv", "--out", "ex1.model.json"]) == 0
    return tmp_path


def test_readme_data_is_ex1():
    assert EXAMPLES["cat ex1.csv"] + "\n" == EX1_CSV


@pytest.mark.parametrize("command", RUN)
def test_readme_command_prints_what_the_readme_shows(command, ex1_dir, capsys):
    assert command in EXAMPLES, "the README no longer shows %r" % command
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out.rstrip("\n") == EXAMPLES[command]


def test_readme_library_snippet_prints_what_its_comments_show(ex1_dir, capsys):
    (snippet,) = [block for block in code_blocks("python") if "minimize_exact_fit(" in block]
    shown = re.findall(r"^print\(.*\)\s+# (.+)$", snippet, flags=re.M)
    assert shown
    exec(compile(snippet, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:len(shown)] == shown
