"""A pytest plugin that lists the lines of the rulesat package a run never ran.

    PYTHONPATH=src:tests python -m pytest -q -p line_trace

Only the standard library: sys.settrace, and threading.settrace for the
threads a test starts, record every line run in rulesat's modules, from
the plugin's import (before the conftest imports the package) to the
terminal summary.  A line is runnable when the compiled module maps an
instruction to it.  Each module's runnable lines that never ran are
written as ranges to the file $GITHUB_STEP_SUMMARY names, as a Markdown
table, or to the terminal when it is unset.  Lines run in a subprocess
(the CLI tests that start `python -m rulesat.cli`) are not seen.

Tracing makes the suite several times slower, so a test that times
itself may fail under it: read the list, do not gate on the run.
"""

import importlib.util
import os
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path(importlib.util.find_spec("rulesat").submodule_search_locations[0]).resolve()
_prefix = str(PACKAGE)
_ran: dict[str, set[int]] = {}


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_prefix):
        return None
    lines = _ran.setdefault(filename, set())

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line
    return line


sys.settrace(_trace)
threading.settrace(_trace)


def _runnable(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}  # a module's first op has line 0
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _runnable(const)
    return lines


def _ranges(lines) -> str:
    spans = []
    for n in sorted(lines):
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in spans)


def _defined(code: types.CodeType) -> set[int]:
    """The first lines of the functions and classes code defines, at any depth."""
    lines = set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines.add(const.co_firstlineno)
            lines |= _defined(const)
    return lines


def unrun_lines() -> dict[str, set[int]]:
    """Each module's runnable lines that were not run, by file name."""
    unrun = {}
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        # a function's first line event is its body's, so a def line or
        # a decorator is run once its function is defined
        unrun[path.name] = _runnable(code) - _ran.get(str(path), set()) - _defined(code)
    return unrun


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    rows = ["| `%s` | %d | %s |" % (name, len(lines), _ranges(lines) or "none")
            for name, lines in unrun_lines().items()]
    table = "\n".join(["### Lines of src/rulesat the run did not run", "",
                       "| module | lines | unrun |", "| --- | ---: | --- |"] + rows) + "\n\n"
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as out:
            out.write(table)
    else:
        terminalreporter.write(table)
