"""The benchmark's tracer patches rulesat by name: every name must resolve.

A refactor that drops one of those names (a re-export such as
optimizer.build_bounded, say) breaks `benchmark/run.py --trace 1`
without failing any library test, so the tracer's tables are checked
here, read-only.
"""

import importlib.util
import sys
from pathlib import Path

import rulesat.cli
import rulesat.optimizer
from rulesat.solver import Solver

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve(monkeypatch):
    tracing = load_tracing(monkeypatch)
    for module, patches in ((rulesat.optimizer, tracing._OPTIMIZER_PATCHES),
                            (rulesat.cli, tracing._CLI_PATCHES)):
        missing = [name for name in patches if not callable(getattr(module, name, None))]
        assert missing == [], module.__name__
    # the tracer looks these up on the class it is given, patches them
    # there and restores them afterwards
    methods = tracing.Tracer()._solver_methods(Solver)
    assert sorted(methods) == ["add_clause", "add_formula", "solve"]
    assert all(callable(getattr(Solver, name)) for name in methods)
