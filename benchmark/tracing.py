"""Spans around the public functions of each rulesat layer, from outside.

Tracer.active() patches the names the optimizer and the CLI call
through (as bound in those modules) plus three Solver methods, and
restores them on exit, so untraced executions run the unmodified code.
Spans are kept in memory; each records name, start, end, parent, task
and thread.  The parent is the innermost open span of the same thread,
so self time is computed per thread.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
import weakref
from dataclasses import dataclass, field

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("dataset.load_csv_s", "s", "lower"),
    ("dataset.binarize_s", "s", "lower"),
    ("dataset.sanitize_s", "s", "lower"),
    ("dataset.kfold_s", "s", "lower"),
    ("encoder.calls", "count", "lower"),
    ("encoder.build_s", "s", "lower"),
    ("encoder.vars", "count", "lower"),
    ("encoder.clauses", "count", "lower"),
    ("encoder.literals", "count", "lower"),
    ("solver.load_s", "s", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.calls", "count", "lower"),
    ("solver.conflicts", "count", "lower"),
    ("solver.conflicts_per_s", "1/s", "higher"),
    ("solver.vars", "count", "lower"),
    ("cardinality.totalizer_s", "s", "lower"),
    ("cardinality.totalizer_calls", "count", "lower"),
    ("optimizer.counter_s", "s", "lower"),
    ("optimizer.counter_clauses", "count", "lower"),
    ("optimizer.rounds", "count", "lower"),
    ("optimizer.maxsat_calls", "count", "lower"),
    ("optimizer.maxsat_models", "count", "lower"),
    ("optimizer.self_s", "s", "lower"),
    ("model.decode_s", "s", "lower"),
    ("model.verify_s", "s", "lower"),
    ("model.evaluate_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# span name -> metric that sums the span durations
_TOTAL_TIME = {
    "dataset.load_csv": "dataset.load_csv_s",
    "dataset.binarize": "dataset.binarize_s",
    "dataset.sanitize": "dataset.sanitize_s",
    "dataset.kfold": "dataset.kfold_s",
    "encoder.build": "encoder.build_s",
    "solver.load": "solver.load_s",
    "solver.solve": "solver.solve_s",
    "cardinality.totalizer": "cardinality.totalizer_s",
    "optimizer.counter": "optimizer.counter_s",
    "model.decode": "model.decode_s",
    "model.verify": "model.verify_s",
    "model.evaluate": "model.evaluate_s",
}
# span name -> metric that sums the span self times
_SELF_TIME = {
    "optimizer.minimize": "optimizer.self_s",
    "optimizer.maxsat": "optimizer.self_s",
    "cli.main": "cli.self_s",
}
# span name -> metric that counts the spans
_CALLS = {
    "encoder.build": "encoder.calls",
    "solver.solve": "solver.calls",
    "cardinality.totalizer": "cardinality.totalizer_calls",
    "optimizer.maxsat": "optimizer.maxsat_calls",
}
# span attribute -> metric that sums it
_ATTRS = {
    "vars": "encoder.vars",
    "clauses": "encoder.clauses",
    "literals": "encoder.literals",
    "conflicts": "solver.conflicts",
    "new_vars": "solver.vars",
    "counter_clauses": "optimizer.counter_clauses",
    "rounds": "optimizer.rounds",
    "models": "optimizer.maxsat_models",
}
COUNT_METRICS = sorted(set(_CALLS.values()) | set(_ATTRS.values()))

_OPTIMIZER_PATCHES = {
    "build_perfect": "encoder.build",
    "build_bounded": "encoder.build",
    "build_sparse": "encoder.build",
    "build_totalizer": "cardinality.totalizer",
    "maxsat_solve": "optimizer.maxsat",
    "decode": "model.decode",
    "verify_perfect": "model.verify",
    "minimize_perfect": "optimizer.minimize",
    "minimize_bounded": "optimizer.minimize",
    "minimize_sparse": "optimizer.minimize",
}
_CLI_PATCHES = {
    "load_csv": "dataset.load_csv",
    "binarize": "dataset.binarize",
    "sanitize": "dataset.sanitize",
    "kfold_split": "dataset.kfold",
    "evaluate": "model.evaluate",
    "minimize_perfect": "optimizer.minimize",
    "minimize_bounded": "optimizer.minimize",
    "minimize_sparse": "optimizer.minimize",
    "main": "cli.main",
}


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: Span | None
    task: object
    thread: int
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.task = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._solver_vars = weakref.WeakKeyDictionary()
        self._formulas: list[tuple[Span, object]] = []

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None, self.task,
                    threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        while stack and stack.pop() is not span:
            pass
        if span.parent is not None:
            span.parent.child_time += span.duration

    def _close_counter(self) -> None:
        counter = getattr(self._local, "counter", None)
        if counter is not None:
            self._local.counter = None
            self._close(counter)

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if name == "optimizer.maxsat":
                    tracer._close_counter()
                tracer._close(span)
            if after is not None:
                after(span, result)
            return result

        return traced

    # -- attributes recorded at the layer boundaries ---------------------

    def _after_build(self, span, bundle) -> None:
        formula = bundle.formula
        span.attrs["vars"] = formula.num_vars
        span.attrs["clauses"] = len(formula.hard) + len(formula.soft)
        self._formulas.append((span, formula))  # literals are counted after the task

    @staticmethod
    def _after_minimize(span, outcome) -> None:
        span.attrs["rounds"] = len(outcome.stats.get("rounds", ()))

    @staticmethod
    def _after_maxsat(span, result) -> None:
        span.attrs["models"] = result.stats.get("models", 0)

    def _solver_methods(self, solver_cls):
        tracer = self
        add_formula, solve, add_clause = (solver_cls.add_formula, solver_cls.solve,
                                          solver_cls.add_clause)

        @functools.wraps(add_formula)
        def traced_add_formula(solver, formula):
            span = tracer._open("solver.load")
            try:
                add_formula(solver, formula)
            finally:
                tracer._close(span)
            stack = tracer._stack()
            if stack and stack[-1].name == "optimizer.maxsat":
                # the cost counter is built from here up to the first solve
                counter = tracer._local.counter = tracer._open("optimizer.counter")
                counter.attrs["counter_clauses"] = 0

        @functools.wraps(solve)
        def traced_solve(solver, *args, **kwargs):
            tracer._close_counter()
            before = solver.conflicts
            span = tracer._open("solver.solve")
            try:
                return solve(solver, *args, **kwargs)
            finally:
                tracer._close(span)
                span.attrs["conflicts"] = solver.conflicts - before
                with tracer._lock:
                    seen = tracer._solver_vars.get(solver, 0)
                    tracer._solver_vars[solver] = max(seen, solver.num_vars)
                span.attrs["new_vars"] = max(solver.num_vars - seen, 0)

        @functools.wraps(add_clause)
        def counted_add_clause(solver, lits):
            counter = getattr(tracer._local, "counter", None)
            if counter is not None:
                counter.attrs["counter_clauses"] += 1
            return add_clause(solver, lits)

        return {"add_formula": traced_add_formula, "solve": traced_solve,
                "add_clause": counted_add_clause}

    # -- installation --------------------------------------------------

    @contextlib.contextmanager
    def active(self, task):
        """Trace everything run inside the block as part of `task`."""
        from rulesat import optimizer
        from rulesat.solver import Solver

        after = {"encoder.build": self._after_build, "optimizer.minimize": self._after_minimize,
                 "optimizer.maxsat": self._after_maxsat}
        saved = []
        targets = [(optimizer, _OPTIMIZER_PATCHES)]
        cli = sys.modules.get("rulesat.cli")
        if cli is not None:
            targets.append((cli, _CLI_PATCHES))
        for module, names in targets:
            for attr, span_name in names.items():
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(span_name, fn, after.get(span_name)))
        for attr, fn in self._solver_methods(Solver).items():
            saved.append((Solver, attr, getattr(Solver, attr)))
            setattr(Solver, attr, fn)
        self.task = task
        try:
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self.task = None
            for span, formula in self._formulas:
                span.attrs["literals"] = formula.literal_count()
            self._formulas.clear()

    # -- aggregation ---------------------------------------------------

    def totals(self, tasks) -> dict:
        """Per-layer sums over the spans of the given tasks."""
        tasks = set(tasks)
        out = {name: 0 for name, _, _ in LAYER_METRICS}
        for span in self.spans:
            if span.task not in tasks:
                continue
            if span.name in _TOTAL_TIME:
                out[_TOTAL_TIME[span.name]] += span.duration
            if span.name in _SELF_TIME:
                out[_SELF_TIME[span.name]] += span.self_time
            if span.name in _CALLS:
                out[_CALLS[span.name]] += 1
            for attr, value in span.attrs.items():
                out[_ATTRS[attr]] += value
        if out["solver.solve_s"] > 0:
            out["solver.conflicts_per_s"] = out["solver.conflicts"] / out["solver.solve_s"]
        return out
