"""Conflict-driven clause-learning SAT solver with incremental assumptions.

The clause database persists across solve() calls and only grows.  Each
call may pass assumption literals; an UNSAT answer then comes with a
subset of the assumptions sufficient for unsatisfiability (empty when
the formula is unconditionally UNSAT).

Internals: two-watched-literal propagation, first-UIP clause learning,
activity-driven branching with phase saving, a restart every 256
conflicts, and a simple size-based reduction of the learnt clause store.

add_clause checks every literal it is given.  add_trusted skips those
checks for a caller that emits batches of canonical clauses over
variables it has reserved, as Encoder does; both apply the root-level
assignments the same way (_add_root).

Propagation makes one pass over a watch list and writes nothing back for
the clauses that keep their watch.  Only when some clause moved its
watch elsewhere is the list compacted, once, to the clauses still
watching the literal, in their old order.

The branching heap is lazy: a bump leaves the old entry in place, and
stale entries are skipped when popped.  _queued[v] is the activity of
v's live entry, or -1.0 when v has none, so every unassigned variable has
exactly one live entry, at its current activity.  The pick is the
unassigned variable with the highest activity, ties to the lowest id.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush

from .formula import Assignment, FormulaError, is_literal

_RESTART_CONFLICTS = 256
_ACTIVITY_CAP = 1e100
_DECAY = 1 / 0.95
_DEADLINE_CHECK = 128
_HEAP_SLACK = 4  # stale heap entries allowed per variable before a rebuild


class SolveBudgetExceeded(Exception):
    """A solve() call ran past its deadline."""


class Solver:
    def __init__(self):
        self.num_vars = 0
        self.ok = True  # False once the database is unconditionally UNSAT
        self.model: Assignment | None = None
        self.core: list[int] | None = None
        self.conflicts = 0
        self.solve_calls = 0
        # index 0 of the per-variable arrays is padding
        self._assigns = [0]  # 1 true, -1 false, 0 unassigned
        self._level = [0]
        self._reason = [None]
        self._saved = [False]
        self._activity = [0.0]
        self._queued = [-1.0]  # activity of the variable's live heap entry, -1.0 if none
        self._seen = bytearray(1)
        self._watches: dict[int, list] = {}
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._heap: list[tuple[float, int]] = []
        self._var_inc = 1.0
        self._n_problem_clauses = 0
        self._learnts: list[list[int]] = []
        self._max_learnts = 4000

    # ------------------------------------------------------------------
    # database construction

    def new_var(self) -> int:
        self.num_vars += 1
        self._assigns.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._saved.append(False)
        self._activity.append(0.0)
        self._queued.append(0.0)
        self._seen.append(0)
        self._watches[self.num_vars] = []
        self._watches[-self.num_vars] = []
        heappush(self._heap, (0.0, self.num_vars))
        return self.num_vars

    def ensure_vars(self, n: int) -> None:
        """Grow to n variables, as one new_var per missing id would.

        The new heap entries (0.0, v) go on the end in id order, with no
        sift: every key already in the heap is -activity <= 0.0 with a
        lower id, so each is where heappush would leave it."""
        old = self.num_vars
        if n <= old:
            return
        grow = n - old
        self.num_vars = n
        self._assigns += [0] * grow
        self._level += [0] * grow
        self._reason += [None] * grow
        self._saved += [False] * grow
        self._activity += [0.0] * grow
        self._queued += [0.0] * grow
        self._seen += bytes(grow)
        watches = self._watches
        for v in range(old + 1, n + 1):
            watches[v] = []
            watches[-v] = []
        self._heap += [(0.0, v) for v in range(old + 1, n + 1)]

    def set_phase(self, lit: int) -> None:
        """Make the first decision on lit's variable try lit.

        Later decisions on it reuse the value it last had (phase saving).
        """
        if not is_literal(lit):
            raise FormulaError("bad literal %r" % (lit,))
        self.ensure_vars(abs(lit))
        self._saved[abs(lit)] = lit > 0

    def add_clause(self, lits) -> None:
        """Add a clause; must be called between solve() calls.

        The empty clause (or a root-level contradiction) flips the solver
        into a permanent UNSAT state rather than raising.
        """
        if self._trail_lim:
            raise FormulaError("add_clause during search is not supported")
        if not self.ok:
            return
        seen = set()
        clause = []
        for lit in lits:
            if not is_literal(lit):
                raise FormulaError("bad literal %r" % (lit,))
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            self.ensure_vars(abs(lit))
            clause.append(lit)
        self._add_root(clause)

    def add_trusted(self, clauses) -> None:
        """add_clause per clause, for a caller that guarantees what
        add_clause checks: it is not searching, and each clause is a list
        of distinct nonzero int literals, no tautology, over ids reserved
        with ensure_vars.  A clause with no literal assigned at the root is
        attached as it is, list and all.  Once UNSAT, the rest are ignored.
        """
        if not self.ok:
            return
        assigns, watches = self._assigns, self._watches
        attached = 0
        for clause in clauses:
            for lit in clause:
                if assigns[abs(lit)]:
                    break
            else:
                if len(clause) > 1:
                    watches[clause[0]].append(clause)
                    watches[clause[1]].append(clause)
                    attached += 1
                    continue
            self._add_root(clause)
            if not self.ok:
                break
        self._n_problem_clauses += attached

    def _add_root(self, clause: list[int]) -> None:
        """Apply the root-level assignments to a checked clause and keep
        what is left: a literal true at the root drops the clause, a false
        one is removed, a unit is enqueued and an empty clause makes the
        database UNSAT."""
        assigns = self._assigns
        kept = []
        for lit in clause:
            val = assigns[lit] if lit > 0 else -assigns[-lit]
            if val == 1:
                return  # already satisfied at root
            if val == 0:  # a literal false at the root is dropped
                kept.append(lit)
        clause = kept
        if not clause:
            self.ok = False
            return
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            return
        self._attach(clause)
        self._n_problem_clauses += 1

    def add_formula(self, formula) -> None:
        self.ensure_vars(formula.num_vars)
        for clause in formula.hard:
            self.add_clause(clause)

    def _attach(self, clause: list[int]) -> None:
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    # ------------------------------------------------------------------
    # trail maintenance

    def _enqueue(self, lit: int, reason) -> None:
        """Assign lit, which every caller hands over unassigned."""
        v = abs(lit)
        self._assigns[v] = 1 if lit > 0 else -1
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        assigns, saved, heap, activity = self._assigns, self._saved, self._heap, self._activity
        queued, reason, trail = self._queued, self._reason, self._trail
        for i in range(len(trail) - 1, bound - 1, -1):
            lit = trail[i]
            v = abs(lit)
            saved[v] = lit > 0
            assigns[v] = 0
            reason[v] = None
            act = activity[v]
            if queued[v] != act:
                queued[v] = act
                heappush(heap, (-act, v))
        del trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(trail)
        if len(heap) > _HEAP_SLACK * self.num_vars:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One entry per unassigned variable, at its current activity.

        Entries are pushed, never updated, so stale ones pile up over a
        hard UNSAT proof, and more in a solver kept across solve() calls.
        Every unassigned variable always has a live entry at its current
        activity, so a rebuild never changes the branching order.
        """
        queued = self._queued
        for u in range(1, self.num_vars + 1):
            queued[u] = self._activity[u] if self._assigns[u] == 0 else -1.0
        self._heap = [(-act, u) for u, act in enumerate(queued) if act >= 0]
        heapify(self._heap)

    # ------------------------------------------------------------------
    # propagation

    def _propagate(self):
        assigns = self._assigns
        watches = self._watches
        trail = self._trail
        level = self._level
        reason = self._reason
        depth = len(self._trail_lim)
        qhead = self._qhead
        while qhead < len(trail):
            neg_p = -trail[qhead]
            qhead += 1
            ws = watches[neg_p]
            moved = False
            for c in ws:
                if c[0] == neg_p:
                    c[0] = c[1]
                    c[1] = neg_p
                first = c[0]
                v0 = assigns[first] if first > 0 else -assigns[-first]
                if v0 == 1:
                    continue
                n = len(c)
                if n > 2:  # look for a new watch, c[2] first: most clauses are ternary
                    k = 2
                    lk = c[2]
                    if (assigns[lk] if lk > 0 else -assigns[-lk]) == -1:
                        for k in range(3, n):
                            lk = c[k]
                            if (assigns[lk] if lk > 0 else -assigns[-lk]) != -1:
                                break
                        else:
                            k = 0
                    if k:
                        c[1] = lk
                        c[k] = neg_p
                        watches[lk].append(c)
                        moved = True
                        continue
                if v0 == -1:
                    self._qhead = qhead
                    if moved:  # the untouched tail still watches neg_p too
                        watches[neg_p] = [d for d in ws if d[0] == neg_p or d[1] == neg_p]
                    return c
                # unit clause
                v = abs(first)
                assigns[v] = 1 if first > 0 else -1
                level[v] = depth
                reason[v] = c
                trail.append(first)
            if moved:
                watches[neg_p] = [d for d in ws if d[1] == neg_p]
        self._qhead = qhead
        return None

    # ------------------------------------------------------------------
    # conflict analysis

    def _rescale_activity(self) -> None:
        """Scale every activity down by _ACTIVITY_CAP; the order is kept."""
        inv = 1.0 / _ACTIVITY_CAP
        for u in range(1, self.num_vars + 1):
            self._activity[u] *= inv
        self._var_inc *= inv
        self._rebuild_heap()

    def _analyze(self, confl) -> tuple[list[int], int]:
        """First-UIP learning: returns (learnt clause, backtrack level).

        learnt[0] is the asserting literal; learnt[1] (when present) sits
        at the backtrack level so the watch invariant holds after the jump.
        """
        seen = self._seen
        level = self._level
        trail = self._trail
        reason = self._reason
        activity = self._activity
        var_inc = self._var_inc
        cur = len(self._trail_lim)
        learnt: list[int] = []
        cleanup: list[int] = []
        path = 0
        p = 0
        index = len(trail)
        c = confl
        while True:
            for q in (c if p == 0 else c[1:]):
                v = abs(q)
                if not seen[v] and level[v] > 0:
                    seen[v] = 1
                    cleanup.append(v)
                    # v is assigned, so its heap entry is refreshed on backtrack
                    act = activity[v] + var_inc
                    activity[v] = act
                    if act > _ACTIVITY_CAP:
                        self._rescale_activity()
                        var_inc = self._var_inc
                    if level[v] >= cur:
                        path += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                if seen[abs(trail[index])]:
                    break
            p = trail[index]
            c = reason[abs(p)]
            seen[abs(p)] = 0
            path -= 1
            if path == 0:
                break
        learnt.insert(0, -p)
        for v in cleanup:
            seen[v] = 0
        if len(learnt) == 1:
            return learnt, 0
        hi = 1
        for k in range(2, len(learnt)):
            if level[abs(learnt[k])] > level[abs(learnt[hi])]:
                hi = k
        learnt[1], learnt[hi] = learnt[hi], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _analyze_final(self, failed: int) -> list[int]:
        """Subset of the current assumptions that forces the failed one false."""
        core = [failed]
        if not self._trail_lim or self._level[abs(failed)] == 0:
            return core
        seen = self._seen
        seen[abs(failed)] = 1
        cleanup = [abs(failed)]
        for i in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            lit = self._trail[i]
            v = abs(lit)
            if not seen[v]:
                continue
            reason = self._reason[v]
            if reason is None:
                core.append(lit)
            else:
                for q in reason[1:]:
                    u = abs(q)
                    if not seen[u] and self._level[u] > 0:
                        seen[u] = 1
                        cleanup.append(u)
            seen[v] = 0
        for v in cleanup:
            seen[v] = 0
        return core

    # ------------------------------------------------------------------
    # learnt store reduction

    def _locked(self, c) -> bool:
        v = abs(c[0])
        return self._reason[v] is c and self._assigns[v] != 0

    def _detach(self, c) -> None:
        for lit in (c[0], c[1]):
            ws = self._watches[lit]
            for k in range(len(ws)):  # match by identity, equal clauses may coexist
                if ws[k] is c:
                    ws[k] = ws[-1]
                    ws.pop()
                    break

    def _reduce_learnts(self) -> None:
        self._learnts.sort(key=len)
        keep = []
        cut = len(self._learnts) // 2
        for idx, c in enumerate(self._learnts):
            if idx < cut or len(c) <= 2 or self._locked(c):
                keep.append(c)
            else:
                self._detach(c)
        self._learnts = keep
        self._max_learnts = int(self._max_learnts * 1.3)

    # ------------------------------------------------------------------
    # search

    def _pick_branch(self) -> int:
        """The unassigned variable of highest activity, 0 when all are assigned."""
        heap = self._heap
        assigns = self._assigns
        queued = self._queued
        while heap:
            act, v = heappop(heap)
            if -act == queued[v]:  # v's live entry
                queued[v] = -1.0
                if assigns[v] == 0:
                    return v
        return 0

    def solve(self, assumptions=(), deadline: float | None = None) -> bool:
        """Solve the current database under the given assumption literals.

        True: self.model is a total Assignment satisfying all clauses and
        assumptions.  False: self.core is a sufficient subset of the
        assumptions (empty when UNSAT without any).  Raises
        SolveBudgetExceeded when the deadline passes first.
        """
        self.solve_calls += 1
        self.model = None
        self.core = None
        if not self.ok:
            self.core = []
            return False
        assumptions = list(assumptions)
        for lit in assumptions:
            if not is_literal(lit):
                raise FormulaError("bad assumption literal %r" % (lit,))
            self.ensure_vars(abs(lit))
        self._cancel_until(0)
        conflicts_here = 0
        since_check = 0
        while True:
            # one step: a conflict, a restart or a decision
            since_check += 1
            if since_check >= _DEADLINE_CHECK:
                since_check = 0
                if deadline is not None and time.monotonic() > deadline:
                    self._cancel_until(0)
                    raise SolveBudgetExceeded
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not self._trail_lim:
                    self.ok = False
                    self.core = []
                    return False
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self._learnts.append(learnt)
                    self._attach(learnt)
                    self._enqueue(learnt[0], learnt)
                self._var_inc *= _DECAY
                continue
            if conflicts_here >= _RESTART_CONFLICTS:
                conflicts_here = 0
                self._cancel_until(0)
                if len(self._learnts) > max(self._max_learnts, 3 * self._n_problem_clauses):
                    self._reduce_learnts()
                continue
            lit = 0
            level = len(self._trail_lim)
            while level < len(assumptions):
                a = assumptions[level]
                val = self._assigns[a] if a > 0 else -self._assigns[-a]
                if val == 1:
                    self._trail_lim.append(len(self._trail))  # placeholder level
                    level += 1
                    continue
                if val == -1:
                    self.core = self._analyze_final(a)
                    self._cancel_until(0)
                    return False
                lit = a
                break
            if lit == 0:
                v = self._pick_branch()
                if v == 0:
                    self.model = Assignment(
                        self._assigns[u] == 1 for u in range(1, self.num_vars + 1)
                    )
                    self._cancel_until(0)
                    return True
                lit = v if self._saved[v] else -v
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)
