"""A CDCL SAT solver.

This is the verification engine behind SAT sweeping (the role MiniSat plays
inside ABC).  Features: two-watched-literal propagation, first-UIP conflict
analysis with clause learning, VSIDS-style activity with decay, phase
saving (polarities persist across backtracks *and* across incremental
solve calls), LBD-scored learnt clauses with periodic database reduction
(so a long-lived incremental solver serving thousands of sweep queries
does not accumulate learnts unboundedly), geometric restarts, and an
optional conflict budget that yields ``UNKNOWN`` instead of running away
on hard instances.

Internal literal encoding: variable ``v`` (1-based) has positive literal
``2*v`` and negative literal ``2*v + 1``; DIMACS ints are converted at the
API boundary.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import Iterable, Optional, Sequence

from repro.errors import SatError
from repro.sat.cnf import Cnf


class SatResult(Enum):
    """Outcome of a solve call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


def _to_internal(lit: int) -> int:
    if lit == 0:
        raise SatError("literal 0 is not allowed")
    var = abs(lit)
    return 2 * var + (1 if lit < 0 else 0)


def _negate(ilit: int) -> int:
    return ilit ^ 1


def _var(ilit: int) -> int:
    return ilit >> 1


class CdclSolver:
    """Conflict-driven clause-learning solver over DIMACS-style literals."""

    _UNASSIGNED = -1

    #: Learnt-DB reduction starts once this many learnts are live; the cap
    #: grows geometrically after every reduction (MiniSat-style).
    LEARNT_CAP_INIT = 4000
    LEARNT_CAP_GROWTH = 1.3

    def __init__(self) -> None:
        self._num_vars = 0
        self._clauses: list[Optional[list[int]]] = []
        #: literal -> list of ``(clause index, blocker literal)`` watchers.
        #: The blocker is a cached other literal of the clause; while it is
        #: true the clause is satisfied and the visit skips the clause
        #: entirely (MiniSat's blocker discipline — the compiled backend
        #: implements the identical rule, which keeps the two bit-identical).
        self._watches: dict[int, list[tuple[int, int]]] = {}
        #: Live learnt clauses: clause index -> LBD at learn time.
        self._learnts: dict[int, int] = {}
        self._learnt_cap = self.LEARNT_CAP_INIT
        # Per-variable state, 1-indexed (index 0 unused).
        self._assign: list[int] = [self._UNASSIGNED]  # 0/1/UNASSIGNED
        self._level: list[int] = [0]
        self._reason: list[int] = [-1]  # clause index or -1
        self._activity: list[float] = [0.0]
        self._phase: list[int] = [0]
        self._trail: list[int] = []  # internal literals in assignment order
        self._trail_lim: list[int] = []  # trail length at each decision level
        self._qhead = 0
        self._ok = True  # False once an empty clause was added
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._stats = {
            "decisions": 0,
            "conflicts": 0,
            "propagations": 0,
            "restarts": 0,
            "learnts_deleted": 0,
            "reductions": 0,
            "solve_calls": 0,
            "solve_seconds": 0.0,
            "watchers_compacted": 0,
        }

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable; returns its DIMACS index."""
        self._num_vars += 1
        self._assign.append(self._UNASSIGNED)
        self._level.append(0)
        self._reason.append(-1)
        self._activity.append(0.0)
        self._phase.append(0)
        return self._num_vars

    def _ensure_vars(self, var: int) -> None:
        while self._num_vars < var:
            self.new_var()

    @property
    def stats(self) -> dict:
        """Counter snapshot (the search updates ``_stats`` in place)."""
        return dict(self._stats)

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause (DIMACS literals); returns False if trivially UNSAT.

        Must be called at decision level 0 (i.e., between solve calls).
        """
        if self._trail_lim:
            raise SatError("add_clause only allowed at decision level 0")
        seen: set[int] = set()
        clause: list[int] = []
        for lit in literals:
            ilit = _to_internal(lit)
            self._ensure_vars(_var(ilit))
            if _negate(ilit) in seen:
                return True  # tautology
            if ilit in seen:
                continue
            value = self._value(ilit)
            if value == 1 and self._level[_var(ilit)] == 0:
                return True  # satisfied at root
            if value == 0 and self._level[_var(ilit)] == 0:
                continue  # falsified at root: drop literal
            seen.add(ilit)
            clause.append(ilit)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], -1):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict >= 0:
                self._ok = False
                return False
            return True
        self._attach_clause(clause)
        return True

    def add_cnf(self, cnf: Cnf) -> bool:
        """Add all clauses of a :class:`~repro.sat.cnf.Cnf`."""
        self._ensure_vars(cnf.num_vars)
        ok = True
        for clause in cnf:
            ok = self.add_clause(clause) and ok
        return ok

    def _attach_clause(self, clause: list[int], lbd: Optional[int] = None) -> int:
        index = len(self._clauses)
        self._clauses.append(clause)
        self._watches.setdefault(clause[0], []).append((index, clause[1]))
        self._watches.setdefault(clause[1], []).append((index, clause[0]))
        if lbd is not None:
            self._learnts[index] = lbd
        return index

    def _reduce_learnts(self) -> None:
        """Delete the worst half of the removable learnt clauses.

        Ranking is (LBD desc, length desc, index desc) — fully deterministic.
        Glue clauses (LBD <= 2) and clauses locked as a reason of a current
        trail assignment are never removed.  Deleted slots become ``None``
        tombstones, and every watch list is compacted eagerly right here:
        dropping tombstoned entries only when their literal is next
        falsified (the old lazy rule) let watch lists on rarely-assigned
        literals grow without bound across escalation rungs.
        """
        locked = {self._reason[_var(ilit)] for ilit in self._trail}
        removable = sorted(
            (
                ci
                for ci, lbd in self._learnts.items()
                if lbd > 2 and ci not in locked
            ),
            key=lambda ci: (
                -self._learnts[ci],
                -len(self._clauses[ci]),
                -ci,
            ),
        )
        deleted = removable[: len(removable) // 2]
        for ci in deleted:
            self._clauses[ci] = None
            del self._learnts[ci]
        self._stats["learnts_deleted"] += len(deleted)
        self._stats["reductions"] += 1
        self._learnt_cap = int(self._learnt_cap * self.LEARNT_CAP_GROWTH)
        if deleted:
            self._compact_watches()

    def _compact_watches(self) -> None:
        """Drop watch entries of deleted clauses from every watch list.

        Order-preserving, so the surviving entries are visited in the same
        order as before — the propagation trajectory is unchanged.
        """
        clauses = self._clauses
        dropped = 0
        for lit, watch_list in self._watches.items():
            kept = [
                entry for entry in watch_list if clauses[entry[0]] is not None
            ]
            if len(kept) != len(watch_list):
                dropped += len(watch_list) - len(kept)
                self._watches[lit] = kept
        self._stats["watchers_compacted"] += dropped

    # ------------------------------------------------------------------
    # Assignment machinery
    # ------------------------------------------------------------------
    def _value(self, ilit: int) -> int:
        """1 if literal true, 0 if false, UNASSIGNED otherwise."""
        av = self._assign[_var(ilit)]
        if av == self._UNASSIGNED:
            return self._UNASSIGNED
        return av ^ (ilit & 1)

    def _enqueue(self, ilit: int, reason: int) -> bool:
        value = self._value(ilit)
        if value == 0:
            return False
        if value == 1:
            return True
        var = _var(ilit)
        self._assign[var] = 1 - (ilit & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(ilit)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns conflicting clause index or -1."""
        while self._qhead < len(self._trail):
            ilit = self._trail[self._qhead]
            self._qhead += 1
            self._stats["propagations"] += 1
            false_lit = _negate(ilit)
            watch_list = self._watches.get(false_lit)
            if not watch_list:
                continue
            new_list: list[tuple[int, int]] = []
            conflict = -1
            i = 0
            while i < len(watch_list):
                ci, blocker = watch_list[i]
                i += 1
                # A true blocker means the clause is satisfied: skip it
                # without touching the clause (the entry keeps its blocker).
                if self._value(blocker) == 1:
                    new_list.append((ci, blocker))
                    continue
                clause = self._clauses[ci]
                if clause is None:
                    continue  # deleted learnt: drop from this watch list
                # Normalize: put the false literal at position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if first != blocker and self._value(first) == 1:
                    new_list.append((ci, first))
                    continue
                # Look for a replacement watch.
                moved = False
                for k in range(2, len(clause)):
                    if self._value(clause[k]) != 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(clause[1], []).append(
                            (ci, first)
                        )
                        moved = True
                        break
                if moved:
                    continue
                new_list.append((ci, first))
                if not self._enqueue(first, ci):
                    conflict = ci
                    new_list.extend(watch_list[i:])
                    break
            self._watches[false_lit] = new_list
            if conflict >= 0:
                return conflict
        return -1

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        for ilit in reversed(self._trail[bound:]):
            var = _var(ilit)
            self._phase[var] = self._assign[var]
            self._assign[var] = self._UNASSIGNED
            self._reason[var] = -1
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP analysis; returns (learnt clause, backjump level)."""
        current = len(self._trail_lim)
        learnt: list[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        p = -1
        index = len(self._trail) - 1
        clause = self._clauses[conflict]
        while True:
            start = 0 if p == -1 else 1
            for q in clause[start:]:
                var = _var(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self._level[var] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            # Find the next literal on the trail to resolve on.
            while not seen[_var(self._trail[index])]:
                index -= 1
            p = self._trail[index]
            index -= 1
            var = _var(p)
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            clause = self._clauses[self._reason[var]]
        learnt[0] = _negate(p)
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest level in the clause; move that
        # literal to watch position 1.
        max_i = 1
        for i in range(2, len(learnt)):
            if self._level[_var(learnt[i])] > self._level[_var(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self._level[_var(learnt[1])]

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _pick_branch(self) -> int:
        best_var = 0
        best_act = -1.0
        for var in range(1, self._num_vars + 1):
            if self._assign[var] == self._UNASSIGNED:
                if self._activity[var] > best_act:
                    best_act = self._activity[var]
                    best_var = var
        if best_var == 0:
            return -1
        phase = self._phase[best_var]
        return 2 * best_var + (1 if phase == 0 else 0)

    #: Propagations between deadline polls.  Checking wall time costs a
    #: clock read, so the hot loop only looks every this many propagations;
    #: the worst-case deadline overshoot is one interval of propagation.
    BUDGET_CHECK_INTERVAL = 2048

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
        budget=None,
    ) -> SatResult:
        """Run the CDCL search.

        Args:
            assumptions: Literals forced for this call only.
            conflict_limit: Abort with ``UNKNOWN`` after this many conflicts.
            budget: Optional :class:`~repro.runtime.budget.Budget`.  Its
                deadline is polled every :attr:`BUDGET_CHECK_INTERVAL`
                propagations, its conflict headroom tightens the conflict
                limit, and consumed conflicts are charged back on return.
        """
        start = time.perf_counter()
        try:
            return self._solve(assumptions, conflict_limit, budget)
        finally:
            # Closed on every exit path (UNKNOWN abort, interrupt) so the
            # per-solve wall clock never leaks an open window.
            self._stats["solve_calls"] += 1
            self._stats["solve_seconds"] += time.perf_counter() - start

    def _solve(
        self,
        assumptions: Sequence[int],
        conflict_limit: Optional[int],
        budget,
    ) -> SatResult:
        if not self._ok:
            return SatResult.UNSAT
        # Deadline / conflict headroom gate the work below; the SAT-call cap
        # deliberately does not — admission of a new call is the caller's
        # decision (the cap counts calls allowed to run, and this one was).
        if budget is not None and (
            budget.time_expired() or budget.remaining_conflicts() == 0
        ):
            self._model = None
            return SatResult.UNKNOWN
        self._cancel_until(0)
        conflict = self._propagate()
        if conflict >= 0:
            self._ok = False
            return SatResult.UNSAT

        assumption_lits = [_to_internal(lit) for lit in assumptions]
        for ilit in assumption_lits:
            self._ensure_vars(_var(ilit))

        if budget is not None:
            remaining = budget.remaining_conflicts()
            if remaining is not None and (
                conflict_limit is None or remaining < conflict_limit
            ):
                conflict_limit = remaining
        next_time_check = (
            self._stats["propagations"] + self.BUDGET_CHECK_INTERVAL
            if budget is not None
            else None
        )

        conflicts_seen = 0
        restart_budget = 64
        result = SatResult.UNKNOWN
        while True:
            conflict = self._propagate()
            if (
                next_time_check is not None
                and self._stats["propagations"] >= next_time_check
            ):
                next_time_check = (
                    self._stats["propagations"] + self.BUDGET_CHECK_INTERVAL
                )
                if budget.time_expired():
                    result = SatResult.UNKNOWN
                    break
            if conflict >= 0:
                conflicts_seen += 1
                self._stats["conflicts"] += 1
                level = len(self._trail_lim)
                if level <= len(assumption_lits):
                    # Conflict depends only on assumptions (or root): UNSAT
                    # under these assumptions.
                    result = SatResult.UNSAT
                    break
                learnt, back = self._analyze(conflict)
                # LBD (literal block distance): distinct decision levels in
                # the learnt clause, measured before backjumping unassigns
                # them.  Low LBD ("glue") clauses are kept forever.
                lbd = len({self._level[_var(q)] for q in learnt})
                back = max(back, self._num_assumption_levels())
                self._cancel_until(back)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], -1):
                        result = SatResult.UNSAT
                        break
                else:
                    ci = self._attach_clause(learnt, lbd=lbd)
                    self._enqueue(learnt[0], ci)
                self._var_inc /= self._var_decay
                if conflict_limit is not None and conflicts_seen >= conflict_limit:
                    result = SatResult.UNKNOWN
                    break
                if conflicts_seen >= restart_budget:
                    restart_budget = int(restart_budget * 1.5)
                    self._stats["restarts"] += 1
                    self._cancel_until(self._num_assumption_levels())
                    if len(self._learnts) >= self._learnt_cap:
                        self._reduce_learnts()
                continue

            # No conflict: extend assumptions, then decide.
            level = len(self._trail_lim)
            if level < len(assumption_lits):
                ilit = assumption_lits[level]
                value = self._value(ilit)
                if value == 0:
                    result = SatResult.UNSAT
                    break
                self._trail_lim.append(len(self._trail))
                if value != 1:
                    self._enqueue(ilit, -1)
                continue
            decision = self._pick_branch()
            if decision == -1:
                result = SatResult.SAT
                break
            self._stats["decisions"] += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, -1)

        if budget is not None:
            budget.charge_conflicts(conflicts_seen)
        if result is SatResult.SAT:
            self._model = {
                var: bool(self._assign[var])
                for var in range(1, self._num_vars + 1)
                if self._assign[var] != self._UNASSIGNED
            }
        else:
            self._model = None
        self._cancel_until(0)
        return result

    def _num_assumption_levels(self) -> int:
        # During search, assumption decisions occupy the lowest levels; we
        # conservatively never backjump past them inside one solve call.
        return 0

    def model(self) -> dict[int, bool]:
        """The satisfying assignment of the last SAT solve call."""
        if getattr(self, "_model", None) is None:
            raise SatError("no model available (last result was not SAT)")
        return dict(self._model)


def solve_cnf(
    cnf: Cnf,
    assumptions: Sequence[int] = (),
    conflict_limit: Optional[int] = None,
    budget=None,
) -> tuple[SatResult, Optional[dict[int, bool]]]:
    """One-shot solve of a CNF; returns (result, model or None)."""
    solver = CdclSolver()
    solver.add_cnf(cnf)
    result = solver.solve(assumptions, conflict_limit, budget)
    model = solver.model() if result is SatResult.SAT else None
    return result, model
