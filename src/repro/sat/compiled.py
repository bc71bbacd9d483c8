"""Compiled CDCL backend: a flat clause-arena core behind the reference API.

The reference solver (:mod:`repro.sat.solver`) keeps each clause as its
own Python list, watch lists in a dict, and per-variable state in parallel
lists accessed through small methods.  Per propagation that costs a dict
probe, a bound-method call per literal value check, and a tuple allocation
per surviving watcher — the interpreter overhead dominates once the SAT
phase is the hot loop (about 70% of a `RandS` sweep's wall time on the
reference solver).

This module rebuilds the same search around the memory hierarchy instead
(what MiniSat does in C, and what the sst-sat hardware port makes
explicit):

* **Clause arena** — every clause lives in one flat ``int32`` buffer: a
  header word holding the length, then the literals.  A clause reference
  (*cref*) is the header's arena index.  Learnt clauses are appended to
  the same arena; deletion negates the header (tombstone) and a
  compacting GC slides survivors down — in attachment order, so relative
  cref order (which the reduction ranking ties on) is preserved.
* **Watch vectors with inline blockers** — per-literal vectors of
  ``(cref, blocker)`` pairs.  A true blocker skips the clause without
  touching the arena: one read and one value probe instead of a clause
  load.  The reference solver implements the *same* blocker discipline,
  so both backends visit identical clauses in identical order.
* **Dense state** — assignment is a flat per-*literal* truth array
  (``vals[lit] in (1, 0, -1)``), and trail / level / reason / phase /
  VSIDS activity are flat per-variable arrays; no dicts, no objects.
* **Indexed activity heap** — branching pops an (activity desc, var asc)
  max-heap instead of scanning every variable.  The ordering is the exact
  total order the reference's linear argmax scan resolves to, so both
  backends pick the same decision variable every time.

The core itself is ``_satcore.c``, compiled on first import with the
system C compiler (result cached by source hash, so the build runs once
per machine) and driven through ``ctypes``.  The same library also
encodes the cones the solver checks: :mod:`repro.sat.tape` hands it a
network's lowering, the C cone encoder turns a root's new cone into a
stream of clauses, one per row of each gate's function (the reference
:class:`~repro.sat.tseitin.TseitinEncoder`'s variables and clauses, in
its order), and the solver takes a whole stream in one
``sat_add_clauses`` call; ``sat_ensure_vars`` creates a batch of
variables in one call.  When no compiler is available — or
``REPRO_CCORES=python`` forces it — the "compiled" backend falls back to
the reference :class:`~repro.sat.solver.CdclSolver` and the Python
encoder: identical results at 30-50x fewer propagations per second (on a
2-vCPU Xeon: 104k vs 3.27M/s on near-threshold 3-SAT and pigeonhole
instances, 32k vs 1.58M/s on php(8,7) plus three random 3-SAT
instances).  ``SAT_CORE`` says which core is active in this process.

The C core is **bit-identical** to the reference: same verdicts, models,
conflict / propagation / decision counts, learnt-clause trajectories, and
budget expiry points.  The differential-fuzz suite under ``tests/sat/``
and the sweep-level identity tests under ``tests/sweep/`` hold it to
that.
"""

from __future__ import annotations

import ctypes
import os
import time
from typing import Iterable, Optional, Sequence

from repro.errors import SatError
from repro.runtime.cbuild import CoreLoader, check_backend
from repro.sat.cnf import Cnf
from repro.sat.solver import CdclSolver, SatResult


def solver_class(backend: str = "compiled"):
    """The solver class for a backend name (usable as a solver factory)."""
    check_backend(backend, SatError)
    return CompiledCdclSolver if backend == "compiled" else CdclSolver


# ----------------------------------------------------------------------
# C core build + load
# ----------------------------------------------------------------------

#: Budget deadline poll callback: returns nonzero once the deadline passed.
_TIME_CB = ctypes.CFUNCTYPE(ctypes.c_int)

_SOURCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_satcore.c")


def _configure(lib: ctypes.CDLL) -> None:
    handle = ctypes.c_void_p
    i32p = ctypes.POINTER(ctypes.c_int32)
    lib.sat_new.argtypes = [ctypes.c_int64]
    lib.sat_new.restype = handle
    lib.sat_free.argtypes = [handle]
    lib.sat_free.restype = None
    lib.sat_new_var.argtypes = [handle]
    lib.sat_new_var.restype = ctypes.c_int
    lib.sat_num_vars.argtypes = [handle]
    lib.sat_num_vars.restype = ctypes.c_int
    lib.sat_ok.argtypes = [handle]
    lib.sat_ok.restype = ctypes.c_int
    lib.sat_ensure_vars.argtypes = [handle, ctypes.c_int32]
    lib.sat_ensure_vars.restype = ctypes.c_int
    lib.sat_add_clause.argtypes = [handle, i32p, ctypes.c_int32]
    lib.sat_add_clause.restype = ctypes.c_int
    lib.sat_add_clauses.argtypes = [handle, ctypes.c_void_p, ctypes.c_int64]
    lib.sat_add_clauses.restype = ctypes.c_int
    lib.sat_solve.argtypes = [
        handle,
        i32p,
        ctypes.c_int32,
        ctypes.c_int64,
        _TIME_CB,
        ctypes.POINTER(ctypes.c_int64),
    ]
    lib.sat_solve.restype = ctypes.c_int
    lib.sat_get_model.argtypes = [
        handle,
        ctypes.POINTER(ctypes.c_int8),
        ctypes.c_int32,
    ]
    lib.sat_get_model.restype = ctypes.c_int
    lib.sat_model_valid.argtypes = [handle]
    lib.sat_model_valid.restype = ctypes.c_int
    lib.sat_get_stats.argtypes = [handle, ctypes.POINTER(ctypes.c_int64)]
    lib.sat_get_stats.restype = None
    # Cone encoder (driven by repro.sat.tape.ConeEncoder).
    address = ctypes.c_void_p
    lib.enc_new.argtypes = [
        address, address, address, address, address, address, i32p,
    ]
    lib.enc_new.restype = handle
    lib.enc_free.argtypes = [handle]
    lib.enc_free.restype = None
    lib.enc_encode_cone.argtypes = [handle, ctypes.c_int32]
    lib.enc_encode_cone.restype = ctypes.c_int32
    lib.enc_new_var.argtypes = [handle]
    lib.enc_new_var.restype = ctypes.c_int32
    lib.enc_num_vars.argtypes = [handle]
    lib.enc_num_vars.restype = ctypes.c_int32
    lib.enc_miter.argtypes = [
        handle, ctypes.c_int32, ctypes.c_int32, ctypes.c_int
    ]
    lib.enc_miter.restype = ctypes.c_int
    lib.enc_stream.argtypes = [handle, ctypes.POINTER(ctypes.c_int64)]
    lib.enc_stream.restype = ctypes.c_void_p


#: Build / load / corrupt-cache-recovery machinery, shared with the
#: SimGen and simulator cores (see :mod:`repro.runtime.cbuild`).
_LOADER = CoreLoader(
    source_path=_SOURCE_PATH,
    cache_name="satcore",
    configure=_configure,
    describe="compiled SAT core",
    fallback="the reference solver (identical results, 30-50x fewer "
    "propagations per second)",
)

_LIB = _LOADER.load()

#: Which core backs :class:`CompiledCdclSolver` in this process: ``"c"``
#: when ``_satcore.c`` compiled and loaded, ``"python"`` otherwise.
SAT_CORE = "c" if _LIB is not None else "python"


class CArenaCdclSolver:
    """The ``_satcore.c`` clause-arena core behind the reference solver API.

    The hot search loop (propagation, analysis, reduction, GC) runs
    entirely in C; Python keeps only the pieces whose semantics belong to
    the caller — budget admission and deadline polling, conflict-limit
    merging, wall-clock accounting, and model extraction.  Result and
    model semantics mirror :class:`~repro.sat.solver.CdclSolver` exactly,
    including which early returns leave a previous model readable.
    """

    #: Live learnts that trigger the first reduction; passed to the C core
    #: at construction, so a subclass override takes effect there too.
    LEARNT_CAP_INIT = CdclSolver.LEARNT_CAP_INIT

    def __init__(self) -> None:
        if _LIB is None:
            raise SatError(
                "compiled SAT core unavailable in this process "
                "(no C compiler, or REPRO_CCORES=python)"
            )
        self._lib = _LIB
        self._handle = self._lib.sat_new(self.LEARNT_CAP_INIT)
        if not self._handle:
            raise SatError("satcore allocation failed")
        self._model: Optional[dict[int, bool]] = None
        self._solve_calls = 0
        self._solve_seconds = 0.0
        self._buf = (ctypes.c_int32 * 64)()

    def __del__(self) -> None:
        handle = getattr(self, "_handle", None)
        lib = getattr(self, "_lib", None)
        if handle and lib is not None:
            lib.sat_free(handle)
            self._handle = None

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable; returns its DIMACS index."""
        var = self._lib.sat_new_var(self._handle)
        if var < 0:
            raise MemoryError("satcore variable allocation failed")
        return var

    def _ensure_vars(self, var: int) -> None:
        # One C call creates every missing variable, in ascending order.
        if not self._lib.sat_ensure_vars(self._handle, var):
            raise MemoryError("satcore variable allocation failed")

    @property
    def num_vars(self) -> int:
        return self._lib.sat_num_vars(self._handle)

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause (DIMACS literals); returns False if trivially UNSAT.

        Same root-level simplification as the reference solver (performed
        in C): tautologies and root-satisfied clauses are dropped,
        root-falsified literals are stripped, units are enqueued and
        propagated.
        """
        lits = []
        for lit in literals:
            if lit == 0:
                raise SatError("literal 0 is not allowed")
            lits.append(lit)
        n = len(lits)
        buf = self._buf
        if n > len(buf):
            self._buf = buf = (ctypes.c_int32 * max(n, 2 * len(buf)))()
        buf[:n] = lits
        rc = self._lib.sat_add_clause(self._handle, buf, n)
        if rc < 0:
            # -1 covers both "called at decision level > 0" (a caller
            # bug, surfaced like the reference) and allocation failure.
            raise SatError("add_clause only allowed at decision level 0")
        return bool(rc)

    def add_cnf(self, cnf: Cnf) -> bool:
        """Add all clauses of a :class:`~repro.sat.cnf.Cnf`."""
        self._ensure_vars(cnf.num_vars)
        ok = True
        for clause in cnf:
            ok = self.add_clause(clause) and ok
        return ok

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
        budget=None,
    ) -> SatResult:
        """Run the CDCL search (same contract as the reference solver)."""
        start = time.perf_counter()
        try:
            return self._solve(assumptions, conflict_limit, budget)
        finally:
            self._solve_calls += 1
            self._solve_seconds += time.perf_counter() - start

    def _solve(
        self,
        assumptions: Sequence[int],
        conflict_limit: Optional[int],
        budget,
    ) -> SatResult:
        lib = self._lib
        handle = self._handle
        if not lib.sat_ok(handle):
            return SatResult.UNSAT
        if budget is not None and (
            budget.time_expired() or budget.remaining_conflicts() == 0
        ):
            self._model = None
            return SatResult.UNKNOWN

        assumption_list = []
        for lit in assumptions:
            if lit == 0:
                raise SatError("literal 0 is not allowed")
            assumption_list.append(lit)
        n = len(assumption_list)
        assum = (ctypes.c_int32 * n)(*assumption_list) if n else None

        if budget is not None:
            remaining = budget.remaining_conflicts()
            if remaining is not None and (
                conflict_limit is None or remaining < conflict_limit
            ):
                conflict_limit = remaining
            expired = budget.time_expired
            callback = _TIME_CB(lambda: 1 if expired() else 0)
        else:
            callback = _TIME_CB()  # NULL: no deadline polling in C

        conflicts = ctypes.c_int64(0)
        rc = lib.sat_solve(
            handle,
            assum,
            n,
            -1 if conflict_limit is None else conflict_limit,
            callback,
            ctypes.byref(conflicts),
        )
        if rc < 0:
            raise MemoryError("satcore solve allocation failed")
        if rc == 3:
            # UNSAT before the search loop (root propagation conflict):
            # the reference's early return, which leaves any previous
            # model readable and charges nothing to the budget.
            return SatResult.UNSAT
        if budget is not None:
            budget.charge_conflicts(conflicts.value)
        if rc == 1:
            num_vars = lib.sat_num_vars(handle)
            raw_buf = (ctypes.c_int8 * (num_vars + 1))()
            lib.sat_get_model(handle, raw_buf, num_vars + 1)
            raw = ctypes.string_at(raw_buf, num_vars + 1)
            # Per-var bytes: 1 true, 0 false, 255 (== -1) unassigned.
            self._model = {
                var: raw[var] == 1
                for var in range(1, num_vars + 1)
                if raw[var] != 255
            }
            return SatResult.SAT
        self._model = None
        return SatResult.UNSAT if rc == 0 else SatResult.UNKNOWN

    def model(self) -> dict[int, bool]:
        """The satisfying assignment of the last SAT solve call."""
        if self._model is None:
            raise SatError("no model available (last result was not SAT)")
        return dict(self._model)

    @property
    def stats(self) -> dict:
        """Counter snapshot, the reference solver's keys plus arena/GC."""
        raw = (ctypes.c_int64 * 10)()
        self._lib.sat_get_stats(self._handle, raw)
        return {
            "decisions": raw[0],
            "conflicts": raw[1],
            "propagations": raw[2],
            "restarts": raw[3],
            "learnts_deleted": raw[4],
            "reductions": raw[5],
            "solve_calls": self._solve_calls,
            "solve_seconds": self._solve_seconds,
            "watchers_compacted": raw[6],
            "arena_bytes": raw[7],
            "arena_gcs": raw[8],
            "arena_words_reclaimed": raw[9],
        }


#: The "compiled" backend's solver class in this process: the C arena core
#: when it built and loaded, the reference solver otherwise.
CompiledCdclSolver = CArenaCdclSolver if _LIB is not None else CdclSolver
