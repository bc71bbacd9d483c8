"""Equivalence-pair checking against the SAT solver.

Two modes:

* **Incremental** (default): one CDCL solver holds the Tseitin encoding of
  every cone touched so far; each pair query adds miter clauses guarded by
  a fresh selector literal and solves under that assumption.  Learnt
  clauses persist across queries — the trick that makes SAT sweeping
  practical (and what MiniSat-inside-ABC does).  Those learnt from a
  miter carry the negated selector and die when it is retired, so each
  proven equivalence is kept as two permanent binary clauses instead:
  later queries propagate it rather than re-derive it, and a solver
  rebuilt after a fault gets them back.
* **Fresh** (query-pure): a new solver and cone encoding per query, so a
  verdict depends on the pair alone; journaled and served runs use it.

On the C core (the ``compiled`` backend with ``SAT_CORE == "c"`` and no
explicit solver factory) both modes encode cones in C from the network's
lowering (:class:`~repro.sat.tape.ConeEncoder`) and ship each query's
new clauses to the solver in one bulk call; otherwise the Python
:class:`~repro.sat.tseitin.TseitinEncoder` encodes and clauses are added
one at a time.  Both give the same variables, clauses and verdicts.

Robustness: each query honours an optional :class:`Budget` (deadline,
conflict, and SAT-call caps), and a :class:`TransientSolverError` from the
solver is retried with a *fresh* solver a bounded number of times before
the query degrades to UNKNOWN — never to a fabricated verdict.

:meth:`PairChecker.check_pairs` gives the checker the interface of
:class:`~repro.runtime.pool.CheckerPool`, so the sweep engine answers
every pair query through one seam, in process or pooled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import TransientSolverError
from repro.network.network import Network
from repro.runtime.budget import Budget
from repro.runtime.pool import PairVerdict
from repro.sat.compiled import solver_class
from repro.sat.solver import CdclSolver, SatResult
from repro.sat.tape import ConeEncoder, stream_encoding_available
from repro.sat.tseitin import TseitinEncoder, pair_miter
from repro.simulation.patterns import InputVector

#: Sentinel so ``check(..., conflict_limit=None)`` can mean "unbounded".
_DEFAULT_LIMIT = object()


@dataclass(slots=True)
class CheckerStats:
    """Counters a sweep reports from its SAT phase."""

    calls: int = 0
    sat_time: float = 0.0
    proven: int = 0
    disproven: int = 0
    unknown: int = 0
    #: CDCL conflicts consumed across all queries (pool workers report the
    #: per-query delta back so the parent can charge the shared budget).
    conflicts: int = 0
    #: Unit propagations consumed across all queries — the work unit the
    #: compiled/reference backend identity is asserted on.
    propagations: int = 0
    #: Transient solver faults recovered by a fresh-solver retry.
    retries: int = 0


class PairChecker:
    """Answers "are these two nodes equivalent?" queries."""

    def __init__(
        self,
        network: Network,
        conflict_limit: Optional[int] = 20000,
        incremental: bool = True,
        budget: Optional[Budget] = None,
        solver_factory: Optional[Callable[[], CdclSolver]] = None,
        max_retries: int = 2,
        backend: str = "compiled",
    ):
        self.network = network
        self.conflict_limit = conflict_limit
        self.incremental = incremental
        self.budget = budget
        self.max_retries = max_retries
        # An explicit factory (fault injection, cross-checking) wins; the
        # backend name otherwise picks the compiled or reference solver.
        self._solver_factory = solver_factory or solver_class(backend)
        #: Cones are encoded in C only for solvers that take its clause
        #: stream: the C core, built by the backend rather than a factory.
        self._streamed = solver_factory is None and stream_encoding_available(
            backend
        )
        self.stats = CheckerStats()
        #: Solver counters accumulated across fresh-mode queries (the
        #: per-query solvers are otherwise discarded with their stats).
        self._fresh_stats: dict = {}
        #: The encoder of the incremental solver, or the C encoder reused
        #: (reset per query) by query-pure checks; the C one is created on
        #: the first query, so an unused checker never lowers its network.
        self._encoder = None
        if incremental:
            self._solver = self._solver_factory()
            if not self._streamed:
                self._encoder = TseitinEncoder(network)
            #: Encoded clauses already added to the solver: a count of
            #: ``cnf.clauses``, or of stream words on the C path.
            self._shipped = 0
            #: The permanent binary clauses of every proven equivalence, in
            #: the order they were added (a rebuilt solver gets them back).
            self._proofs: list[tuple[int, int]] = []

    @property
    def solver_stats(self) -> dict:
        """Counters of the underlying CDCL solver(s) (decisions, conflicts,
        propagations, restarts, solve seconds, ...) for registry export."""
        if self.incremental:
            return dict(getattr(self._solver, "stats", {}) or {})
        return dict(self._fresh_stats)

    # ------------------------------------------------------------------
    def check_pairs(
        self,
        pairs: Sequence[tuple[int, int, bool]],
        limits: Optional[Sequence[Optional[int]]] = None,
    ) -> list[PairVerdict]:
        """Answer ``(rep, member, complemented)`` pairs in order, in process,
        with :meth:`CheckerPool.check_pairs
        <repro.runtime.pool.CheckerPool.check_pairs>`'s interface.

        An UNKNOWN cut short by budget expiry or an exhausted solver retry
        comes back ``degraded``, like a pair lost to a dead pool worker: it
        has no deterministic verdict.
        """
        stats = self.stats
        verdicts = []
        for offset, (rep, member, complemented) in enumerate(pairs):
            limit = self.conflict_limit
            if limits is not None and limits[offset] is not None:
                limit = limits[offset]
            seconds, conflicts = stats.sat_time, stats.conflicts
            propagations, retries = stats.propagations, stats.retries
            outcome, vector = self.check(
                rep, member, complemented, conflict_limit=limit
            )
            degraded = outcome is SatResult.UNKNOWN and (
                stats.retries - retries > self.max_retries
                or (self.budget is not None and self.budget.expired())
            )
            verdicts.append(
                PairVerdict(
                    outcome,
                    vector,
                    stats.conflicts - conflicts,
                    stats.sat_time - seconds,
                    propagations=stats.propagations - propagations,
                    degraded=degraded,
                    limit=limit,
                )
            )
        return verdicts

    def check(
        self,
        node_a: int,
        node_b: int,
        complement: bool = False,
        conflict_limit=_DEFAULT_LIMIT,
    ) -> tuple[SatResult, Optional[InputVector]]:
        """One equivalence query.

        Returns ``(UNSAT, None)`` when the nodes are proven equivalent
        (or complement-equivalent when ``complement``), ``(SAT, vector)``
        with a distinguishing input vector otherwise, or
        ``(UNKNOWN, None)`` at the conflict budget / deadline / after the
        solver-retry budget.

        Args:
            conflict_limit: Per-call override of the checker-wide limit
                (``None`` = unbounded); escalation ladders use this to
                retry abandoned pairs with a larger budget.
        """
        limit = (
            self.conflict_limit if conflict_limit is _DEFAULT_LIMIT
            else conflict_limit
        )
        start = time.perf_counter()
        result: SatResult = SatResult.UNKNOWN
        vector: Optional[InputVector] = None
        try:
            if self.budget is None or not self.budget.expired():
                if self.budget is not None:
                    self.budget.charge_sat_call()
                result, vector = self._check_with_retries(
                    node_a, node_b, complement, limit
                )
            return result, vector
        finally:
            # The stats window closes on *every* exit path — deadline,
            # KeyboardInterrupt mid-solve, worker teardown — so this clock
            # (the single owner of SAT seconds) never leaks an open window;
            # an aborted query is recorded as an UNKNOWN call.
            self.stats.calls += 1
            self.stats.sat_time += time.perf_counter() - start
            if result is SatResult.UNSAT:
                self.stats.proven += 1
            elif result is SatResult.SAT:
                self.stats.disproven += 1
            else:
                self.stats.unknown += 1

    def _check_with_retries(
        self, node_a: int, node_b: int, complement: bool, limit: Optional[int]
    ) -> tuple[SatResult, Optional[InputVector]]:
        attempts = 0
        while True:
            try:
                if self.incremental:
                    return self._check_incremental(
                        node_a, node_b, complement, limit
                    )
                return self._check_fresh(node_a, node_b, complement, limit)
            except TransientSolverError:
                # The failing solver is poisoned; rebuild and retry.
                self.stats.retries += 1
                attempts += 1
                if self.incremental:
                    self._rebuild_incremental()
                if attempts > self.max_retries:
                    return SatResult.UNKNOWN, None

    def _rebuild_incremental(self) -> None:
        """Fresh solver, re-fed every Tseitin clause encoded so far and then
        the clauses of every proven equivalence.

        Selector-guarded miter clauses of past queries live only in the
        dead solver; they were retired anyway, so dropping them is safe.
        """
        self._solver = self._solver_factory()
        self._shipped = 0
        self._ship_cones()
        for clause in self._proofs:
            self._solver.add_clause(clause)

    def _ship_cones(self) -> None:
        """Add the encoded clauses the solver does not hold yet."""
        if self._streamed:
            # The stream's unshipped tail goes over in one call.
            self._shipped = self._cone_encoder().ship(
                self._solver, self._shipped
            )
            return
        clauses = self._encoder.cnf.clauses
        while self._shipped < len(clauses):
            self._solver.add_clause(clauses[self._shipped])
            self._shipped += 1

    def _cone_encoder(self) -> ConeEncoder:
        """The C encoder, created on first use (over the network's
        lowering, built then if no core has built it yet)."""
        if self._encoder is None:
            self._encoder = ConeEncoder(self.network.lowering())
        return self._encoder

    # ------------------------------------------------------------------
    def _check_fresh(
        self, node_a: int, node_b: int, complement: bool, limit: Optional[int]
    ) -> tuple[SatResult, Optional[InputVector]]:
        if self._streamed:
            encoder = self._cone_encoder()
            encoder.miter(node_a, node_b, complement)
            solver = self._solver_factory()
            encoder.load_into(solver)
        else:
            cnf, encoder = pair_miter(self.network, node_a, node_b, complement)
            solver = self._solver_factory()
            solver.add_cnf(cnf)
        result = solver.solve(conflict_limit=limit, budget=self.budget)
        self.stats.conflicts += solver.stats.get("conflicts", 0)
        self.stats.propagations += solver.stats.get("propagations", 0)
        for key, value in solver.stats.items():
            if isinstance(value, (int, float)):
                self._fresh_stats[key] = self._fresh_stats.get(key, 0) + value
        if result is SatResult.SAT:
            return result, encoder.model_to_vector(solver.model())
        return result, None

    def _check_incremental(
        self, node_a: int, node_b: int, complement: bool, limit: Optional[int]
    ) -> tuple[SatResult, Optional[InputVector]]:
        encoder = self._cone_encoder() if self._streamed else self._encoder
        var_a = encoder.encode_cone(node_a)
        var_b = encoder.encode_cone(node_b)
        self._ship_cones()
        # Allocate the selector from the encoder so later cone encodings
        # never reuse its index (the solver sizes itself from the clauses).
        selector = (
            encoder.new_var() if self._streamed else encoder.cnf.new_var()
        )
        if complement:
            # Under the selector, assert the nodes are EQUAL (SAT would
            # refute the complement-equivalence candidate).
            self._solver.add_clause([-selector, var_a, -var_b])
            self._solver.add_clause([-selector, -var_a, var_b])
        else:
            self._solver.add_clause([-selector, var_a, var_b])
            self._solver.add_clause([-selector, -var_a, -var_b])
        before = self._solver.stats
        before_conflicts = before.get("conflicts", 0)
        before_props = before.get("propagations", 0)
        result = self._solver.solve(
            assumptions=[selector], conflict_limit=limit, budget=self.budget
        )
        after = self._solver.stats
        self.stats.conflicts += after.get("conflicts", 0) - before_conflicts
        self.stats.propagations += after.get("propagations", 0) - before_props
        vector = None
        if result is SatResult.SAT:
            vector = encoder.model_to_vector(self._solver.model())
        # Retire the selector so this miter never constrains later queries.
        # Every clause learnt from the miter carries -selector and dies
        # with it, so a proof is kept as two permanent binary clauses that
        # later queries propagate instead of re-deriving.
        self._solver.add_clause([-selector])
        if result is SatResult.UNSAT:
            if complement:
                proof = ((var_a, var_b), (-var_a, -var_b))
            else:
                proof = ((-var_a, var_b), (var_a, -var_b))
            for clause in proof:
                self._solver.add_clause(clause)
            self._proofs += proof
        return result, vector
