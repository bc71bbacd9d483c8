"""The SAT-sweeping engine (the blue box of the paper's Figure 2).

The flow mirrors a sweeping tool like ABC's fraiging:

1. **Random simulation** partitions all candidate nodes into equivalence
   classes by signature.
2. **Guided simulation** (any :class:`~repro.core.generator.BaseVectorGenerator`
   plugin — RandS, RevS, or SimGen) refines the classes for a fixed number
   of iterations; the Equation-5 cost is recorded per iteration.
3. **SAT phase**: for every remaining class, candidate pairs are checked
   with the CDCL solver; UNSAT proves equivalence, SAT yields a
   counterexample vector that is simulated back to split further classes
   (the feedback arrow of Figure 2).

The engine measures exactly what the paper reports: per-iteration cost,
simulation runtime, SAT calls, and SAT runtime.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.core.compiled import adapt_backend
from repro.core.generator import BaseVectorGenerator
from repro.errors import SweepError, TransientSimulationError
from repro.network.network import Network
from repro.obs import NULL_TRACER, MetricsRegistry
from repro.runtime.budget import Budget
from repro.runtime.journal import config_fingerprint
from repro.runtime.pool import DEFAULT_SHARDS, CheckerPool, PairVerdict
from repro.runtime.supervise import RetryPolicy
from repro.sat.compiled import SAT_BACKENDS
from repro.sat.solver import SatResult
from repro.simulation.compiled import CompiledSimulator
from repro.simulation.patterns import InputVector, PatternBatch
from repro.simulation.simulator import Simulator
from repro.sweep.checker import PairChecker
from repro.sweep.classes import EquivalenceClasses


@dataclass(slots=True)
class SweepConfig:
    """Tunable parameters of a sweep run."""

    #: Master RNG seed; every stage derives from it (deterministic runs).
    seed: int = 0
    #: Rounds of initial random simulation (paper §6.1 uses one round).
    random_rounds: int = 1
    #: Patterns per random round (one machine word's worth by default).
    random_width: int = 64
    #: Guided-generator iterations after random simulation (paper: 20).
    iterations: int = 20
    #: Track PIs as class members (off: LUT outputs only, as in §6.1).
    include_pis: bool = False
    #: Enable complemented-signature matching (fraiging-style extension).
    match_complements: bool = False
    #: CDCL conflict budget per equivalence query (None = unbounded).
    sat_conflict_limit: Optional[int] = 20000
    #: Feed SAT counterexamples back into simulation (Figure 2 feedback).
    resimulate_cex: bool = True
    #: One persistent solver with selector-guarded miters (ABC-style); the
    #: fresh-solver-per-query mode exists for cross-checking.
    incremental_sat: bool = True
    #: ``"compiled"`` simulates through the tape-compiled engine with
    #: batched counterexample resimulation over cone-restricted tapes;
    #: ``"reference"`` keeps the original dict-walking simulator and the
    #: one-full-network-pass-per-disproof resimulation.  Both produce
    #: bit-identical classes, cost histories, and SAT-call counts (the
    #: pinned trajectories in ``tests/sweep/test_engine.py`` check this);
    #: reference is the test oracle and a debugging aid.
    engine: str = "compiled"
    #: SimGen generator backend: ``"batch"`` / ``"compiled"`` /
    #: ``"reference"`` swap the provided generator to the matching twin
    #: (bit-identical trajectories, see :mod:`repro.core.compiled` and
    #: :mod:`repro.core.batch`); ``None`` keeps it as constructed.
    #: Non-SimGen generators are unaffected.
    simgen_backend: Optional[str] = None
    #: SAT solver backend for the equivalence queries: ``"compiled"`` runs
    #: the C arena-backed CDCL core (:mod:`repro.sat.compiled`, loaded via
    #: ctypes), ``"reference"`` the original
    #: :class:`repro.sat.solver.CdclSolver`.  Both follow bit-identical
    #: solver trajectories (verdicts, models, conflict counts,
    #: budget-expiry points).  Without a C compiler ``"compiled"`` falls
    #: back to the reference solver: same results, 30-50x fewer
    #: propagations per second.  An explicit ``solver_factory`` overrides
    #: the backend choice.
    sat_backend: str = "compiled"
    #: Max pending counterexamples per resimulation flush.  Pending
    #: vectors are always flushed before the classes are next consulted,
    #: so batching never changes results; wider batches form when several
    #: counterexamples are queued back-to-back (e.g. via
    #: :meth:`SweepEngine.queue_counterexample`).
    cex_batch_width: int = 64
    #: Recompile the resimulation tape onto the surviving splittable
    #: members' cones when their count falls below this fraction of the
    #: previously compiled target set (geometric => amortized-free).
    resim_recompile_factor: float = 0.5
    #: Run-level resource budget (deadline / total conflicts / total SAT
    #: calls).  ``None`` keeps the run unbounded and bit-identical to an
    #: unbudgeted sweep; with a budget, expiry stops the run gracefully
    #: with a sound partial result (``metrics.deadline_expired``).
    budget: Optional[Budget] = None
    #: UNKNOWN escalation ladder: pairs abandoned at ``sat_conflict_limit``
    #: are queued and retried up to this many times with geometrically
    #: growing limits (``limit * escalation_factor ** rung``) while budget
    #: headroom remains.  0 (default) disables the ladder.
    max_escalations: int = 0
    #: Growth factor of the escalation ladder (20k -> 80k -> 320k at 4).
    escalation_factor: int = 4
    #: Solver constructor for the SAT phase (fault-injection seam; see
    #: :class:`repro.runtime.faults.FlakySolver`).  ``None`` = CdclSolver.
    solver_factory: Optional[Callable[[], object]] = None
    #: Wrapper applied to every simulator the engine builds (fault seam;
    #: see :class:`repro.runtime.faults.FaultySimulator`).
    simulator_wrapper: Optional[Callable[[object], object]] = None
    #: Bounded retries for a transiently failing simulator batch before
    #: the refinement is skipped (sound: classes just stay coarser).
    sim_retries: int = 3
    #: Bounded fresh-solver retries for a transiently failing SAT query
    #: before it degrades to UNKNOWN.
    solver_retries: int = 2
    #: Worker processes for the SAT phase.  1 (default) is the in-process
    #: serial path, bit-identical to previous releases.  >1 dispatches
    #: independent pairs in level-ordered waves to a
    #: :class:`~repro.runtime.pool.CheckerPool` and merges verdicts in
    #: canonical dispatch order; the trajectory is then bit-identical for
    #: *any* worker count (final merges, classes, and cost also match the
    #: serial path — see docs/PERFORMANCE.md).
    jobs: int = 1
    #: Virtual solver shards of the parallel path (fixed, never derived
    #: from ``jobs``, so the trajectory is worker-count-invariant).
    sat_shards: int = DEFAULT_SHARDS
    #: Fault-injection seam of the parallel path: a worker receiving this
    #: exact ``(rep, member)`` pair SIGKILLs itself mid-query; chaos tests
    #: use it to prove the pair is re-dispatched (and, past the retry
    #: budget, degrades to UNKNOWN).
    chaos_kill_pair: Optional[tuple[int, int]] = None
    #: Worker deaths the chaos seam may cause before respawns are disarmed
    #: (``None`` = every respawn stays armed, so the retry budget exhausts).
    chaos_kill_limit: Optional[int] = 1
    #: Re-dispatches allowed for a pair lost inside a dead pool worker
    #: before it degrades to UNKNOWN (see
    #: :class:`repro.runtime.supervise.RetryPolicy`); backoff jitter is
    #: seeded from :attr:`seed`, never wall clock.
    pair_retry_limit: int = 2
    #: Write-ahead verdict journal
    #: (:class:`repro.runtime.journal.VerdictJournal`); ``None`` disables
    #: durable sessions.  A journal forces *query-pure* SAT checking
    #: (``incremental_sat`` is overridden to fresh-solver-per-query) so
    #: every verdict is a pure function of the pair and replaying a prefix
    #: reproduces the uninterrupted trajectory bit-for-bit.
    journal: Optional[object] = None
    #: Structured trace sink (:class:`repro.obs.Tracer`); ``None`` wires the
    #: shared no-op tracer, whose cost is one attribute read per site.
    tracer: Optional[object] = None
    #: Metrics registry the run records into (:class:`repro.obs.MetricsRegistry`);
    #: ``None`` gives the engine a private one (reachable as
    #: ``engine.registry``).  Pass a shared registry to aggregate runs.
    registry: Optional[MetricsRegistry] = None


@dataclass(slots=True)
class SweepMetrics:
    """Everything the paper's evaluation reports for one run."""

    #: Equation-5 cost after random simulation and after every iteration.
    cost_history: list[int] = field(default_factory=list)
    #: Wall-clock seconds spent *simulating* vectors (random rounds, guided
    #: batches, counterexample resimulation).  Guided-vector generation is
    #: charged to :attr:`simgen_time`; each guided iteration's window is
    #: split between the two, so
    #: ``sim_time + simgen_time >= sum(iteration_times)`` always holds.
    sim_time: float = 0.0
    #: Wall-clock seconds spent inside the guided-vector generator (the
    #: SimGen kernel's bucket; previously lumped into :attr:`sim_time`).
    simgen_time: float = 0.0
    #: Seconds per guided iteration (aligned with ``cost_history[1:]``).
    iteration_times: list[float] = field(default_factory=list)
    #: Seconds inside ``generator.generate`` per guided iteration (aligned
    #: with :attr:`iteration_times`).  Each window is charged to
    #: :attr:`simgen_time` exactly once, so
    #: ``simgen_time == sum(generation_times)`` holds on every backend —
    #: including the batch driver, whose 64-wide verification flushes run
    #: inside the generate window they speculate for.
    generation_times: list[float] = field(default_factory=list)
    #: Vectors simulated in the simulation phase.
    vectors_simulated: int = 0
    #: SAT queries issued in the SAT phase.
    sat_calls: int = 0
    #: Checker-owned SAT seconds: the sum of every pair query's measured
    #: window (worker-local clocks on the pooled path).  One timer owns
    #: each window, so ``sat_time == sum(sat_time_per_attempt)`` always —
    #: the phase *wall-clock* (which also covers resimulation and merge
    #: bookkeeping) is :attr:`sat_phase_time`.
    sat_time: float = 0.0
    #: Coordinator wall-clock seconds of the SAT phase window.  On the
    #: pooled path workers overlap, so ``sat_time`` can exceed this.
    sat_phase_time: float = 0.0
    #: Pairs proven equivalent (UNSAT).
    proven: int = 0
    #: Pairs disproven with a counterexample (SAT).
    disproven: int = 0
    #: Pairs abandoned at the conflict limit.
    unknown: int = 0
    #: Escalation-ladder retry attempts issued (each is also a SAT call).
    escalations: int = 0
    #: Pairs still UNKNOWN after the full escalation ladder.
    unknown_after_escalation: int = 0
    #: True if the run was cut short by its budget; everything reported is
    #: still sound, but unresolved pairs remain unproven.
    deadline_expired: bool = False
    #: True if the run was cut short by KeyboardInterrupt.
    interrupted: bool = False
    #: SAT seconds split per attempt rung: index 0 accumulates base-limit
    #: attempts, index i the i-th escalation rung.
    sat_time_per_attempt: list[float] = field(default_factory=list)
    #: Transient simulator faults absorbed by batch retries.
    sim_retries: int = 0
    #: Transient solver faults absorbed by fresh-solver rebuilds.
    solver_retries: int = 0
    #: Dispatch waves of the parallel SAT phase (0 on the serial path).
    waves: int = 0
    #: Summed solver seconds inside pool workers.  Every pooled window is
    #: charged to exactly one owner, so on a fully-pooled run this equals
    #: ``sat_time``; it exceeds :attr:`sat_phase_time` when workers overlap.
    worker_sat_time: float = 0.0
    #: Pool worker deaths absorbed by respawn + UNKNOWN degradation.
    worker_failures: int = 0
    #: Pairs whose answer was lost (worker death / deadline) and degraded
    #: to UNKNOWN rather than fabricated.
    degraded_pairs: int = 0

    def charge_attempt(self, rung: int, seconds: float) -> None:
        """Charge one measured SAT window to its escalation rung.

        The single entry point for SAT seconds: it feeds both
        :attr:`sat_time` and :attr:`sat_time_per_attempt`, which is what
        keeps ``sat_time == sum(sat_time_per_attempt)`` an invariant on
        every path (serial, pooled, CEC fallback, escalation, interrupt).
        """
        while len(self.sat_time_per_attempt) <= rung:
            self.sat_time_per_attempt.append(0.0)
        self.sat_time_per_attempt[rung] += seconds
        self.sat_time += seconds

    @property
    def final_cost(self) -> int:
        """Cost after the simulation phase (what Table 1 reports)."""
        if not self.cost_history:
            raise SweepError("no cost recorded yet")
        return self.cost_history[-1]


@dataclass(slots=True)
class SweepResult:
    """Outcome of a full sweep."""

    classes: EquivalenceClasses
    metrics: SweepMetrics
    #: Proven equivalent pairs as (representative, member, complemented?).
    equivalences: list[tuple[int, int, bool]] = field(default_factory=list)


#: Progress callback: (phase, step, cost) — phase is "random", "guided",
#: "sat", or "escalate"; step counts iterations/queries; cost is the
#: current Eq. 5 cost.
SweepObserver = Callable[[str, int, int], None]


def _representative(cls: list[int], levels: Mapping[int, int]) -> int:
    """A class's representative: its shallowest member (cheapest miter
    cones), ties broken by lowest id — ``cls`` is sorted ascending, and
    ``min`` keeps the first of equal keys."""
    return min(cls, key=levels.__getitem__)


class SweepEngine:
    """Drives simulation-based class refinement and SAT resolution."""

    def __init__(
        self,
        network: Network,
        generator: Optional[BaseVectorGenerator] = None,
        config: Optional[SweepConfig] = None,
        observer: Optional[SweepObserver] = None,
    ):
        self.network = network
        self.config = config or SweepConfig()
        self.generator = (
            adapt_backend(generator, self.config.simgen_backend)
            if self.config.simgen_backend is not None
            else generator
        )
        if self.config.engine not in ("compiled", "reference"):
            raise SweepError(
                f"unknown engine {self.config.engine!r} "
                "(use 'compiled' or 'reference')"
            )
        self._compiled = self.config.engine == "compiled"
        if self.config.sat_backend not in SAT_BACKENDS:
            raise SweepError(
                f"unknown sat_backend {self.config.sat_backend!r} "
                f"(use one of {', '.join(repr(b) for b in SAT_BACKENDS)})"
            )
        if self.config.jobs < 1:
            raise SweepError(f"jobs must be >= 1, got {self.config.jobs}")
        if self.config.jobs > 1:
            if self.config.solver_factory is not None:
                raise SweepError(
                    "solver_factory cannot cross process boundaries; use "
                    "jobs=1, or the chaos_kill_pair seam for parallel faults"
                )
            if not self._compiled:
                raise SweepError(
                    "jobs > 1 requires the compiled engine (batched "
                    "counterexample resimulation)"
                )
        self._journal = self.config.journal
        if self._journal is not None and self.config.solver_factory is not None:
            raise SweepError(
                "a verdict journal cannot record fault-injected solvers "
                "(their verdicts are not replayable); use one or the other"
            )
        #: Journaled runs force query-pure (fresh-solver) checking so every
        #: verdict is a pure function of the pair — the property resume
        #: identity and sound twin sharing rest on.
        self._incremental = (
            self.config.incremental_sat and self._journal is None
        )
        self.simulator = self._wrap_simulator(
            CompiledSimulator(network) if self._compiled else Simulator(network)
        )
        self.observer = observer
        self.tracer = (
            self.config.tracer if self.config.tracer is not None else NULL_TRACER
        )
        self.registry = (
            self.config.registry
            if self.config.registry is not None
            else MetricsRegistry()
        )
        if self._journal is not None:
            self._journal.bind(
                network, config_fingerprint(self.config, self.generator)
            )
        self._rng = random.Random(self.config.seed)
        #: Counterexamples awaiting resimulation: (total, partial, rep, member).
        self._pending_cex: list[
            tuple[InputVector, InputVector, Optional[int], Optional[int]]
        ] = []
        self._resim_sim = self.simulator
        self._resim_targets = 0  # target-set size the resim tape was built for

    def _notify(self, phase: str, step: int, cost: int) -> None:
        if self.observer is not None:
            self.observer(phase, step, cost)

    def _wrap_simulator(self, sim):
        wrapper = self.config.simulator_wrapper
        return sim if wrapper is None else wrapper(sim)

    def _sim_batch(self, sim, batch: PatternBatch, metrics: SweepMetrics):
        """``sim.run_batch`` with bounded retry on transient faults.

        Returns ``None`` when the batch had to be dropped after the retry
        budget — callers then skip the refinement, which only leaves the
        classes coarser (sound), never wrong.
        """
        attempts = 0
        while True:
            try:
                return sim.run_batch(batch)
            except TransientSimulationError:
                metrics.sim_retries += 1
                attempts += 1
                if attempts > self.config.sim_retries:
                    return None

    # ------------------------------------------------------------------
    # Phase 1 + 2: simulation
    # ------------------------------------------------------------------
    def run_simulation_phase(self) -> tuple[EquivalenceClasses, SweepMetrics]:
        """Random rounds, then guided iterations; returns classes + metrics."""
        config = self.config
        metrics = SweepMetrics()
        budget = config.budget
        tracer = self.tracer
        with tracer.span("phase", phase="random"):
            # Building the initial partition is random-phase wall time
            # (inside the span) but not simulation (outside ``sim_time``).
            classes = EquivalenceClasses(
                self.network,
                include_pis=config.include_pis,
                match_complements=config.match_complements,
            )
            start = time.perf_counter()
            try:
                for round_index in range(max(1, config.random_rounds)):
                    batch = PatternBatch(
                        self.network.pis, random.Random(self._rng.random())
                    )
                    batch.add_random(config.random_width)
                    values = self._sim_batch(self.simulator, batch, metrics)
                    if values is not None:
                        classes.refine(values, batch.width)
                        metrics.vectors_simulated += batch.width
                    cost = classes.cost()
                    metrics.cost_history.append(cost)
                    self._notify("random", round_index, cost)
                    if tracer.enabled:
                        tracer.event(
                            "refine",
                            phase="random",
                            step=round_index,
                            cost=cost,
                            width=batch.width,
                        )
            except KeyboardInterrupt:
                metrics.interrupted = True
        metrics.sim_time += time.perf_counter() - start

        if self.generator is None or metrics.interrupted:
            return classes, metrics

        with tracer.span("phase", phase="guided"):
            try:
                for iteration in range(config.iterations):
                    if budget is not None and budget.expired():
                        metrics.deadline_expired = True
                        break
                    iter_start = time.perf_counter()
                    vectors = self.generator.generate(classes.splittable())
                    gen_s = time.perf_counter() - iter_start
                    if vectors:
                        batch = PatternBatch(
                            self.network.pis, random.Random(self._rng.random())
                        )
                        for vector in vectors:
                            batch.add_vector(vector)
                        values = self._sim_batch(self.simulator, batch, metrics)
                        if values is not None:
                            classes.refine(values, batch.width)
                            metrics.vectors_simulated += batch.width
                    elapsed = time.perf_counter() - iter_start
                    metrics.iteration_times.append(elapsed)
                    # The generate() window is the generator's bucket; the
                    # rest of the iteration (batching + simulation) stays
                    # under sim_time.  One owner per second, as always.
                    metrics.generation_times.append(gen_s)
                    metrics.simgen_time += gen_s
                    metrics.sim_time += elapsed - gen_s
                    cost = classes.cost()
                    metrics.cost_history.append(cost)
                    self._notify("guided", iteration, cost)
                    if tracer.enabled:
                        tracer.event(
                            "refine",
                            phase="guided",
                            step=iteration,
                            cost=cost,
                            width=len(vectors),
                            dur=elapsed,
                            gen_s=gen_s,
                        )
            except KeyboardInterrupt:
                metrics.interrupted = True
        return classes, metrics

    # ------------------------------------------------------------------
    # Phase 3: SAT
    # ------------------------------------------------------------------
    def run_sat_phase(
        self, classes: EquivalenceClasses, metrics: SweepMetrics
    ) -> SweepResult:
        """Resolve every remaining class with the CDCL solver.

        Budget expiry or a ``KeyboardInterrupt`` stops the phase early with
        a *sound* partial result: proven/disproven verdicts already
        recorded stay valid, pending counterexamples are flushed, and the
        remaining pairs are simply left unresolved.
        """
        config = self.config
        budget = config.budget
        tracer = self.tracer
        result = SweepResult(classes=classes, metrics=metrics)
        if metrics.interrupted:
            return result
        if config.jobs > 1:
            return self._run_sat_phase_parallel(classes, metrics, result)
        ladder_on = (
            config.max_escalations > 0 and config.sat_conflict_limit is not None
        )
        escalation_queue: list[tuple[int, int, bool, int]] = []
        self._pending_cex.clear()
        self._resim_sim = self.simulator
        self._resim_targets = classes.num_members
        compiled = self._compiled
        start = time.perf_counter()
        with tracer.span("phase", phase="sat"):
            # Checker setup and the closing counter folds are SAT-phase
            # wall cost, like the pooled path's pool start and close.
            checker = PairChecker(
                self.network,
                conflict_limit=config.sat_conflict_limit,
                incremental=self._incremental,
                budget=budget,
                solver_factory=config.solver_factory,
                max_retries=config.solver_retries,
                sat_backend=config.sat_backend,
            )
            levels = self.network.levels()
            try:
                while True:
                    if budget is not None and budget.expired():
                        metrics.deadline_expired = True
                        break
                    if compiled:
                        # Flush before the classes are consulted so deferral
                        # can never change which class (or pair) is attacked
                        # next.
                        self._flush_cex(classes, metrics)
                        cls = classes.best_splittable()
                        if cls is None:
                            break
                    else:
                        pending = classes.splittable()
                        if not pending:
                            break
                        cls = pending[0]
                    rep = _representative(cls, levels)
                    member = cls[1] if cls[0] == rep else cls[0]
                    complemented = classes.phase(rep) != classes.phase(member)
                    outcome, vector = self._journaled_attempt(
                        checker, metrics, rep, member, complemented, rung=0
                    )
                    metrics.sat_calls += 1
                    self._notify("sat", metrics.sat_calls, classes.cost())
                    if outcome is SatResult.UNSAT:
                        metrics.proven += 1
                        result.equivalences.append((rep, member, complemented))
                        classes.remove_member(member)
                    elif outcome is SatResult.SAT:
                        metrics.disproven += 1
                        if config.resimulate_cex and vector is not None:
                            if compiled:
                                self.queue_counterexample(vector, rep, member)
                                if (
                                    len(self._pending_cex)
                                    >= config.cex_batch_width
                                ):
                                    self._flush_cex(classes, metrics)
                            else:
                                self._resimulate(classes, vector, metrics)
                                if classes.same_class(rep, member):
                                    # The counterexample must separate the
                                    # pair; if phases / free PIs conspired
                                    # against the split, force it.
                                    classes.isolate(member)
                        elif classes.same_class(rep, member):
                            classes.isolate(member)
                    else:
                        metrics.unknown += 1
                        classes.isolate(member)
                        if ladder_on:
                            escalation_queue.append(
                                (rep, member, complemented, 1)
                            )
            except KeyboardInterrupt:
                metrics.interrupted = True
            try:
                self._flush_cex(classes, metrics)
            except KeyboardInterrupt:
                # Even the flush was interrupted: drop the pending vectors
                # (they only refine classes further — never required for
                # soundness).
                metrics.interrupted = True
                self._pending_cex.clear()
            if escalation_queue and not metrics.interrupted:
                self._run_escalations(
                    escalation_queue, classes, metrics, result, checker
                )
            metrics.solver_retries += checker.stats.retries
            self.registry.inc_many("sat.solver", checker.solver_stats)
            self._fold_session_stats()
            metrics.sat_phase_time += time.perf_counter() - start
        return result

    def _checked_attempt(
        self,
        checker: PairChecker,
        metrics: SweepMetrics,
        rep: int,
        member: int,
        complemented: bool,
        rung: int,
        conflict_limit=None,
    ):
        """One serial pair query with its window charged on every exit path.

        The checker's clock is the single owner of the attempt window; this
        wrapper charges the delta to ``metrics`` (and the trace) even when
        the query is aborted by an interrupt mid-solve, so
        ``sat_time == sum(sat_time_per_attempt)`` survives early exits.
        """
        time_before = checker.stats.sat_time
        conflicts_before = checker.stats.conflicts
        outcome = SatResult.UNKNOWN
        vector = None
        try:
            if conflict_limit is None:
                outcome, vector = checker.check(rep, member, complemented)
            else:
                outcome, vector = checker.check(
                    rep, member, complemented, conflict_limit=conflict_limit
                )
            return outcome, vector
        finally:
            attempt_s = checker.stats.sat_time - time_before
            metrics.charge_attempt(rung, attempt_s)
            conflicts = checker.stats.conflicts - conflicts_before
            self.registry.observe("sat.conflicts_per_call", conflicts)
            if self.tracer.enabled:
                self.tracer.event(
                    "sat.call",
                    rep=rep,
                    member=member,
                    complement=complemented,
                    verdict=outcome.value,
                    conflicts=conflicts,
                    rung=rung,
                    dur=attempt_s,
                )

    # ------------------------------------------------------------------
    # Durable sessions (verdict journal)
    # ------------------------------------------------------------------
    def _journaled_attempt(
        self,
        checker: PairChecker,
        metrics: SweepMetrics,
        rep: int,
        member: int,
        complemented: bool,
        rung: int,
        conflict_limit=None,
    ):
        """A serial pair query routed through the verdict journal.

        With no journal this is exactly :meth:`_checked_attempt`.  With
        one, a journaled verdict for the pair's key is replayed (no solver
        touched) with identical accounting and trace records; a fresh
        verdict is solved, then durably appended *before* the caller
        merges it.  UNKNOWNs are only journaled when deterministic —
        reached at the nominal limit with no budget expiry and no
        transient-fault retry in the window.
        """
        journal = self._journal
        if journal is None:
            return self._checked_attempt(
                checker, metrics, rep, member, complemented, rung,
                conflict_limit,
            )
        nominal = (
            self.config.sat_conflict_limit
            if conflict_limit is None
            else conflict_limit
        )
        record = journal.lookup(rep, member, complemented, nominal)
        if record is not None:
            return self._apply_replay(
                metrics, rep, member, complemented, rung, record
            )
        budget = self.config.budget
        conflicts_before = checker.stats.conflicts
        props_before = checker.stats.propagations
        retries_before = checker.stats.retries
        outcome, vector = self._checked_attempt(
            checker, metrics, rep, member, complemented, rung, conflict_limit
        )
        deterministic_unknown = (
            checker.stats.retries == retries_before
            and (budget is None or not budget.expired())
        )
        if outcome is not SatResult.UNKNOWN or deterministic_unknown:
            journal.record(
                rep,
                member,
                complemented,
                nominal,
                outcome,
                vector,
                conflicts=checker.stats.conflicts - conflicts_before,
                propagations=checker.stats.propagations - props_before,
                rung=rung,
            )
        return outcome, vector

    def _apply_replay(
        self,
        metrics: SweepMetrics,
        rep: int,
        member: int,
        complemented: bool,
        rung: int,
        record,
    ):
        """Merge-side effects of one replayed verdict.

        Emits the same trace event and registry/budget charges as a live
        query (minus wall time: replay costs zero SAT seconds), so the
        deterministic trace projection of a resumed run is identical to
        the uninterrupted run's.
        """
        metrics.charge_attempt(rung, 0.0)
        budget = self.config.budget
        if budget is not None:
            budget.charge_sat_call()
            budget.charge_conflicts(record.conflicts)
        self.registry.observe("sat.conflicts_per_call", record.conflicts)
        self.registry.inc_many(
            "sat.solver",
            {
                "conflicts": record.conflicts,
                "propagations": record.propagations,
            },
        )
        if self.tracer.enabled:
            self.tracer.event(
                "sat.call",
                rep=rep,
                member=member,
                complement=complemented,
                verdict=record.outcome.value,
                conflicts=record.conflicts,
                rung=rung,
                dur=0.0,
            )
        vector = (
            None
            if record.vector is None
            else InputVector(dict(record.vector.values))
        )
        return record.outcome, vector

    def _journal_partition(self, pairs, limits=None):
        """Split a wave into replayed verdicts and pairs to dispatch.

        Returns ``(replayed, dispatch, dispatch_limits)`` where
        ``replayed`` maps wave offsets to fabricated
        :class:`PairVerdict` objects (zero SAT seconds) and ``dispatch``
        keeps the relative order of the remaining pairs — so stitching
        pool answers back by offset preserves the canonical merge order.
        """
        journal = self._journal
        if journal is None:
            return (
                {},
                list(pairs),
                None if limits is None else list(limits),
            )
        base = self.config.sat_conflict_limit
        replayed: dict[int, PairVerdict] = {}
        dispatch: list = []
        dispatch_limits: list = []
        for offset, (rep, member, complemented) in enumerate(pairs):
            nominal = base
            if limits is not None and limits[offset] is not None:
                nominal = limits[offset]
            record = journal.lookup(rep, member, complemented, nominal)
            if record is None:
                dispatch.append((rep, member, complemented))
                dispatch_limits.append(
                    None if limits is None else limits[offset]
                )
                continue
            replayed[offset] = PairVerdict(
                record.outcome,
                None
                if record.vector is None
                else InputVector(dict(record.vector.values)),
                record.conflicts,
                0.0,
                propagations=record.propagations,
                limit=nominal,
            )
        return (
            replayed,
            dispatch,
            None if limits is None else dispatch_limits,
        )

    def _journal_pooled(
        self, rep, member, complemented, verdict, rung, nominal
    ) -> None:
        """Durably append one pooled verdict (merge order = append order).

        Degraded verdicts are never journaled (no worker answer exists);
        an UNKNOWN is journaled only when the worker solved under the
        nominal limit — a budget-tightened limit makes the UNKNOWN
        non-deterministic, so it must be re-solved on resume.
        """
        journal = self._journal
        if journal is None or verdict.degraded:
            return
        if (
            verdict.outcome is SatResult.UNKNOWN
            and verdict.limit != nominal
        ):
            return
        journal.record(
            rep,
            member,
            complemented,
            nominal,
            verdict.outcome,
            verdict.vector,
            conflicts=verdict.conflicts,
            propagations=verdict.propagations,
            rung=rung,
        )

    def _fold_session_stats(self, pool=None) -> None:
        """Publish journal + pool-supervision counters into the registry.

        The journal hands out *deltas* (several fold sites may share one
        journal across the sweep and the CEC fallback); a pool instance is
        folded exactly once, by whoever closes it.
        """
        if self._journal is not None:
            self.registry.inc_many("journal", self._journal.consume_stats())
        if pool is not None:
            self.registry.inc_many("pool", pool.supervision_stats)

    # ------------------------------------------------------------------
    # Parallel SAT phase (jobs > 1)
    # ------------------------------------------------------------------
    def _build_wave(
        self, classes: EquivalenceClasses, wave_index: int
    ) -> list[tuple[int, int, bool]]:
        """Snapshot the next wave of independent candidate pairs.

        For every splittable class: the representative (shallowest member,
        as in the serial path) versus up to ``2 ** wave_index`` other
        members — a doubling ramp, so a huge class parallelizes within a
        few waves while early waves (where one counterexample often splits
        the whole class) waste few speculative queries.  The wave is
        sorted by (deepest cone level, rep, member): cheap miters first,
        and a canonical dispatch order that fixes shard query sequences
        and the merge order.
        """
        per_class_cap = 1 << min(wave_index, 16)
        levels = self.network.levels()
        wave: list[tuple[int, int, bool]] = []
        for cls in classes.splittable():
            rep = _representative(cls, levels)
            rep_phase = classes.phase(rep)
            others = [uid for uid in cls if uid != rep]
            for member in others[:per_class_cap]:
                wave.append(
                    (rep, member, rep_phase != classes.phase(member))
                )
        wave.sort(
            key=lambda pair: (
                max(levels[pair[0]], levels[pair[1]]),
                pair[0],
                pair[1],
            )
        )
        return wave

    def _run_sat_phase_parallel(
        self,
        classes: EquivalenceClasses,
        metrics: SweepMetrics,
        result: SweepResult,
    ) -> SweepResult:
        """Wave-scheduled SAT phase over a :class:`CheckerPool`.

        Each round snapshots the splittable classes into a wave of
        independent pairs, checks them concurrently, then merges verdicts
        in canonical dispatch order: UNSAT merges, SAT counterexamples are
        queued and absorbed through one batched resimulation, UNKNOWN
        isolates (and feeds the escalation ladder).  The budget is polled
        between waves; expiry abandons outstanding queries as UNKNOWN-
        degraded pairs, which stay unresolved — never guessed.
        """
        config = self.config
        budget = config.budget
        tracer = self.tracer
        ladder_on = (
            config.max_escalations > 0 and config.sat_conflict_limit is not None
        )
        escalation_queue: list[tuple[int, int, bool, int]] = []
        self._pending_cex.clear()
        self._resim_sim = self.simulator
        self._resim_targets = classes.num_members
        start = time.perf_counter()
        with tracer.span("phase", phase="sat"):
            # Spawning the workers is part of the SAT phase's wall cost, so
            # it happens inside both the span and the phase-time window.
            pool = CheckerPool(
                self.network,
                config.jobs,
                shards=config.sat_shards,
                conflict_limit=config.sat_conflict_limit,
                incremental=self._incremental,
                sat_backend=config.sat_backend,
                chaos_kill_pair=config.chaos_kill_pair,
                chaos_kill_limit=config.chaos_kill_limit,
                retry_policy=RetryPolicy(
                    max_retries=config.pair_retry_limit, seed=config.seed
                ),
                tracer=tracer,
            )
            try:
                wave_index = 0
                while True:
                    if budget is not None and budget.expired():
                        metrics.deadline_expired = True
                        break
                    self._flush_cex(classes, metrics)
                    wave = self._build_wave(classes, wave_index)
                    if not wave:
                        break
                    this_wave = wave_index
                    wave_index += 1
                    metrics.waves += 1
                    self.registry.observe("sweep.wave_size", len(wave))
                    with tracer.span("wave", wave=this_wave, size=len(wave)):
                        replayed, dispatch, _ = self._journal_partition(wave)
                        pooled = (
                            pool.check_pairs(dispatch, budget=budget)
                            if dispatch
                            else []
                        )
                        pooled_iter = iter(pooled)
                        verdicts = [
                            replayed[offset]
                            if offset in replayed
                            else next(pooled_iter)
                            for offset in range(len(wave))
                        ]
                        for offset, (
                            (rep, member, complemented),
                            verdict,
                        ) in enumerate(zip(wave, verdicts)):
                            if offset not in replayed:
                                self._journal_pooled(
                                    rep,
                                    member,
                                    complemented,
                                    verdict,
                                    rung=0,
                                    nominal=config.sat_conflict_limit,
                                )
                            self._merge_verdict_time(
                                metrics, verdict, rung=0
                            )
                            metrics.sat_calls += 1
                            if budget is not None and not verdict.degraded:
                                budget.charge_sat_call()
                                budget.charge_conflicts(verdict.conflicts)
                            self._notify(
                                "sat", metrics.sat_calls, classes.cost()
                            )
                            if tracer.enabled:
                                tracer.event(
                                    "sat.call",
                                    rep=rep,
                                    member=member,
                                    complement=complemented,
                                    verdict=verdict.outcome.value,
                                    conflicts=verdict.conflicts,
                                    rung=0,
                                    wave=this_wave,
                                    degraded=verdict.degraded,
                                    dur=verdict.sat_time,
                                )
                            if verdict.outcome is SatResult.UNSAT:
                                metrics.proven += 1
                                result.equivalences.append(
                                    (rep, member, complemented)
                                )
                                classes.remove_member(member)
                            elif verdict.outcome is SatResult.SAT:
                                metrics.disproven += 1
                                if (
                                    config.resimulate_cex
                                    and verdict.vector is not None
                                ):
                                    self.queue_counterexample(
                                        verdict.vector, rep, member
                                    )
                                    if (
                                        len(self._pending_cex)
                                        >= config.cex_batch_width
                                    ):
                                        self._flush_cex(classes, metrics)
                                elif classes.same_class(rep, member):
                                    classes.isolate(member)
                            else:
                                metrics.unknown += 1
                                classes.isolate(member)
                                if ladder_on:
                                    escalation_queue.append(
                                        (rep, member, complemented, 1)
                                    )
            except KeyboardInterrupt:
                metrics.interrupted = True
            try:
                self._flush_cex(classes, metrics)
            except KeyboardInterrupt:
                metrics.interrupted = True
                self._pending_cex.clear()
            try:
                if escalation_queue and not metrics.interrupted:
                    self._run_escalations_parallel(
                        escalation_queue, classes, metrics, result, pool
                    )
            finally:
                metrics.worker_failures += pool.worker_failures
                self._fold_session_stats(pool=pool)
                pool.close()
            metrics.sat_phase_time += time.perf_counter() - start
        return result

    def _merge_verdict_time(
        self, metrics: SweepMetrics, verdict, rung: int
    ) -> None:
        """Fold one pooled verdict's accounting in (dispatch order).

        The worker-local clock is the single owner of the query window:
        its seconds land in ``sat_time``/``sat_time_per_attempt`` *and*
        ``worker_sat_time`` (the two stay equal on fully-pooled runs) —
        never in the coordinator's wall window, which is
        ``sat_phase_time``.
        """
        metrics.charge_attempt(rung, verdict.sat_time)
        metrics.worker_sat_time += verdict.sat_time
        if verdict.degraded:
            metrics.degraded_pairs += 1
        self.registry.observe("sat.conflicts_per_call", verdict.conflicts)
        # Pooled runs have no parent-side solver to export counters from,
        # so the worker deltas are the registry's source of truth here.
        self.registry.inc_many(
            "sat.solver",
            {
                "conflicts": verdict.conflicts,
                "propagations": verdict.propagations,
            },
        )

    def _run_escalations_parallel(
        self,
        queue: list[tuple[int, int, bool, int]],
        classes: EquivalenceClasses,
        metrics: SweepMetrics,
        result: SweepResult,
        pool: CheckerPool,
    ) -> None:
        """Escalation ladder over the pool: one wave per pending rung set.

        Same semantics as :meth:`_run_escalations`, but every pair of the
        current rung set is retried concurrently; the stable shard routing
        sends a retry to the solver that already learnt that miter's
        clauses.
        """
        config = self.config
        budget = config.budget
        base_limit = config.sat_conflict_limit
        try:
            while queue:
                if budget is not None and budget.expired():
                    metrics.deadline_expired = True
                    break
                wave, queue = queue, []
                limits = [
                    base_limit * (config.escalation_factor ** rung)
                    for _, _, _, rung in wave
                ]
                pairs = [(rep, member, comp) for rep, member, comp, _ in wave]
                replayed, dispatch, dispatch_limits = self._journal_partition(
                    pairs, limits
                )
                pooled = (
                    pool.check_pairs(
                        dispatch, limits=dispatch_limits, budget=budget
                    )
                    if dispatch
                    else []
                )
                pooled_iter = iter(pooled)
                verdicts = [
                    replayed[offset]
                    if offset in replayed
                    else next(pooled_iter)
                    for offset in range(len(wave))
                ]
                for offset, (
                    (rep, member, complemented, rung),
                    verdict,
                ) in enumerate(zip(wave, verdicts)):
                    if offset not in replayed:
                        self._journal_pooled(
                            rep,
                            member,
                            complemented,
                            verdict,
                            rung=rung,
                            nominal=limits[offset],
                        )
                    self._merge_verdict_time(metrics, verdict, rung=rung)
                    metrics.sat_calls += 1
                    metrics.escalations += 1
                    if budget is not None and not verdict.degraded:
                        budget.charge_sat_call()
                        budget.charge_conflicts(verdict.conflicts)
                    self._notify("escalate", metrics.sat_calls, classes.cost())
                    if self.tracer.enabled:
                        self.tracer.event(
                            "sat.call",
                            rep=rep,
                            member=member,
                            complement=complemented,
                            verdict=verdict.outcome.value,
                            conflicts=verdict.conflicts,
                            rung=rung,
                            degraded=verdict.degraded,
                            dur=verdict.sat_time,
                        )
                    if verdict.outcome is SatResult.UNSAT:
                        metrics.unknown -= 1
                        metrics.proven += 1
                        result.equivalences.append((rep, member, complemented))
                        if classes.tracked(member):
                            classes.remove_member(member)
                    elif verdict.outcome is SatResult.SAT:
                        metrics.unknown -= 1
                        metrics.disproven += 1
                        if config.resimulate_cex and verdict.vector is not None:
                            self.queue_counterexample(verdict.vector)
                    elif rung < config.max_escalations:
                        queue.append((rep, member, complemented, rung + 1))
                    else:
                        metrics.unknown_after_escalation += 1
                self._flush_cex(classes, metrics)
        except KeyboardInterrupt:
            metrics.interrupted = True
            self._pending_cex.clear()

    # ------------------------------------------------------------------
    # UNKNOWN escalation ladder
    # ------------------------------------------------------------------
    def _run_escalations(
        self,
        queue: list[tuple[int, int, bool, int]],
        classes: EquivalenceClasses,
        metrics: SweepMetrics,
        result: SweepResult,
        checker: PairChecker,
    ) -> None:
        """Retry abandoned pairs with geometrically growing conflict limits.

        Runs after the base pass so cheap pairs are never starved by a hard
        one, and only while budget headroom remains.  A pair proven here is
        re-merged into the result exactly as in the base pass; a pair still
        UNKNOWN after the last rung is counted in
        ``metrics.unknown_after_escalation``.
        """
        config = self.config
        budget = config.budget
        base_limit = config.sat_conflict_limit
        try:
            while queue:
                if budget is not None and budget.expired():
                    metrics.deadline_expired = True
                    break
                rep, member, complemented, rung = queue.pop(0)
                limit = base_limit * (config.escalation_factor ** rung)
                outcome, vector = self._journaled_attempt(
                    checker,
                    metrics,
                    rep,
                    member,
                    complemented,
                    rung=rung,
                    conflict_limit=limit,
                )
                metrics.sat_calls += 1
                metrics.escalations += 1
                self._notify("escalate", metrics.sat_calls, classes.cost())
                if outcome is SatResult.UNSAT:
                    metrics.unknown -= 1
                    metrics.proven += 1
                    result.equivalences.append((rep, member, complemented))
                    if classes.tracked(member):
                        classes.remove_member(member)
                elif outcome is SatResult.SAT:
                    metrics.unknown -= 1
                    metrics.disproven += 1
                    if config.resimulate_cex and vector is not None:
                        if self._compiled:
                            self.queue_counterexample(vector)
                            self._flush_cex(classes, metrics)
                        else:
                            self._resimulate(classes, vector, metrics)
                elif rung < config.max_escalations:
                    queue.append((rep, member, complemented, rung + 1))
                else:
                    metrics.unknown_after_escalation += 1
        except KeyboardInterrupt:
            metrics.interrupted = True
            self._pending_cex.clear()

    # ------------------------------------------------------------------
    # Counterexample resimulation
    # ------------------------------------------------------------------
    def queue_counterexample(
        self,
        vector: InputVector,
        rep: Optional[int] = None,
        member: Optional[int] = None,
    ) -> None:
        """Defer a counterexample into the pending resimulation batch.

        Free PIs are completed immediately with this engine's RNG (the same
        draw order as the reference engine's per-cex batch), so flush timing
        never changes the simulated patterns.  When ``rep``/``member`` are
        given, the flush forces the pair apart if refinement alone failed
        to separate them.
        """
        rng = random.Random(self._rng.random())
        total = vector.completed(self.network.pis, rng)
        self._pending_cex.append((total, vector, rep, member))

    def _flush_cex(
        self, classes: EquivalenceClasses, metrics: SweepMetrics
    ) -> None:
        """Resimulate all pending counterexamples in one batch.

        Resimulation is *simulation* work triggered from the SAT phase: its
        window is charged to ``metrics.sim_time`` (never ``sat_time``, whose
        sole owner is the checker clock), even when the flush is interrupted
        mid-batch.
        """
        if not self._pending_cex:
            return
        pending = self._pending_cex
        self._pending_cex = []
        start = time.perf_counter()
        try:
            batch = PatternBatch(self.network.pis)
            for total, _, _, _ in pending:
                batch.add_vector(total)
            values = self._sim_batch(
                self._resim_simulator(classes), batch, metrics
            )
            if values is not None:
                classes.refine(values, batch.width)
                metrics.vectors_simulated += batch.width
            # Even when the batch was dropped, the forced isolations below
            # keep every disproven pair separated — refinement is only an
            # accelerant.
            for _, partial, rep, member in pending:
                # Counterexamples make good seeds for neighbourhood
                # generators (Mishchenko et al.'s 1-distance vectors, §2.3).
                if self.generator is not None and hasattr(
                    self.generator, "set_seed_vector"
                ):
                    self.generator.set_seed_vector(partial)
                if (
                    rep is not None
                    and member is not None
                    and classes.tracked(rep)
                    and classes.tracked(member)
                    and classes.same_class(rep, member)
                ):
                    classes.isolate(member)
        finally:
            flush_s = time.perf_counter() - start
            metrics.sim_time += flush_s
            if self.tracer.enabled:
                self.tracer.event(
                    "resim.flush", count=len(pending), dur=flush_s
                )

    def _resim_simulator(self, classes: EquivalenceClasses):
        """The simulator used for counterexample resimulation.

        Only members of classes of size >= 2 can still split, so the tape
        is recompiled onto their (shrinking) fanin cones whenever the
        splittable member count halves.
        """
        members = classes.splittable_members()
        threshold = self._resim_targets * self.config.resim_recompile_factor
        if members and len(members) <= threshold:
            self._resim_sim = self._wrap_simulator(
                CompiledSimulator(self.network, targets=members)
            )
            self._resim_targets = len(members)
        return self._resim_sim

    def _resimulate(
        self,
        classes: EquivalenceClasses,
        vector: InputVector,
        metrics: SweepMetrics,
    ) -> None:
        """Reference-mode resimulation: one full-network pass per cex.

        Charged to ``sim_time`` like the batched flush (one timer owner per
        window; the SAT clock never covers resimulation).
        """
        start = time.perf_counter()
        try:
            batch = PatternBatch(
                self.network.pis, random.Random(self._rng.random())
            )
            batch.add_vector(vector)
            values = self._sim_batch(self.simulator, batch, metrics)
            if values is None:
                return
            classes.refine(values, batch.width)
            metrics.vectors_simulated += batch.width
            # Counterexamples make good seeds for neighbourhood generators
            # (Mishchenko et al.'s 1-distance vectors, paper §2.3).
            if self.generator is not None and hasattr(
                self.generator, "set_seed_vector"
            ):
                self.generator.set_seed_vector(vector)
        finally:
            flush_s = time.perf_counter() - start
            metrics.sim_time += flush_s
            if self.tracer.enabled:
                self.tracer.event("resim.flush", count=1, dur=flush_s)

    # ------------------------------------------------------------------
    def publish_metrics(self, metrics: SweepMetrics) -> None:
        """Fold run metrics and per-component stats into the registry.

        Component stats dicts (implication/decision engines, simulators)
        are published under stable prefixes; float-valued entries become
        timers, integer entries counters (see
        :meth:`repro.obs.MetricsRegistry.inc_many`).
        """
        registry = self.registry
        registry.inc_many(
            "sweep",
            {
                "sat_calls": metrics.sat_calls,
                "proven": metrics.proven,
                "disproven": metrics.disproven,
                "unknown": metrics.unknown,
                "escalations": metrics.escalations,
                "unknown_after_escalation": metrics.unknown_after_escalation,
                "vectors_simulated": metrics.vectors_simulated,
                "waves": metrics.waves,
                "degraded_pairs": metrics.degraded_pairs,
                "sim_retries": metrics.sim_retries,
                "solver_retries": metrics.solver_retries,
                "worker_failures": metrics.worker_failures,
                "sim_time": metrics.sim_time,
                "simgen_time": metrics.simgen_time,
                "sat_time": metrics.sat_time,
                "sat_phase_time": metrics.sat_phase_time,
                "worker_sat_time": metrics.worker_sat_time,
            },
        )
        for attr, prefix in (
            ("implication", "simgen.implication"),
            ("decision", "simgen.decision"),
            ("kernel", "simgen.kernel"),
            ("batch", "simgen.batch"),
        ):
            stats = getattr(
                getattr(self.generator, attr, None), "stats", None
            )
            if isinstance(stats, dict):
                registry.inc_many(prefix, stats)
        # Per-flush live-lane widths of the batch backend feed a histogram
        # (drained so repeated publishes never double-count a flush).
        occupancy = getattr(
            getattr(self.generator, "batch", None), "lane_occupancy", None
        )
        if occupancy:
            histogram = registry.histogram(
                "simgen.batch.lanes_active", (1, 2, 4, 8, 16, 32, 64)
            )
            for width in occupancy:
                histogram.observe(width)
            del occupancy[:]
        seen: set[int] = set()
        for sim in (self.simulator, self._resim_sim):
            if sim is None or id(sim) in seen:
                continue
            seen.add(id(sim))
            stats = getattr(sim, "stats", None)
            if isinstance(stats, dict):
                registry.inc_many("sim", stats)

    def run(self) -> SweepResult:
        """Full sweep: simulation phase followed by the SAT phase."""
        tracer = self.tracer
        with tracer.span("run", kind="sweep", engine=self.config.engine):
            classes, metrics = self.run_simulation_phase()
            result = self.run_sat_phase(classes, metrics)
        self.publish_metrics(result.metrics)
        if tracer.enabled:
            tracer.counters(self.registry.as_dict())
        return result
