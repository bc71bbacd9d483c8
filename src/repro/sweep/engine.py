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
   (the feedback arrow of Figure 2).  Every pair query — serial or pooled,
   base pass or escalation ladder, sweep or CEC fallback — is answered
   through :meth:`SweepEngine.answer`, which replays and appends the
   verdict journal and charges the run's metrics.

The engine measures exactly what the paper reports: per-iteration cost,
simulation runtime, SAT calls, and SAT runtime.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.core.generator import BaseVectorGenerator
from repro.errors import SweepError, TransientSimulationError
from repro.network.network import Network
from repro.obs import NULL_TRACER, MetricsRegistry
from repro.runtime.budget import Budget
from repro.runtime.cbuild import check_backend
from repro.runtime.journal import config_fingerprint
from repro.runtime.pool import CheckerPool, PairVerdict
from repro.runtime.supervise import RetryPolicy
from repro.sat.solver import SatResult
from repro.simulation.compiled import SIM_CORE, CompiledSimulator
from repro.simulation.patterns import InputVector, PatternBatch
from repro.simulation.simulator import Simulator
from repro.sweep.checker import PairChecker
from repro.sweep.classes import EquivalenceClasses

#: Max pending counterexamples per resimulation flush.  Pending vectors are
#: always flushed before the classes are next consulted, so batching never
#: changes results; wider batches form when several counterexamples are
#: queued back-to-back (a pooled wave, or
#: :meth:`SweepEngine.queue_counterexample`).
CEX_BATCH_WIDTH = 64
#: Bounded retries for a transiently failing simulator batch before the
#: refinement is skipped (sound: classes just stay coarser).
SIM_RETRIES = 3
#: Bounded fresh-solver retries for a transiently failing SAT query before
#: it degrades to UNKNOWN.
SOLVER_RETRIES = 2


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
    #: ``"compiled"`` simulates on the C simulator core
    #: (:class:`~repro.simulation.compiled.CompiledSimulator`, which
    #: resimulates counterexamples over cone-restricted views) and solves
    #: on the C CDCL core (:mod:`repro.sat.compiled`), each where it loaded
    #: and on its reference class where it did not; ``"reference"`` runs
    #: the reference :class:`~repro.simulation.simulator.Simulator` and
    #: :class:`~repro.sat.solver.CdclSolver`.  Both follow bit-identical
    #: trajectories (classes, cost histories, verdicts, models, conflict
    #: counts; the pinned trajectories in ``tests/sweep/test_engine.py``
    #: check this); only speed differs.  The generator's backend is
    #: chosen where it is built (``make_generator(backend=)``), and an
    #: explicit ``solver_factory`` overrides the solver choice.
    backend: str = "compiled"
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
    #: Worker processes for the SAT phase.  1 (default) checks one pair at
    #: a time in process, greedily from the largest class.  >1 dispatches
    #: independent pairs in level-ordered waves to a
    #: :class:`~repro.runtime.pool.CheckerPool`, which routes each pair to
    #: one of 16 solver shards by the topological block of its deeper node
    #: and starts at most one worker per shard; verdicts merge in canonical
    #: dispatch order.  The trajectory is then bit-identical for *any*
    #: worker count, and the final merges, classes, and cost match the
    #: serial path — see docs/PERFORMANCE.md.
    jobs: int = 1
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
    #: durable sessions.  A journal forces *query-pure* SAT checking (a
    #: fresh solver per query instead of one incremental solver) so every
    #: verdict is a pure function of the pair and replaying a prefix
    #: reproduces the uninterrupted trajectory bit-for-bit.
    journal: Optional[object] = None
    #: Structured trace sink (:class:`repro.obs.Tracer`); ``None`` wires the
    #: shared no-op tracer, whose cost is one attribute read per site.
    tracer: Optional[object] = None


@dataclass(slots=True)
class SweepMetrics:
    """Everything the paper's evaluation reports for one run."""

    #: Equation-5 cost after random simulation and after every iteration.
    cost_history: list[int] = field(default_factory=list)
    #: Wall-clock seconds spent *simulating* vectors in the simulation
    #: phase (random rounds and guided batches).  Guided-vector generation
    #: is charged to :attr:`simgen_time`; each guided iteration's window is
    #: split between the two, so
    #: ``sim_time + simgen_time >= sum(iteration_times)`` always holds.
    #: Counterexample resimulation in the SAT phase is :attr:`resim_time`.
    sim_time: float = 0.0
    #: Wall-clock seconds spent inside the guided-vector generator (the
    #: SimGen kernel's bucket; previously lumped into :attr:`sim_time`).
    simgen_time: float = 0.0
    #: Wall-clock seconds spent resimulating SAT counterexamples (every
    #: batched flush of the SAT phase, interrupted ones included).
    resim_time: float = 0.0
    #: Seconds per guided iteration (aligned with ``cost_history[1:]``).
    iteration_times: list[float] = field(default_factory=list)
    #: Seconds inside ``generator.generate`` per guided iteration (aligned
    #: with :attr:`iteration_times`).  Each window is charged to
    #: :attr:`simgen_time` exactly once, so
    #: ``simgen_time == sum(generation_times)`` holds on every backend —
    #: including the batch core, which verifies its vectors inside the
    #: generate window.
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
    #: Pairs with no deterministic answer (lost to a dead worker, cut
    #: short by the budget, or out of solver retries), degraded to UNKNOWN
    #: rather than fabricated.
    degraded_pairs: int = 0

    def charge_attempt(self, rung: int, seconds: float) -> None:
        """Charge one measured SAT window to its escalation rung.

        The single entry point for SAT seconds: it feeds both
        :attr:`sat_time` and :attr:`sat_time_per_attempt`, which is what
        keeps ``sat_time == sum(sat_time_per_attempt)`` an invariant on
        every path (each answered query is charged once, by
        :meth:`SweepEngine.answer`).
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
        self.generator = generator
        check_backend(self.config.backend, SweepError)
        if self.config.jobs < 1:
            raise SweepError(f"jobs must be >= 1, got {self.config.jobs}")
        if self.config.jobs > 1 and self.config.solver_factory is not None:
            raise SweepError(
                "solver_factory cannot cross process boundaries; use "
                "jobs=1, or the chaos_kill_pair seam for parallel faults"
            )
        self._journal = self.config.journal
        if self._journal is not None and self.config.solver_factory is not None:
            raise SweepError(
                "a verdict journal cannot record fault-injected solvers "
                "(their verdicts are not replayable); use one or the other"
            )
        #: The unwrapped compiled simulator, whose views resimulate
        #: counterexamples (``None`` on the reference simulator).
        self._compiled_sim = (
            CompiledSimulator(network)
            if self.config.backend == "compiled" and SIM_CORE == "c"
            else None
        )
        self.simulator = self._wrap_simulator(
            self._compiled_sim or Simulator(network)
        )
        self.observer = observer
        self.tracer = (
            self.config.tracer if self.config.tracer is not None else NULL_TRACER
        )
        self.registry = MetricsRegistry()
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
        self._resim_targets = 0  # splittable members at the last restriction

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
                if attempts > SIM_RETRIES:
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

        ``jobs == 1`` attacks one pair at a time, greedily from the
        largest class; ``jobs > 1`` checks level-ordered waves of
        independent pairs on a pool.  Both answer through :meth:`answer`
        and merge through :meth:`_merge`, and pairs abandoned at the
        conflict limit feed one escalation ladder.

        Budget expiry or a ``KeyboardInterrupt`` stops the phase early with
        a *sound* partial result: proven/disproven verdicts already
        recorded stay valid, pending counterexamples are flushed, and the
        remaining pairs are simply left unresolved.
        """
        config = self.config
        result = SweepResult(classes=classes, metrics=metrics)
        if metrics.interrupted:
            return result
        ladder = None  # UNKNOWNs queued for the escalation ladder, if on
        if config.max_escalations > 0 and config.sat_conflict_limit is not None:
            ladder = []
        self._pending_cex.clear()
        self._resim_sim = self.simulator
        self._resim_targets = classes.num_members
        start = time.perf_counter()
        with self.tracer.span("phase", phase="sat"):
            # Opening the back end (a pool's worker start) and the closing
            # counter folds are SAT-phase wall cost.
            solver = self.open_solver(self.network)
            try:
                schedule = self._run_greedy
                if config.jobs > 1:
                    schedule = self._run_waves
                try:
                    schedule(solver, classes, metrics, result, ladder)
                except KeyboardInterrupt:
                    metrics.interrupted = True
                try:
                    self._flush_cex(classes, metrics)
                except KeyboardInterrupt:
                    # Even the flush was interrupted: drop the pending
                    # vectors (they only refine classes further — never
                    # required for soundness).
                    metrics.interrupted = True
                    self._pending_cex.clear()
                if ladder and not metrics.interrupted:
                    self._run_escalations(
                        solver, ladder, classes, metrics, result
                    )
            finally:
                self.close_solver(solver, metrics)
            metrics.sat_phase_time += time.perf_counter() - start
        return result

    def _run_greedy(self, solver, classes, metrics, result, ladder) -> None:
        """Serial schedule: the representative of the largest splittable
        class against its next member, one query at a time."""
        budget = self.config.budget
        levels = self.network.levels()
        while budget is None or not budget.expired():
            # Flush before the classes are consulted so deferral can never
            # change which class (or pair) is attacked next.
            self._flush_cex(classes, metrics)
            cls = classes.best_splittable()
            if cls is None:
                return
            rep = _representative(cls, levels)
            member = cls[1] if cls[0] == rep else cls[0]
            query = (
                rep, member, classes.phase(rep) != classes.phase(member), 0
            )
            (verdict,) = self.answer(solver, [query], metrics)
            self._merge(query, verdict, classes, metrics, result, ladder)
        metrics.deadline_expired = True

    def _run_waves(self, solver, classes, metrics, result, ladder) -> None:
        """Pooled schedule: waves of independent pairs.

        Each round snapshots the splittable classes into a wave
        (:meth:`_build_wave`), checks it concurrently, then merges the
        verdicts in canonical dispatch order; the counterexamples are
        absorbed through one batched resimulation.  The budget is polled
        between waves; expiry abandons outstanding queries as degraded
        UNKNOWNs, which stay unresolved — never guessed.
        """
        budget = self.config.budget
        wave_index = 0
        while budget is None or not budget.expired():
            self._flush_cex(classes, metrics)
            wave = self._build_wave(classes, wave_index)
            if not wave:
                return
            metrics.waves += 1
            self.registry.observe("sweep.wave_size", len(wave))
            with self.tracer.span("wave", wave=wave_index, size=len(wave)):
                verdicts = self.answer(solver, wave, metrics, wave=wave_index)
                for query, verdict in zip(wave, verdicts):
                    self._merge(
                        query, verdict, classes, metrics, result, ladder
                    )
            wave_index += 1
        metrics.deadline_expired = True

    def _build_wave(
        self, classes: EquivalenceClasses, wave_index: int
    ) -> list[tuple[int, int, bool, int]]:
        """Snapshot the next wave of independent base-pass queries.

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
        wave: list[tuple[int, int, bool, int]] = []
        for cls in classes.splittable():
            rep = _representative(cls, levels)
            rep_phase = classes.phase(rep)
            others = [uid for uid in cls if uid != rep]
            for member in others[:per_class_cap]:
                wave.append(
                    (rep, member, rep_phase != classes.phase(member), 0)
                )
        wave.sort(
            key=lambda query: (
                max(levels[query[0]], levels[query[1]]),
                query[0],
                query[1],
            )
        )
        return wave

    def _merge(self, query, verdict, classes, metrics, result, ladder) -> None:
        """Merge one base-pass verdict.

        UNSAT merges the member into its representative; SAT queues the
        counterexample for resimulation (the flush forces the pair apart
        if refinement alone does not); UNKNOWN isolates the member and,
        with a ladder running, queues it for rung 1.
        """
        rep, member, complemented, _ = query
        metrics.sat_calls += 1
        self._notify("sat", metrics.sat_calls, classes.cost())
        outcome = verdict.outcome
        if outcome is SatResult.UNSAT:
            metrics.proven += 1
            result.equivalences.append((rep, member, complemented))
            classes.remove_member(member)
        elif outcome is SatResult.SAT:
            metrics.disproven += 1
            if verdict.vector is not None:
                self.queue_counterexample(verdict.vector, rep, member)
                if len(self._pending_cex) >= CEX_BATCH_WIDTH:
                    self._flush_cex(classes, metrics)
            elif classes.same_class(rep, member):
                classes.isolate(member)
        else:
            metrics.unknown += 1
            classes.isolate(member)
            if ladder is not None:
                ladder.append((rep, member, complemented, 1))

    # ------------------------------------------------------------------
    # UNKNOWN escalation ladder
    # ------------------------------------------------------------------
    def _run_escalations(self, solver, queue, classes, metrics, result) -> None:
        """Retry abandoned pairs with geometrically growing conflict limits.

        Runs after the base pass so cheap pairs are never starved by a hard
        one, and only while budget headroom remains.  Each round answers
        one query on the in-process checker, or the whole queue on a pool
        (stable shard routing sends a retry to the solver that already
        learnt that miter's clauses); either way the queue stays in rung
        order and a round's counterexamples are flushed before the next.
        A pair proven here is re-merged into the result exactly as in the
        base pass; a pair still UNKNOWN after the last rung is counted in
        ``metrics.unknown_after_escalation``.
        """
        config = self.config
        budget = config.budget
        pooled = config.jobs > 1
        try:
            while queue:
                if budget is not None and budget.expired():
                    metrics.deadline_expired = True
                    break
                if pooled:
                    batch, queue = queue, []
                else:
                    batch = [queue.pop(0)]
                verdicts = self.answer(solver, batch, metrics)
                for (rep, member, complemented, rung), verdict in zip(
                    batch, verdicts
                ):
                    metrics.sat_calls += 1
                    metrics.escalations += 1
                    self._notify("escalate", metrics.sat_calls, classes.cost())
                    if verdict.outcome is SatResult.UNSAT:
                        metrics.unknown -= 1
                        metrics.proven += 1
                        result.equivalences.append((rep, member, complemented))
                        if classes.tracked(member):
                            classes.remove_member(member)
                    elif verdict.outcome is SatResult.SAT:
                        metrics.unknown -= 1
                        metrics.disproven += 1
                        if verdict.vector is not None:
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
    # The verdict seam: every SAT-phase pair query answers here
    # ------------------------------------------------------------------
    def open_solver(self, network: Network):
        """The back end of one SAT phase: a :class:`PairChecker` in process
        (``jobs == 1``) or a :class:`CheckerPool` of ``jobs`` workers.

        Both answer through ``check_pairs``.  A journal forces query-pure
        checking (a fresh solver per query), so every verdict is a pure
        function of its pair — the property resume identity and sound twin
        sharing rest on.
        """
        config = self.config
        incremental = self._journal is None
        if config.jobs == 1:
            return PairChecker(
                network,
                conflict_limit=config.sat_conflict_limit,
                incremental=incremental,
                budget=config.budget,
                solver_factory=config.solver_factory,
                max_retries=SOLVER_RETRIES,
                backend=config.backend,
            )
        return CheckerPool(
            network,
            config.jobs,
            conflict_limit=config.sat_conflict_limit,
            incremental=incremental,
            backend=config.backend,
            chaos_kill_pair=config.chaos_kill_pair,
            chaos_kill_limit=config.chaos_kill_limit,
            retry_policy=RetryPolicy(
                max_retries=config.pair_retry_limit, seed=config.seed
            ),
            tracer=self.tracer,
            budget=config.budget,
        )

    def answer(
        self,
        solver,
        queries: list[tuple[int, int, bool, int]],
        metrics: SweepMetrics,
        **fields,
    ) -> list[PairVerdict]:
        """Answer ``(rep, member, complemented, rung)`` queries in order.

        A rung-``r`` query runs at ``sat_conflict_limit *
        escalation_factor ** r``.  Journaled verdicts replay with zero SAT
        seconds; the misses go to ``solver.check_pairs`` in one call, and
        each fresh verdict is durably journaled before this returns — so
        before the caller merges it.  A degraded verdict is never
        journaled, and an UNKNOWN only when it was reached at the nominal
        limit (a budget-tightened one makes it non-deterministic).

        The solver charged the budget for what it solved; replays are
        charged to the budget and to ``sat.solver`` here, after it ran.
        Every verdict is charged to ``metrics`` and emits one ``sat.call``
        event (``fields`` adds attributes such as ``wave``), so a resumed
        run's deterministic trace equals the uninterrupted run's.
        """
        config = self.config
        budget = config.budget
        journal = self._journal
        registry = self.registry
        tracer = self.tracer
        base = config.sat_conflict_limit
        limits = [
            base if rung == 0 else base * config.escalation_factor ** rung
            for _, _, _, rung in queries
        ]
        pairs = [query[:3] for query in queries]
        if journal is None:
            records = [None] * len(queries)
            fresh = iter(solver.check_pairs(pairs, limits))
        else:
            records = [
                journal.lookup(*pair, limit)
                for pair, limit in zip(pairs, limits)
            ]
            misses = [
                offset
                for offset, record in enumerate(records)
                if record is None
            ]
            fresh = iter(
                solver.check_pairs(
                    [pairs[offset] for offset in misses],
                    [limits[offset] for offset in misses],
                )
                if misses
                else ()
            )
        verdicts = []
        for (rep, member, complemented, rung), limit, record in zip(
            queries, limits, records
        ):
            if record is None:
                verdict = next(fresh)
                if journal is not None and not verdict.degraded and (
                    verdict.outcome is not SatResult.UNKNOWN
                    or verdict.limit == limit
                ):
                    journal.record(
                        rep, member, complemented, limit, verdict.outcome,
                        verdict.vector, conflicts=verdict.conflicts,
                        propagations=verdict.propagations, rung=rung,
                    )
            else:
                verdict = PairVerdict(
                    record.outcome,
                    None
                    if record.vector is None
                    else InputVector(dict(record.vector.values)),
                    record.conflicts,
                    0.0,
                    propagations=record.propagations,
                    limit=limit,
                )
                if budget is not None:
                    budget.charge_sat_call()
                    budget.charge_conflicts(record.conflicts)
                registry.inc_many(
                    "sat.solver",
                    {
                        "conflicts": record.conflicts,
                        "propagations": record.propagations,
                    },
                )
            verdicts.append(verdict)
            metrics.charge_attempt(rung, verdict.sat_time)
            if verdict.degraded:
                metrics.degraded_pairs += 1
            registry.observe("sat.conflicts_per_call", verdict.conflicts)
            if tracer.enabled:
                tracer.event(
                    "sat.call",
                    rep=rep,
                    member=member,
                    complement=complemented,
                    verdict=verdict.outcome.value,
                    conflicts=verdict.conflicts,
                    rung=rung,
                    **fields,
                    degraded=verdict.degraded,
                    dur=verdict.sat_time,
                )
        return verdicts

    def close_solver(self, solver, metrics: SweepMetrics) -> None:
        """Fold a back end's counters into ``metrics`` and the registry,
        then close it (a pool stops its workers).

        A pool is folded exactly once, here.  The journal hands out
        *deltas*, so the sweep and a CEC fallback can each fold it.
        """
        registry = self.registry
        pooled = isinstance(solver, CheckerPool)
        try:
            if pooled:
                metrics.worker_failures += solver.worker_failures
                metrics.worker_sat_time += solver.worker_sat_time
                registry.inc_many("pool", solver.supervision_stats)
            else:
                metrics.solver_retries += solver.stats.retries
            registry.inc_many("sat.solver", solver.solver_stats)
            if self._journal is not None:
                registry.inc_many("journal", self._journal.consume_stats())
        finally:
            if pooled:
                solver.close()

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

        Free PIs are completed immediately with this engine's RNG (one
        draw per counterexample, in verdict order), so flush timing never
        changes the simulated patterns.  When ``rep``/``member`` are
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

        Resimulation is simulation work triggered from the SAT phase: its
        window is charged to ``metrics.resim_time`` (never ``sim_time``,
        the simulation phase's bucket, nor ``sat_time``, whose sole owner
        is the checker clock), even when the flush is interrupted mid-batch.
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
            metrics.resim_time += flush_s
            if self.tracer.enabled:
                self.tracer.event(
                    "resim.flush", count=len(pending), dur=flush_s
                )

    def _resim_simulator(self, classes: EquivalenceClasses):
        """The simulator used for counterexample resimulation.

        Only members of classes of size >= 2 can still split, so the
        compiled simulator is restricted to their fanin cones
        whenever their count has fallen since the last restriction.  A
        restriction is a view over the same lowering (one backward pass in
        the core), never a recompile.  The reference simulator always runs
        the whole network.
        """
        if self._compiled_sim is None:
            return self._resim_sim
        members = classes.splittable_members()
        if members and len(members) < self._resim_targets:
            self._resim_sim = self._wrap_simulator(
                self._compiled_sim.restrict(members)
            )
            self._resim_targets = len(members)
        return self._resim_sim

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
                "resim_time": metrics.resim_time,
                "sat_time": metrics.sat_time,
                "sat_phase_time": metrics.sat_phase_time,
                "worker_sat_time": metrics.worker_sat_time,
            },
        )
        for attr, prefix in (
            ("implication", "simgen.implication"),
            ("decision", "simgen.decision"),
            ("kernel", "simgen.kernel"),
        ):
            stats = getattr(
                getattr(self.generator, attr, None), "stats", None
            )
            if isinstance(stats, dict):
                registry.inc_many(prefix, stats)
        # A restricted view shares its base simulator's stats dict, so
        # publishing each distinct dict once counts every batch once.
        seen: set[int] = set()
        for sim in (self.simulator, self._resim_sim):
            stats = getattr(sim, "stats", None)
            if isinstance(stats, dict) and id(stats) not in seen:
                seen.add(id(stats))
                registry.inc_many("sim", stats)

    def run(self) -> SweepResult:
        """Full sweep: simulation phase followed by the SAT phase."""
        tracer = self.tracer
        with tracer.span("run", kind="sweep", backend=self.config.backend):
            classes, metrics = self.run_simulation_phase()
            result = self.run_sat_phase(classes, metrics)
        self.publish_metrics(result.metrics)
        if tracer.enabled:
            tracer.counters(self.registry.as_dict())
        return result
