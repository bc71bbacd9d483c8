"""Process-parallel equivalence-pair checking with a deterministic merge.

SAT sweeping spends its SAT phase on *independent* pair queries, which makes
it embarrassingly parallel — the headline win of hybrid sweeping engines
(PAPERS.md: arXiv:2501.14740).  This module provides the worker pool the
sweep engine opens for its SAT phase (and CEC for its fallback miters)
when ``jobs > 1``.

Determinism contract
--------------------

The refinement trajectory of a parallel sweep must be **bit-identical for
any worker count**.  Two mechanisms guarantee it:

* **Virtual solver shards, one topological block each.**  Nodes are
  numbered by their position in ``network.topological_order()`` (their
  slot in the network's lowering, which the cone encoder also uses), the
  numbering is cut into :data:`DEFAULT_SHARDS` contiguous blocks, and a
  pair goes to the block of its deeper node.  Each shard owns one incremental
  :class:`PairChecker` (persistent CDCL solver + cone encoder) and serves
  its queries in canonical dispatch order, so the query sequence any
  solver instance observes — and therefore every verdict, counterexample
  model, and conflict count — is a pure function of the dispatched pairs
  and the network.  A shard's pairs share the cones of one region of the
  network, so it encodes, and learns about, that region instead of every
  shard meeting every cone.  Changing ``jobs`` only changes which
  *process* hosts a shard (shard ``s`` lives on worker ``s % workers``),
  never what a solver sees.

* **Canonical merge order.**  :meth:`CheckerPool.check_pairs` returns
  verdicts in dispatch order regardless of completion order; the engine
  merges them in that order and absorbs all counterexamples through one
  batched resimulation.

:meth:`CheckerPool.check_pairs` is also the in-process
:class:`~repro.sweep.checker.PairChecker`'s interface, so the engine
answers every pair query through one seam, whichever back end solves it.

Transport
---------

Each worker talks to the parent over one duplex pipe.  A call sends each
worker one message holding every task it owns, in dispatch order; the
worker answers each task, in order, as soon as it is solved.  An answer is
written to the pipe before the next task starts, so every answer a worker
sent can still be read after it dies, and each answer doubles as the
worker's heartbeat.  The parent waits on the pipes and the workers'
sentinels together.

Fault tolerance and supervision
-------------------------------

Answers arrive in batch order, so a dead worker's first unanswered task is
the one it was solving.  The parent reads every answer the dead worker
sent, then charges that task one attempt under a bounded
:class:`~repro.runtime.supervise.RetryPolicy` — re-dispatch after an
exponential backoff jittered via the seeded RNG (a pure function of the
pair, never of wall clock), or degrade to ``UNKNOWN`` once the retry budget
is spent, never a fabricated verdict — and re-sends the worker's other
unanswered tasks to a replacement at once, uncharged.  A worker is
respawned only when it next has work, so one that dies at start-up costs
one charged attempt per death instead of a tight fork loop.

Re-dispatch preserves the determinism contract: verdicts are a pure
function of the solver state the query meets, and a respawned worker's
shard checkers replay the same canonical query sequence, so a retried
pair's verdict is the one an undisturbed run would have produced whenever
the queries are state-independent (fresh/query-pure mode, or a respawn
that re-serves the shard's full sequence).

A busy worker silent past ``heartbeat_interval`` bumps a counter
(``pool.heartbeats_missed``) for observability — process liveness stays
authoritative.  Budget deadlines are polled by the parent while
collecting; expiry abandons outstanding work as ``UNKNOWN``, and a worker
still owing answers is stopped, so no later call sends to a worker busy
writing answers nobody reads.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Optional, Sequence

from repro.errors import SweepError
from repro.network.network import Network
from repro.obs import NULL_TRACER
from repro.runtime.budget import Budget
from repro.runtime.supervise import RetryPolicy, WorkerSupervisor
from repro.sat.solver import SatResult
from repro.simulation.patterns import InputVector

#: Virtual shard count: the number of topological blocks pairs are routed
#: to, and the most workers a pool starts.  Fixed (never derived from the
#: worker count) so the trajectory is identical for any ``jobs``; changing
#: it changes which solver serves which pair (a different — still
#: deterministic — trajectory).
DEFAULT_SHARDS = 16


@dataclass(slots=True)
class PairVerdict:
    """One pair answer — from a pool worker, the in-process checker, or a
    journal replay — merged by the engine in dispatch order."""

    outcome: SatResult
    vector: Optional[InputVector]
    #: CDCL conflicts the query consumed (charged to the parent's budget).
    conflicts: int
    #: Solver wall-clock seconds of the answering clock (the worker's, or
    #: the in-process checker's; 0.0 for a replay).
    sat_time: float
    #: Unit propagations the query consumed (folded into the parent's
    #: ``sat.solver.propagations`` counter).
    propagations: int = 0
    #: True when no deterministic answer exists: a pair lost to worker
    #: death past the retry budget or abandoned at budget expiry, or an
    #: in-process UNKNOWN cut short by budget expiry or an exhausted
    #: solver retry.  The outcome is then UNKNOWN — degraded, never
    #: fabricated — and the verdict is never journaled.
    degraded: bool = False
    #: Conflict limit actually applied to the query (the parent may have
    #: tightened the nominal limit to the budget's remaining headroom);
    #: verdict journals use this to tell a deterministic UNKNOWN-at-limit
    #: from a budget-squeezed one.
    limit: Optional[int] = None


def _worker_main(
    network: Network,
    conflict_limit: Optional[int],
    incremental: bool,
    backend: str,
    conn,
    chaos_kill_pair: Optional[tuple[int, int]],
) -> None:
    """Worker loop: take a batch, answer each task in order, repeat.

    ``chaos_kill_pair`` is a fault-injection seam (see
    :mod:`repro.runtime.faults`): receiving that exact pair SIGKILLs the
    process mid-query — the real failure mode supervision is built for —
    which chaos tests use to prove re-dispatch and bounded degradation.
    """
    # Imported here so the module can be imported without the sweep package
    # (and so spawn-start workers resolve it in their own interpreter).
    from repro.sweep.checker import PairChecker

    checkers: dict[int, PairChecker] = {}
    while True:
        try:
            batch = conn.recv()
        except EOFError:
            break
        if batch is None:
            break
        for shard, rep, member, complemented, limit in batch:
            if chaos_kill_pair is not None and (rep, member) == chaos_kill_pair:
                if hasattr(signal, "SIGKILL"):
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(1)  # pragma: no cover - non-POSIX fallback
            checker = checkers.get(shard)
            if checker is None:
                checker = PairChecker(
                    network,
                    conflict_limit=conflict_limit,
                    incremental=incremental,
                    backend=backend,
                )
                checkers[shard] = checker
            (verdict,) = checker.check_pairs(
                [(rep, member, complemented)], [limit]
            )
            vector = verdict.vector
            conn.send(
                (
                    verdict.outcome.value,
                    None if vector is None else vector.values,
                    verdict.conflicts,
                    verdict.sat_time,
                    verdict.propagations,
                )
            )


class CheckerPool:
    """A pool of worker processes answering pair-equivalence queries.

    Each worker holds the incremental checkers of the shards routed to it
    over a read-only copy of the network (inherited copy-on-write under
    ``fork``, pickled under ``spawn``).  The parent takes the network's
    lowering before starting any worker — built once, or kept from an
    earlier sweep of the same network — and the workers inherit it with
    the network (a pickled lowering leaves its C handles behind), so no
    worker lowers the network again.  The parent also builds the
    lowering's rows section (what a C cone encoder reads) before starting
    the workers, so it goes along too.  The pool starts
    ``min(jobs, DEFAULT_SHARDS)`` workers: a worker past the last shard
    would never get a task.

    Args:
        budget: The run's budget (parent-side only, never shipped to a
            worker): polled for its deadline while collecting, its conflict
            headroom tightens each dispatched limit at call granularity,
            and every answered pair is charged to it.
        retry_policy: Bounded-retry/backoff policy for pairs lost inside a
            dead worker (``None`` = default :class:`RetryPolicy`; pass
            ``RetryPolicy(max_retries=0)`` for the legacy
            degrade-on-first-loss behaviour).
        heartbeat_interval: Seconds of silence from a *busy* worker before
            ``pool.heartbeats_missed`` increments (observational only).
        chaos_kill_limit: How many worker deaths the ``chaos_kill_pair``
            seam may cause before respawned workers are disarmed (so a
            retried pair can succeed).  ``None`` keeps every respawn armed
            — the retry budget then exhausts and the pair degrades.
    """

    def __init__(
        self,
        network: Network,
        jobs: int,
        conflict_limit: Optional[int] = 20000,
        incremental: bool = True,
        backend: str = "compiled",
        chaos_kill_pair: Optional[tuple[int, int]] = None,
        chaos_kill_limit: Optional[int] = 1,
        retry_policy: Optional[RetryPolicy] = None,
        heartbeat_interval: float = 5.0,
        tracer=None,
        budget: Optional[Budget] = None,
    ):
        if jobs < 1:
            raise SweepError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.shards = DEFAULT_SHARDS
        self._budget = budget
        #: Worker-clock seconds and solver counters of every answered pair,
        #: folded once by whoever closes the pool.
        self.worker_sat_time = 0.0
        self._solver_stats = {"conflicts": 0, "propagations": 0}
        self._network = network
        lowering = network.lowering()
        lowering.rows()  # what the workers' cone encoders read
        self._number = lowering.slot_of
        self._conflict_limit = conflict_limit
        self._incremental = incremental
        self._backend = backend
        self._chaos_kill_pair = (
            None if chaos_kill_pair is None else tuple(chaos_kill_pair)
        )
        self._chaos_kill_limit = chaos_kill_limit
        self._chaos_deaths = 0
        # Parent-side only (never shipped to workers; a Tracer holds an
        # open file).  ``pool.*`` records are jobs-dependent by nature and
        # excluded from the deterministic trace projection.
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._supervisor = WorkerSupervisor(
            policy=retry_policy, heartbeat_interval=heartbeat_interval
        )
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        workers = min(jobs, self.shards)
        #: Per worker: its process and the parent's end of its pipe, or
        #: ``None`` for both while the slot waits for work to respawn.
        self._processes: list = [None] * workers
        self._conns: list = [None] * workers
        #: Worker deaths absorbed by respawning (chaos metric).
        self.worker_failures = 0
        self._closed = False
        for index in range(workers):
            self._spawn(index)

    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> None:
        chaos = self._chaos_kill_pair
        if (
            chaos is not None
            and self._chaos_kill_limit is not None
            and self._chaos_deaths >= self._chaos_kill_limit
        ):
            # The seam already killed its quota; respawns run disarmed so
            # the re-dispatched pair can actually be solved.
            chaos = None
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._network,
                self._conflict_limit,
                self._incremental,
                self._backend,
                child_conn,
                chaos,
            ),
            daemon=True,
        )
        process.start()
        # The worker holds the only other end, so its death closes the pipe.
        child_conn.close()
        self._processes[index] = process
        self._conns[index] = conn
        self._supervisor.on_spawn(index)

    def _stop(self, index: int, grace: float = 0.0) -> None:
        """Join worker ``index`` (terminating it after ``grace`` seconds)
        and close its pipe; the slot respawns when it next has work."""
        process = self._processes[index]
        process.join(timeout=grace)
        if process.is_alive():
            process.terminate()
            process.join(timeout=0.5)
        self._conns[index].close()
        self._processes[index] = self._conns[index] = None

    def shard_of(self, rep: int, member: int) -> int:
        """The topological block of the pair's deeper node: a pure function
        of the pair and the network (never of ``jobs``), so retries and
        escalations hit the same solver state."""
        number = self._number
        deeper = max(number[rep], number[member])
        return deeper * self.shards // len(number)

    @property
    def supervision_stats(self) -> dict:
        """``pool.*`` counters (heartbeats_missed / retries / respawns /
        pairs_redispatched) for registry export."""
        return dict(self._supervisor.stats)

    @property
    def solver_stats(self) -> dict:
        """Conflicts and propagations the workers reported for answered
        pairs (``sat.solver.*``; the parent has no solver of its own)."""
        return dict(self._solver_stats)

    # ------------------------------------------------------------------
    def check_pairs(
        self,
        pairs: Sequence[tuple[int, int, bool]],
        limits: Optional[Sequence[Optional[int]]] = None,
    ) -> list[PairVerdict]:
        """Check ``(rep, member, complemented)`` pairs concurrently.

        Each worker gets its tasks in one message.  Verdicts come back
        **in dispatch order** regardless of completion order.  Pairs lost
        to a dead worker are re-dispatched under the retry policy; a pair
        whose answer never arrives — retry budget exhausted, or the run's
        deadline — is returned as degraded ``UNKNOWN``.  Each answered
        pair is charged to the budget once the call's answers are all in.

        Args:
            limits: Optional per-pair conflict-limit overrides (escalation
                ladders pass the rung's limit); ``None`` entries mean the
                pool-wide limit.
        """
        if self._closed:
            raise SweepError("pool is closed")
        budget = self._budget
        supervisor = self._supervisor
        workers = len(self._processes)
        count = len(pairs)
        if self._tracer.enabled:
            self._tracer.event("pool.dispatch", count=count)
        verdicts: list[Optional[PairVerdict]] = [None] * count
        #: Per offset: the task a worker receives.
        tasks: list[tuple] = []
        batches: dict[int, list[int]] = {}
        remaining = (
            budget.remaining_conflicts() if budget is not None else None
        )
        for offset, (rep, member, complemented) in enumerate(pairs):
            limit = self._conflict_limit
            if limits is not None and limits[offset] is not None:
                limit = limits[offset]
            if remaining is not None and (limit is None or remaining < limit):
                limit = remaining
            shard = self.shard_of(rep, member)
            tasks.append((shard, rep, member, complemented, limit))
            batches.setdefault(shard % workers, []).append(offset)
        #: Per worker: offsets sent and not yet answered, in send order.
        inflight = [deque() for _ in range(workers)]
        attempts = [0] * count
        #: Lost tasks awaiting their backoff: (due monotonic time, offset).
        deferred: list[tuple[float, int]] = []

        def send(worker: int, offsets: list[int]) -> None:
            if self._processes[worker] is None:
                self._spawn(worker)
                if self._tracer.enabled:
                    self._tracer.event("pool.respawn", worker=worker)
            if not inflight[worker]:
                supervisor.heartbeat(worker)  # a busy spell starts now
            inflight[worker].extend(offsets)
            try:
                self._conns[worker].send([tasks[o] for o in offsets])
            except OSError:
                pass  # the worker died; its sentinel reports it

        def accept(worker: int, answer: tuple) -> None:
            offset = inflight[worker].popleft()
            outcome, values, conflicts, sat_time, props = answer
            verdicts[offset] = PairVerdict(
                SatResult(outcome),
                None if values is None else InputVector(values),
                conflicts,
                sat_time,
                propagations=props,
                limit=tasks[offset][4],
            )
            supervisor.heartbeat(worker)

        def drain(worker: int) -> bool:
            """Accept every answer waiting on the worker's pipe; False once
            the pipe reports the worker gone."""
            conn = self._conns[worker]
            try:
                while conn.poll():
                    accept(worker, conn.recv())
            except (EOFError, OSError):
                return False
            return True

        def bury(worker: int) -> None:
            """Read what a dead worker sent, then apply the loss rule: its
            first unanswered task is charged one attempt (re-dispatched
            after its backoff, or left unanswered to degrade), and the rest
            go to its replacement at once, uncharged."""
            drain(worker)
            self._stop(worker)
            self.worker_failures += 1
            if self._chaos_kill_pair is not None:
                self._chaos_deaths += 1
            lost = inflight[worker]
            if not lost:
                return
            first = lost.popleft()
            rest = list(lost)
            lost.clear()
            attempts[first] += 1
            _, rep, member, _, _ = tasks[first]
            delay = supervisor.should_retry((rep, member), attempts[first])
            if delay is not None:
                deferred.append((time.monotonic() + delay, first))
                if self._tracer.enabled:
                    self._tracer.event(
                        "pool.redispatch",
                        rep=rep,
                        member=member,
                        attempt=attempts[first],
                    )
            if rest:
                send(worker, rest)

        try:
            for worker in sorted(batches):
                send(worker, batches[worker])
            while deferred or any(inflight):
                if budget is not None and budget.time_expired():
                    break  # outstanding work is abandoned, degraded below
                now = time.monotonic()
                timeout = supervisor.heartbeat_interval
                if deferred:
                    due = sorted(o for d, o in deferred if d <= now)
                    deferred[:] = [(d, o) for d, o in deferred if d > now]
                    for offset in due:
                        send(tasks[offset][0] % workers, [offset])
                    if deferred:
                        timeout = min(timeout, min(deferred)[0] - now)
                if budget is not None:
                    left = budget.remaining_seconds()
                    if left is not None:
                        timeout = min(timeout, left)
                busy = [w for w in range(workers) if inflight[w]]
                owner = {self._conns[w]: w for w in busy}
                owner.update((self._processes[w].sentinel, w) for w in busy)
                dead = set()
                for ready in wait(list(owner), max(0.0, timeout)):
                    worker = owner[ready]
                    if ready is not self._conns[worker] or not drain(worker):
                        dead.add(worker)
                for worker in sorted(dead):
                    bury(worker)
                supervisor.check_heartbeats(busy)
        finally:
            for worker in range(workers):
                if inflight[worker]:
                    self._stop(worker)
        for offset, verdict in enumerate(verdicts):
            if verdict is None:
                verdicts[offset] = PairVerdict(
                    SatResult.UNKNOWN, None, 0, 0.0, degraded=True
                )
                continue
            self.worker_sat_time += verdict.sat_time
            self._solver_stats["conflicts"] += verdict.conflicts
            self._solver_stats["propagations"] += verdict.propagations
            if budget is not None:
                budget.charge_sat_call()
                budget.charge_conflicts(verdict.conflicts)
        return verdicts  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop all workers (terminating any still mid-query)."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send(None)
            except OSError:  # pragma: no cover - worker already gone
                pass
        for index, process in enumerate(self._processes):
            if process is not None:
                self._stop(index, grace=0.5)

    def __enter__(self) -> "CheckerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
