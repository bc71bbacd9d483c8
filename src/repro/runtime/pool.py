"""Process-parallel equivalence-pair checking with a deterministic merge.

SAT sweeping spends its SAT phase on *independent* pair queries, which makes
it embarrassingly parallel — the headline win of hybrid sweeping engines
(PAPERS.md: arXiv:2501.14740).  This module provides the worker pool the
sweep engine and CEC fall back on when ``jobs > 1``.

Determinism contract
--------------------

The refinement trajectory of a parallel sweep must be **bit-identical for
any worker count**.  Two mechanisms guarantee it:

* **Virtual solver shards.**  Pair queries are routed to a fixed number of
  virtual shards by a stable hash of the pair — *independent of the worker
  count*.  Each shard owns one incremental :class:`PairChecker` (persistent
  CDCL solver + Tseitin encoder) and serves its queries in canonical
  dispatch order, so the query sequence any solver instance observes — and
  therefore every verdict, counterexample model, and conflict count — is a
  pure function of the dispatched pairs.  Changing ``jobs`` only changes
  which *process* hosts a shard, never what a solver sees.

* **Canonical merge order.**  :meth:`CheckerPool.check_pairs` returns
  verdicts in dispatch order regardless of completion order; the engine
  merges them in that order and absorbs all counterexamples through one
  batched resimulation.

Fault tolerance and supervision
-------------------------------

A worker killed mid-query no longer forfeits its pairs.  The parent
respawns a replacement on the same task queue — queued-but-unread tasks
survive in the queue and are served by the replacement — and sends a
*fence* message; any task submitted before the fence that still has no
answer when the fence returns was lost inside the dead worker.  Lost
pairs are **re-dispatched** to the respawned worker under a bounded
:class:`~repro.runtime.supervise.RetryPolicy` (exponential backoff,
jittered via the seeded RNG — the schedule is a pure function of the pair,
never of wall clock), and only degrade to ``UNKNOWN`` once the retry
budget is exhausted.  Degradation is still never a fabricated verdict.

Re-dispatch preserves the determinism contract: verdicts are a pure
function of the solver state the query meets, and a respawned worker's
shard checkers replay the same canonical query sequence, so a retried
pair's verdict is the one an undisturbed run would have produced whenever
the queries are state-independent (fresh/query-pure mode, or a respawn
that re-serves the shard's full sequence).

Workers emit a heartbeat when they pick up a task; a busy worker silent
past ``heartbeat_interval`` bumps a counter (``pool.heartbeats_missed``)
for observability — process liveness stays authoritative.  Budget
deadlines are polled by the parent while collecting; expiry abandons
outstanding work as ``UNKNOWN``.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import signal
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.errors import SweepError
from repro.network.network import Network
from repro.obs import NULL_TRACER
from repro.runtime.budget import Budget
from repro.runtime.supervise import RetryPolicy, WorkerSupervisor
from repro.sat.solver import SatResult
from repro.simulation.patterns import InputVector

if TYPE_CHECKING:
    from repro.sat.tape import CnfTape

#: Virtual shard count.  Fixed (never derived from the worker count) so the
#: trajectory is identical for any ``jobs``; raising it increases available
#: parallelism but changes which solver serves which pair (a different —
#: still deterministic — trajectory).
DEFAULT_SHARDS = 16


@dataclass(slots=True)
class PairVerdict:
    """One worker answer, merged by the parent in dispatch order."""

    outcome: SatResult
    vector: Optional[InputVector]
    #: CDCL conflicts the query consumed (charged to the parent's budget).
    conflicts: int
    #: Solver wall-clock seconds inside the worker.
    sat_time: float
    #: Unit propagations the query consumed (folded into the parent's
    #: ``sat.solver.propagations`` counter).
    propagations: int = 0
    #: True when no worker answer exists (worker death past the retry
    #: budget, or budget expiry); the outcome is then UNKNOWN — degraded,
    #: never fabricated.
    degraded: bool = False
    #: Conflict limit actually applied to the query (the parent may have
    #: tightened the nominal limit to the budget's remaining headroom);
    #: verdict journals use this to tell a deterministic UNKNOWN-at-limit
    #: from a budget-squeezed one.
    limit: Optional[int] = None


def _worker_main(
    network: Network,
    tape: Optional["CnfTape"],
    conflict_limit: Optional[int],
    incremental: bool,
    sat_backend: str,
    worker_index: int,
    task_queue,
    result_queue,
    chaos_kill_pair: Optional[tuple[int, int]],
) -> None:
    """Worker loop: route each task to its shard's checker and answer.

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
        message = task_queue.get()
        if message is None:
            break
        if message[0] == "fence":
            result_queue.put(("fence", message[1]))
            continue
        _, task_id, shard, rep, member, complemented, limit = message
        # Heartbeat on pickup: the parent learns the worker is alive and
        # which query it committed to before any solving happens.
        result_queue.put(("hb", worker_index, task_id))
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
                sat_backend=sat_backend,
                tape=tape,
            )
            checkers[shard] = checker
        conflicts_before = checker.stats.conflicts
        props_before = checker.stats.propagations
        time_before = checker.stats.sat_time
        outcome, vector = checker.check(
            rep, member, complemented, conflict_limit=limit
        )
        result_queue.put(
            (
                "done",
                task_id,
                outcome.value,
                None if vector is None else dict(vector.values),
                checker.stats.conflicts - conflicts_before,
                checker.stats.sat_time - time_before,
                checker.stats.propagations - props_before,
            )
        )


class CheckerPool:
    """A pool of worker processes answering pair-equivalence queries.

    Each worker holds the incremental checkers of the shards routed to it
    over a read-only copy of the network (inherited copy-on-write under
    ``fork``, pickled under ``spawn``).  When the checkers encode cones in
    the C core, the parent lowers the network into its
    :class:`~repro.sat.tape.CnfTape` once, before starting any worker, and
    the workers share that tape (and the ISOP covers behind it) instead of
    each lowering the network again.

    Args:
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

    #: Seconds between liveness/deadline polls while collecting.
    POLL_INTERVAL = 0.05

    def __init__(
        self,
        network: Network,
        jobs: int,
        shards: int = DEFAULT_SHARDS,
        conflict_limit: Optional[int] = 20000,
        incremental: bool = True,
        sat_backend: str = "compiled",
        chaos_kill_pair: Optional[tuple[int, int]] = None,
        chaos_kill_limit: Optional[int] = 1,
        retry_policy: Optional[RetryPolicy] = None,
        heartbeat_interval: float = 5.0,
        tracer=None,
    ):
        if jobs < 1:
            raise SweepError(f"jobs must be >= 1, got {jobs}")
        if shards < 1:
            raise SweepError(f"shards must be >= 1, got {shards}")
        self.jobs = jobs
        self.shards = shards
        # Imported here: repro.sat.tape loads the SAT core, whose build
        # machinery lives in this package.
        from repro.sat.tape import CnfTape, stream_encoding_available

        self._network = network
        self._tape = None
        if stream_encoding_available(sat_backend):
            self._tape = CnfTape(network)
        self._conflict_limit = conflict_limit
        self._incremental = incremental
        self._sat_backend = sat_backend
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
        self._result_queue = self._ctx.Queue()
        self._task_queues = [self._ctx.Queue() for _ in range(jobs)]
        self._processes: list = [None] * jobs
        self._task_seq = 0
        self._fence_seq = 0
        #: Worker deaths absorbed by respawning (chaos metric).
        self.worker_failures = 0
        self._closed = False
        for index in range(jobs):
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
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self._network,
                self._tape,
                self._conflict_limit,
                self._incremental,
                self._sat_backend,
                index,
                self._task_queues[index],
                self._result_queue,
                chaos,
            ),
            daemon=True,
        )
        process.start()
        self._processes[index] = process
        self._supervisor.on_spawn(index)

    def shard_of(self, rep: int, member: int) -> int:
        """Stable shard routing: a pure function of the pair (never of
        ``jobs``), so retries and escalations hit the same solver state."""
        return ((rep * 0x9E3779B1) ^ (member * 0x85EBCA6B)) % self.shards

    @property
    def supervision_stats(self) -> dict:
        """``pool.*`` counters (heartbeats_missed / retries / respawns /
        pairs_redispatched) for registry export."""
        return dict(self._supervisor.stats)

    # ------------------------------------------------------------------
    def check_pairs(
        self,
        pairs: Sequence[tuple[int, int, bool]],
        limits: Optional[Sequence[Optional[int]]] = None,
        budget: Optional[Budget] = None,
    ) -> list[PairVerdict]:
        """Check ``(rep, member, complemented)`` pairs concurrently.

        Verdicts come back **in dispatch order** regardless of completion
        order.  Pairs lost to a dead worker are re-dispatched under the
        retry policy; a pair whose answer never arrives — retry budget
        exhausted, or the run's deadline — is returned as degraded
        ``UNKNOWN``.

        Args:
            limits: Optional per-pair conflict-limit overrides (escalation
                ladders pass the rung's limit); ``None`` entries mean the
                pool-wide limit.
            budget: Polled for its deadline while collecting; conflict
                headroom tightens each dispatched limit at wave granularity.
        """
        if self._closed:
            raise SweepError("pool is closed")
        count = len(pairs)
        if self._tracer.enabled:
            self._tracer.event("pool.dispatch", count=count)
        verdicts: list[Optional[PairVerdict]] = [None] * count
        position: dict[int, int] = {}
        owner: dict[int, int] = {}
        message_of: dict[int, tuple] = {}
        applied_limit: dict[int, Optional[int]] = {}
        attempts: dict[int, int] = {}
        remaining = (
            budget.remaining_conflicts() if budget is not None else None
        )
        for offset, (rep, member, complemented) in enumerate(pairs):
            limit = self._conflict_limit
            if limits is not None and limits[offset] is not None:
                limit = limits[offset]
            if remaining is not None and (limit is None or remaining < limit):
                limit = remaining
            task_id = self._task_seq
            self._task_seq += 1
            position[task_id] = offset
            shard = self.shard_of(rep, member)
            worker = shard % self.jobs
            owner[task_id] = worker
            applied_limit[task_id] = limit
            attempts[task_id] = 0
            message = (
                "check", task_id, shard, rep, member, complemented, limit
            )
            message_of[task_id] = message
            self._task_queues[worker].put(message)
        #: fence id -> (worker index, tasks in flight when it was sent).
        pending_fences: dict[int, tuple[int, list[int]]] = {}
        outstanding = set(position)
        #: Lost tasks awaiting their backoff: (due monotonic time, task_id).
        deferred: list[tuple[float, int]] = []
        deferred_ids: set[int] = set()

        def charge_lost(lost: Sequence[int]) -> None:
            """Charge one attempt to each task lost inside a dead worker:
            re-dispatch it after its backoff, or degrade it to UNKNOWN (below,
            never fabricated) once the retry budget is spent."""
            for task_id in lost:
                if task_id not in outstanding or task_id in deferred_ids:
                    continue
                attempts[task_id] += 1
                check = message_of[task_id]
                delay = self._supervisor.should_retry(
                    (check[3], check[4]), attempts[task_id]
                )
                if delay is None:
                    outstanding.discard(task_id)
                    continue
                deferred.append((time.monotonic() + delay, task_id))
                deferred_ids.add(task_id)
                if self._tracer.enabled:
                    self._tracer.event(
                        "pool.redispatch",
                        rep=check[3],
                        member=check[4],
                        attempt=attempts[task_id],
                    )

        while outstanding:
            if budget is not None and budget.time_expired():
                break  # outstanding work is abandoned, degraded to UNKNOWN
            if deferred:
                now = time.monotonic()
                due = [t for d, t in deferred if d <= now]
                if due:
                    deferred[:] = [(d, t) for d, t in deferred if t not in due]
                    for task_id in due:
                        if task_id not in outstanding:
                            continue
                        deferred_ids.discard(task_id)
                        self._task_queues[owner[task_id]].put(
                            message_of[task_id]
                        )
            try:
                message = self._result_queue.get(timeout=self.POLL_INTERVAL)
            except queue_mod.Empty:
                self._reap_dead(
                    owner, outstanding, pending_fences, deferred_ids,
                    charge_lost,
                )
                self._supervisor.check_heartbeats(
                    {
                        owner[t]
                        for t in outstanding
                        if t not in deferred_ids
                    }
                )
                continue
            kind = message[0]
            if kind == "hb":
                self._supervisor.heartbeat(message[1])
                continue
            if kind == "fence":
                # Submitted before the fence, no answer by the time the
                # replacement reached it: lost inside the dead worker.
                _, lost = pending_fences.pop(message[1], (None, ()))
                charge_lost(lost)
                continue
            _, task_id, outcome, values, conflicts, sat_time, props = message
            if task_id not in outstanding:
                continue  # straggler from an abandoned earlier call
            outstanding.discard(task_id)
            deferred_ids.discard(task_id)
            verdicts[position[task_id]] = PairVerdict(
                SatResult(outcome),
                None if values is None else InputVector(dict(values)),
                conflicts,
                sat_time,
                propagations=props,
                limit=applied_limit[task_id],
            )
        for offset in range(count):
            if verdicts[offset] is None:
                verdicts[offset] = PairVerdict(
                    SatResult.UNKNOWN, None, 0, 0.0, degraded=True
                )
        return verdicts  # type: ignore[return-value]

    def _reap_dead(
        self,
        owner: dict[int, int],
        outstanding: set[int],
        pending_fences: dict[int, tuple[int, list[int]]],
        deferred_ids: set[int],
        charge_lost: Callable[[Sequence[int]], None],
    ) -> None:
        """Respawn dead workers; fence to find which tasks died with them.

        Tasks already sitting in the backoff queue are excluded from the
        fence candidates — they are not in flight, so the fence cannot
        prove anything about them (and must not double-charge a retry).
        A worker that died with one of its fences unanswered (a
        replacement that died before reading it) never will answer it, so
        the tasks that fence covers are charged as lost right away;
        otherwise a worker dying at startup would be respawned forever.
        """
        for index, process in enumerate(self._processes):
            if process.is_alive():
                continue
            unanswered = [
                fence_id
                for fence_id, (worker, _) in pending_fences.items()
                if worker == index
            ]
            for fence_id in unanswered:
                charge_lost(pending_fences.pop(fence_id)[1])
            self.worker_failures += 1
            if self._chaos_kill_pair is not None:
                self._chaos_deaths += 1
            if self._tracer.enabled:
                self._tracer.event("pool.respawn", worker=index)
            self._spawn(index)
            fence_id = self._fence_seq
            self._fence_seq += 1
            pending_fences[fence_id] = (
                index,
                [
                    task_id
                    for task_id in outstanding
                    if owner.get(task_id) == index
                    and task_id not in deferred_ids
                ],
            )
            self._task_queues[index].put(("fence", fence_id))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop all workers (terminating any still mid-query)."""
        if self._closed:
            return
        self._closed = True
        for task_queue in self._task_queues:
            try:
                task_queue.put(None)
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass
        for process in self._processes:
            process.join(timeout=0.5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=0.5)
        self._result_queue.close()
        for task_queue in self._task_queues:
            task_queue.close()

    def __enter__(self) -> "CheckerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
