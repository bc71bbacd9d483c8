"""Worker-pool supervision policy: heartbeats, bounded retry, backoff.

:class:`~repro.runtime.pool.CheckerPool` detects a dead worker by its
sentinel and, since answers arrive in batch order, knows the one task it
was solving.  This module holds the *policy* for that task:

* :class:`RetryPolicy` — how many times a lost pair is re-dispatched and
  how long to wait before each attempt.  Backoff is exponential and
  jittered **via the seeded RNG, not wall clock**: the delay duration is a
  pure function of ``(seed, pair key, attempt)``, so a chaos test replays
  the same schedule every run.
* :class:`WorkerSupervisor` — per-worker bookkeeping (spawns, heartbeats,
  per-task attempt counts) and the ``pool.*`` counters surfaced through
  the metrics registry (``heartbeats_missed`` / ``retries`` / ``respawns``
  / ``pairs_redispatched``).

The pool remains the *mechanism* owner (pipes, processes, the loss rule);
the supervisor never touches a process handle, which keeps the policy
unit-testable with a fake clock.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(slots=True)
class RetryPolicy:
    """Bounded, deterministically-jittered exponential backoff.

    ``max_retries=0`` makes the first loss degrade to UNKNOWN; the
    default gives a lost pair two more chances.
    """

    #: Re-dispatches allowed per pair after the first loss.
    max_retries: int = 2
    #: Delay before the first re-dispatch (seconds).
    backoff_base: float = 0.05
    #: Growth factor per further attempt.
    backoff_factor: float = 2.0
    #: Fractional jitter span: the delay is scaled by a factor drawn
    #: uniformly from ``[1, 1 + jitter]``.
    jitter: float = 0.5
    #: Seed the jitter derives from (a pure function, never wall clock).
    seed: int = 0

    def delay(self, key: tuple, attempt: int) -> float:
        """Backoff before re-dispatch ``attempt`` (1-based) of ``key``.

        Deterministic: the same ``(seed, key, attempt)`` always yields the
        same delay, so retry schedules are reproducible run-to-run.
        """
        base = self.backoff_base * self.backoff_factor ** max(0, attempt - 1)
        mix = (self.seed + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF
        for part in (*key, attempt):
            mix = (mix * 1000003 + int(part)) & 0xFFFFFFFFFFFFFFFF
        return base * (1.0 + self.jitter * random.Random(mix).random())


class WorkerSupervisor:
    """Heartbeat and retry bookkeeping for one pool of workers.

    Heartbeats are *observational*: a worker deep inside a hard SAT query
    legitimately goes quiet, so a missed heartbeat only increments a
    counter (useful for monitoring stuck shards) — process liveness, which
    is authoritative, is the pool's reap path.  Task loss is what triggers
    retries, and only :meth:`should_retry` decides when to give up.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        heartbeat_interval: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy if policy is not None else RetryPolicy()
        self.heartbeat_interval = heartbeat_interval
        self._clock = clock
        #: worker index -> last heartbeat (or spawn) time.
        self._last_beat: dict[int, float] = {}
        self._spawns: dict[int, int] = {}
        self.stats = {
            "heartbeats_missed": 0,
            "retries": 0,
            "respawns": 0,
            "pairs_redispatched": 0,
        }

    # ------------------------------------------------------------------
    def on_spawn(self, index: int) -> None:
        """A worker process (re)started; respawns count from the second."""
        self._spawns[index] = self._spawns.get(index, 0) + 1
        if self._spawns[index] > 1:
            self.stats["respawns"] += 1
        self._last_beat[index] = self._clock()

    def heartbeat(self, index: int) -> None:
        self._last_beat[index] = self._clock()

    def check_heartbeats(self, busy_workers) -> None:
        """Count workers that went quiet past the heartbeat interval.

        Only *busy* workers (ones owning an in-flight task) are checked —
        an idle worker has nothing to say.  The beat clock resets on each
        miss so one long query counts once per interval, not per poll.
        """
        now = self._clock()
        for index in busy_workers:
            last = self._last_beat.get(index)
            if last is None:
                continue
            if now - last > self.heartbeat_interval:
                self.stats["heartbeats_missed"] += 1
                self._last_beat[index] = now

    # ------------------------------------------------------------------
    def should_retry(self, key: tuple, attempt: int) -> Optional[float]:
        """Decide the fate of a pair lost inside a dead worker.

        Args:
            key: Stable pair key (feeds the deterministic jitter).
            attempt: How many times the pair has been lost so far
                (1 on the first loss).

        Returns:
            The backoff delay in seconds before re-dispatch, or ``None``
            when the retry budget is exhausted (the pair then degrades to
            UNKNOWN — never to a fabricated verdict).
        """
        if attempt > self.policy.max_retries:
            return None
        self.stats["retries"] += 1
        self.stats["pairs_redispatched"] += 1
        return self.policy.delay(key, attempt)
