"""Batch SimGen: Algorithm 1 on a C lane core, verified 64 vectors a word.

:class:`BatchSimGenGenerator` is the fast path of every SimGen strategy
(paper §6.2); :class:`~repro.core.generator.SimGenGenerator` and its
reference engines are the oracle it must match bit for bit.  Two ideas
compose, and it is worth being precise about why the obvious third one is
off the table:

**Why decisions stay scalar.**  Algorithm 1's attempts are hard-serialized
on one ``random.Random``: attempt ``i+1``'s target sample, every roulette
draw inside it, and its free-PI completion all read RNG state that only
exists after attempt ``i`` has fully finished.  Advancing 64 *generation
fixpoints* in true lockstep would have to interleave those draws and so
cannot be bit-identical to the reference loop — and bit-identity is the
acceptance gate of every backend seam in this repository.  The lane
dimension therefore lives where the trajectory is already width-agnostic:

* **the inner loop runs in C** — :mod:`repro.core` ships
  ``_simgencore.c``, a resumable Algorithm-1 core that retires whole
  targets per call (propagate fixpoints, transition-table resolution,
  candidate picks, row commits, trail reverts) and *bounces* back to
  Python only at the single point that must stay there for bit-identity:
  RNG draws.  Its worklist order, state resolution, and every counter
  bump replicate :class:`~repro.core.implication.ImplicationEngine` and
  :class:`~repro.core.decision.DecisionEngine` exactly;

* **verification becomes 64-wide** — instead of simulating each candidate
  vector alone (``run_words`` with width 1), finished attempts park in
  lanes and one simulator call verifies up to 64 of them (bitwise tape
  ops make bit ``p`` of a 64-wide run equal the 1-wide run of vector
  ``p``).  Because the Algorithm-1 loop needs each vector's skip verdict
  before it knows whether to *stop*, parked lanes are **speculative**:
  the driver checkpoints the RNG/rotation/report/stats state before every
  attempt, and when a flush reveals that the reference loop would have
  stopped earlier, it rewinds to that attempt's checkpoint — the RNG is
  restored with ``setstate``, over-speculated reports are dropped, and
  shared stats dicts are rolled back, so the observable trajectory is
  byte-identical to ``--simgen-backend reference``.

The network is lowered straight into the core (:class:`_SgCore`): one pass
over the topological order gives every node a dense slot, and each
distinct gate function is handed over once from the shared table cache
of :mod:`repro.core.compiled`.

Lanes that resolve without simulation (the skip criterion already failed
on the claimed values) mask out before the flush and are counted in
``simgen.batch.masked_lane_steps``; per-flush live-lane widths feed the
``simgen.batch.lanes_active`` histogram.

When the core cannot run — no C toolchain (or ``REPRO_SIMGENCORE=python``),
a gate wider than :data:`SG_MAX_K`, or an outgold strategy a checkpoint
cannot rewind — the generator runs the inherited reference Algorithm 1:
identical results, about 10x slower generation.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.compiled import _TransitionTable, transition_table
from repro.core.decision import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DecisionEngine,
    DecisionStrategy,
)
from repro.core.generator import GenerationReport, SimGenGenerator
from repro.core.implication import ImplicationEngine, ImplicationStrategy
from repro.core.outgold import (
    OutgoldStrategy,
    alternating_outgold,
    level_alternating_outgold,
    select_targets,
)
from repro.errors import GenerationError
from repro.network.network import Network
from repro.runtime.cbuild import CoreLoader
from repro.simulation.compiled import CompiledSimulator
from repro.simulation.patterns import InputVector

#: Verification lane width — one 64-bit simulator word.
LANES = 64

#: Largest gate arity the C core compiles transition tables for (the
#: ``fref``/``dref`` arrays are ``3 * 4**k`` ints per distinct function).
#: Networks above it run the reference Algorithm 1.
SG_MAX_K = 8

#: Total cap on cached roulette weight lists of one core.  Overflow
#: clears the whole cache (weights are a deterministic function of the
#: gate state, so trajectories are unaffected) and counts the dropped
#: entries in ``stats["weights_evictions"]``.
WEIGHTS_CACHE_CAP = 1 << 16

# Status codes of the C core (keep in sync with _simgencore.c).
_DONE = 0
_CONFLICT = 1
_ASSIGN_CONFLICT = 2
_ALREADY = 3
_NEED_RNG = 4

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_simgencore.c")


def _configure(lib: ctypes.CDLL) -> None:
    """Set argument/return types on the loaded core."""
    i32, i64 = ctypes.c_int32, ctypes.c_int64
    p_i32 = ctypes.POINTER(i32)
    p_i64 = ctypes.POINTER(i64)
    p_i8 = ctypes.POINTER(ctypes.c_int8)
    lib.sg_new.argtypes = [i32]
    lib.sg_new.restype = ctypes.c_void_p
    lib.sg_free.argtypes = [ctypes.c_void_p]
    lib.sg_free.restype = None
    lib.sg_add_table.argtypes = [
        ctypes.c_void_p, i32, i32, i32, p_i64, p_i64, p_i8,
    ]
    lib.sg_add_table.restype = i32
    lib.sg_set_node.argtypes = [ctypes.c_void_p, i32, i32, i32, p_i32, i32, p_i32, i32]
    lib.sg_set_node.restype = i32
    lib.sg_finalize.argtypes = [ctypes.c_void_p]
    lib.sg_finalize.restype = i32
    lib.sg_set_mailbox.argtypes = [ctypes.c_void_p, p_i64, p_i32]
    lib.sg_set_mailbox.restype = None
    lib.sg_reset.argtypes = [ctypes.c_void_p]
    lib.sg_reset.restype = None
    lib.sg_read_values.argtypes = [ctypes.c_void_p, p_i32, i32, p_i8]
    lib.sg_read_values.restype = None
    lib.sg_read_trail_pis.argtypes = [ctypes.c_void_p, p_i32, p_i8]
    lib.sg_read_trail_pis.restype = i32
    lib.sg_counters.argtypes = [ctypes.c_void_p, p_i64]
    lib.sg_counters.restype = None
    lib.sg_start_target.argtypes = [ctypes.c_void_p, i32, i32]
    lib.sg_start_target.restype = i32
    lib.sg_resume_rng.argtypes = [ctypes.c_void_p, i32]
    lib.sg_resume_rng.restype = i32


_LOADER = CoreLoader(
    source_path=_SOURCE_PATH,
    cache_name="simgencore",
    env_var="REPRO_SIMGENCORE",
    configure=_configure,
    describe="compiled SimGen lane core",
    fallback="the reference SimGen engines (identical results, about 10x "
    "slower generation)",
)

_LIB = _LOADER.load()

#: "c" when the compiled lane core is active, "python" otherwise.
SIMGEN_CORE = "c" if _LIB is not None else "python"


class _SgCore:
    """One network lowered into a ``_simgencore`` instance.

    A single pass over ``network.topological_order()`` gives every node a
    dense slot and hands the core its PI flag, its fanin slots, and its
    examiners — the node itself, then its fanouts, the reference
    worklist order.  Each distinct gate function goes in once, from the
    shared table cache.  The fanins and packed rows come from the
    implication engine, which has already lowered them per gate.

    The Python side keeps what the RNG bounce needs: the slot maps, the
    Equation-4 priority of every row, and the bounded roulette-weights
    cache.  :attr:`stats` is published as ``simgen.kernel.*``.
    """

    __slots__ = (
        "_lib",
        "_handle",
        "uids",
        "slot_of",
        "priorities",
        "weights",
        "stats",
        "info",
        "indices",
        "_trail_slots",
        "_trail_vals",
        "_counter_buf",
        "_last_counters",
    )

    def __init__(
        self,
        lib: ctypes.CDLL,
        network: Network,
        implication: ImplicationEngine,
        decision: DecisionEngine,
    ):
        order = network.topological_order()
        n = len(order)
        self._lib = lib
        self._handle = handle = lib.sg_new(n)
        if not handle:
            raise MemoryError("sg_new failed")
        #: Slot -> uid (topological order) and its inverse.
        self.uids = order
        self.slot_of = slot_of = {uid: s for s, uid in enumerate(order)}
        #: Per slot: Equation-4 priority of each packed row; None for PIs,
        #: constants, and random decisions (which never score rows).
        self.priorities: list[Optional[list[float]]] = [None] * n
        #: (slot, state index) -> roulette weights, bounded by
        #: :data:`WEIGHTS_CACHE_CAP`.
        self.weights: dict[tuple[int, int], list[float]] = {}
        advanced = implication.strategy is ImplicationStrategy.ADVANCED
        score_rows = decision.strategy is not DecisionStrategy.RANDOM
        use_mffc = decision.strategy is DecisionStrategy.DC_MFFC
        alpha, beta, mffc = decision.alpha, decision.beta, decision._mffc
        gate_info = implication._gate_info
        examiners = implication._examiners
        # Keyed by the table object itself, which keeps every table alive
        # (and its identity unique) while the core is being built.
        table_ids: dict[_TransitionTable, int] = {}
        max_rows = 1
        i32 = ctypes.c_int32
        for slot, uid in enumerate(order):
            exam = [slot_of[e] for e in examiners[uid]]
            info = gate_info[uid]
            if info is None:  # PI or constant
                tid, k, fan_arr = -1, 0, None
                is_pi = network.node(uid).is_pi
            else:
                fanins, rows, _ = info
                k = len(fanins)
                if k > SG_MAX_K:
                    raise GenerationError(
                        f"gate arity {k} exceeds the core's {SG_MAX_K}"
                    )
                table = transition_table(rows, k, advanced)
                tid = table_ids.get(table)
                if tid is None:
                    tid = lib.sg_add_table(
                        handle, table.k, len(table.rows), int(table.advanced),
                        table.masks, table.values, table.outputs,
                    )
                    if tid < 0:
                        raise GenerationError("simgen core rejected a table")
                    table_ids[table] = tid
                    max_rows = max(max_rows, len(rows))
                fan_arr = (i32 * k)(*[slot_of[f] for f in fanins])
                is_pi = False
                if score_rows:
                    priorities: list[float] = []
                    for mask, _vals, _out in rows:
                        # Exact float-op order of DecisionEngine.priority:
                        # the weights must be bit-equal for the roulette to
                        # draw identically.
                        value = alpha * (k - mask.bit_count())
                        if use_mffc:
                            rank = 0.0
                            for i in range(k):
                                if (mask >> i) & 1:
                                    rank += mffc.depth(fanins[i])
                            value += beta * rank
                        priorities.append(value)
                    self.priorities[slot] = priorities
            if lib.sg_set_node(
                handle, slot, tid, int(is_pi), fan_arr, k,
                (i32 * len(exam))(*exam), len(exam),
            ) != 0:
                raise GenerationError("simgen core rejected a node")
        if lib.sg_finalize(handle) != 0:
            raise GenerationError("simgen core finalize failed")
        #: Bounce mailboxes, written by C and read here without extra calls.
        self.info = (ctypes.c_int64 * 8)()
        self.indices = (i32 * max_rows)()
        lib.sg_set_mailbox(handle, self.info, self.indices)
        self._trail_slots = (i32 * n)()
        self._trail_vals = (ctypes.c_int8 * n)()
        self._counter_buf = (ctypes.c_int64 * 8)()
        self._last_counters = [0] * 8
        #: Published as ``simgen.kernel.*``.
        self.stats = {
            "compiled_nodes": n,
            "transition_tables": len(table_ids),
            "reverted_assignments": 0,
            "weights_evictions": 0,
        }

    def __del__(self):  # pragma: no cover - interpreter teardown order
        handle = getattr(self, "_handle", None)
        lib = getattr(self, "_lib", None)
        if handle and lib is not None:
            try:
                lib.sg_free(handle)
            except (OSError, AttributeError, TypeError):
                pass

    # -- driving ------------------------------------------------------
    def reset(self) -> None:
        self._lib.sg_reset(self._handle)

    # -- reads --------------------------------------------------------
    def read_trail_pis(self) -> tuple[list[int], list[int]]:
        """Assigned-PI trail entries only (slots, values), trail order."""
        n = self._lib.sg_read_trail_pis(
            self._handle, self._trail_slots, self._trail_vals
        )
        return self._trail_slots[:n], self._trail_vals[:n]

    def values_of(self, slots: list[int]) -> list[int]:
        """Current values of the given slots (-1 when unassigned)."""
        n = len(slots)
        buf = self._trail_slots
        buf[:n] = slots
        self._lib.sg_read_values(self._handle, buf, n, self._trail_vals)
        return self._trail_vals[:n]

    def counter_deltas(self) -> list[int]:
        """Monotonic core counters since the previous read."""
        self._lib.sg_counters(self._handle, self._counter_buf)
        now = list(self._counter_buf)
        last = self._last_counters
        self._last_counters = now
        return [now[i] - last[i] for i in range(8)]


@dataclass(slots=True)
class _Checkpoint:
    """Everything a speculative rewind must restore."""

    rng_state: object
    rotation: int
    n_reports: int
    impl: dict
    dec: dict
    kernel: dict


@dataclass(slots=True)
class _PendingAttempt:
    """One speculative attempt parked in a verification lane."""

    report: GenerationReport
    chk: _Checkpoint
    needs_sim: bool
    outgold: Optional[Mapping[int, int]]
    full: Optional[InputVector]


class _BatchTelemetry:
    """Counters published as ``simgen.batch.*`` (engine attr loop)."""

    __slots__ = ("stats", "lane_occupancy")

    def __init__(self):
        self.stats = {
            "lane_attempts": 0,
            "masked_lane_steps": 0,
            "batch_flushes": 0,
            "speculative_rewinds": 0,
            "discarded_attempts": 0,
        }
        #: Per-flush live-lane widths (drained into the
        #: ``simgen.batch.lanes_active`` histogram at publish time).
        self.lane_occupancy: list[int] = []


class BatchSimGenGenerator(SimGenGenerator):
    """SimGen with a C Algorithm-1 core and lane-batched verification.

    A drop-in for :class:`SimGenGenerator`: same constructor, same RNG
    order, bit-identical vectors, reports and implication/decision stats —
    the differential suite in ``tests/core/test_batch_kernel.py`` enforces
    it.  :attr:`kernel` is the lowered C core, or ``None`` when the core
    cannot run; every call then takes the inherited reference path.
    """

    LANES = LANES

    def __init__(
        self,
        network: Network,
        seed: int = 0,
        implication_strategy: ImplicationStrategy = ImplicationStrategy.ADVANCED,
        decision_strategy: DecisionStrategy = DecisionStrategy.DC_MFFC,
        vectors_per_iteration: int = 4,
        max_targets: int = 8,
        outgold_strategy: OutgoldStrategy = alternating_outgold,
        alpha: float = DEFAULT_ALPHA,
        beta: float = DEFAULT_BETA,
    ):
        super().__init__(
            network,
            seed,
            implication_strategy,
            decision_strategy,
            vectors_per_iteration,
            max_targets,
            outgold_strategy,
            alpha,
            beta,
        )
        # Verification through the tape-compiled simulator: values are
        # bit-identical to the reference Simulator, only faster.
        self._verifier = CompiledSimulator(network)
        self.batch = _BatchTelemetry()
        #: uid -> (level, uid) sort key, built lazily (see _order_targets).
        self._order_key: Optional[dict[int, tuple[int, int]]] = None
        self.kernel: Optional[_SgCore] = None
        # Speculation needs every RNG consumer of the attempt loop to be
        # rewindable through ``self.rng``; the stateless builtin outgold
        # strategies are, arbitrary stateful callables may not be.
        if _LIB is not None and outgold_strategy in (
            alternating_outgold,
            level_alternating_outgold,
        ):
            try:
                self.kernel = _SgCore(
                    _LIB, network, self.implication, self.decision
                )
            except (GenerationError, MemoryError):
                pass  # e.g. a gate wider than SG_MAX_K: the reference path runs

    def _order_targets(self, outgold: Mapping[int, int]) -> list[int]:
        """Algorithm 1 line 2, with the sort keys precomputed once.

        Identical ordering to the reference ``_order_targets`` — same
        ``(level, uid)`` tuples, same ``reverse`` sort — but the per-call
        lambda/level lookups collapse to one dict ``__getitem__``.
        """
        keys = self._order_key
        if keys is None:
            keys = {
                uid: (level, uid)
                for uid, level in self.network.levels().items()
            }
            self._order_key = keys
        return sorted(outgold, key=keys.__getitem__, reverse=True)

    # ------------------------------------------------------------------
    # Speculative generate loop (the reference loop, lanes ahead)
    # ------------------------------------------------------------------
    def generate(self, classes: Sequence[Sequence[int]]) -> list[InputVector]:
        if self.kernel is None:
            return super().generate(classes)
        splittable = [c for c in classes if len(c) >= 2]
        splittable.sort(key=len, reverse=True)
        if not splittable:
            return []
        vpi = self.vectors_per_iteration
        vectors: list[InputVector] = []
        attempts = 0
        max_attempts = max(vpi * 4, len(splittable))
        pending: list[_PendingAttempt] = []
        sim_count = 0
        #: Lanes to fill before a flush: exactly the vectors still needed,
        #: doubling (up to LANES) after a flush that made no progress so
        #: high-skip workloads amortize the simulator call.
        flush_width = max(vpi, 1)
        stats = self.batch.stats
        while len(vectors) < vpi and attempts < max_attempts:
            chk = self._checkpoint()
            cls = splittable[self._rotation % len(splittable)]
            self._rotation += 1
            attempts += 1
            targets = select_targets(cls, self.max_targets, self.rng)
            outgold = self.outgold_strategy(self.network, targets)
            rec = self._attempt(outgold, chk)
            self.reports.append(rec.report)
            pending.append(rec)
            stats["lane_attempts"] += 1
            if rec.needs_sim:
                sim_count += 1
            else:
                # Lane retired before the lockstep verify (the skip
                # criterion already failed on the claimed values).
                stats["masked_lane_steps"] += 1
            if sim_count >= flush_width:
                progress, discarded = self._flush(pending, vectors)
                attempts -= discarded
                pending = []
                sim_count = 0
                if progress:
                    flush_width = max(vpi - len(vectors), 1)
                else:
                    flush_width = min(flush_width * 2, LANES)
        if pending:
            progress, discarded = self._flush(pending, vectors)
            attempts -= discarded
        return vectors

    def _checkpoint(self) -> _Checkpoint:
        return _Checkpoint(
            rng_state=self.rng.getstate(),
            rotation=self._rotation,
            n_reports=len(self.reports),
            impl=dict(self.implication.stats),
            dec=dict(self.decision.stats),
            kernel=dict(self.kernel.stats),
        )

    def _rewind(self, chk: _Checkpoint) -> None:
        """Undo over-speculated attempts: the reference loop stopped earlier."""
        self.rng.setstate(chk.rng_state)
        self._rotation = chk.rotation
        del self.reports[chk.n_reports:]
        # The stats dicts are the ones the engine publishes: restore them
        # in place.
        self.implication.stats.update(chk.impl)
        self.decision.stats.update(chk.dec)
        self.kernel.stats.update(chk.kernel)

    # ------------------------------------------------------------------
    # One attempt = Algorithm 1 over all targets + inline skip pre-check
    # ------------------------------------------------------------------
    def _attempt(
        self, outgold: Mapping[int, int], chk: _Checkpoint
    ) -> _PendingAttempt:
        report = GenerationReport(vector=None)
        core = self.kernel
        core.reset()
        for target in self._order_targets(outgold):
            self._run_target_core(target, outgold[target], report)
        self._fold_core_counters()
        slot_of = core.slot_of
        target_vals = core.values_of([slot_of[uid] for uid in outgold])
        # Unassigned reads back as -1, which never equals a gold bit —
        # exactly `assignment.value(uid) == gold` on the reference path.
        claimed = [
            uid
            for uid, value in zip(outgold, target_vals)
            if value == outgold[uid]
        ]
        if {outgold[uid] for uid in claimed} != {0, 1}:
            report.vector = None
            report.skipped = True
            report.survivors = claimed
            return _PendingAttempt(report, chk, False, None, None)
        uids = core.uids
        pi_slots, pi_trail_vals = core.read_trail_pis()
        candidate = InputVector(
            {uids[slot]: value for slot, value in zip(pi_slots, pi_trail_vals)}
        )
        full = candidate.completed(self.network.pis, self.rng)
        return _PendingAttempt(report, chk, True, outgold, full)

    def _run_target_core(
        self, target: int, gold: int, report: GenerationReport
    ) -> None:
        core = self.kernel
        # Direct library calls: the wrapper frames cost more than the
        # calls themselves at ~3k bounces per generate().
        handle = core._handle
        status = core._lib.sg_start_target(handle, core.slot_of[target], gold)
        rng = self.rng
        info = core.info
        indices_buf = core.indices
        resume = core._lib.sg_resume_rng
        randrange = rng.randrange
        random_draw = rng.random
        weights_cache = core.weights
        random_rows = self.decision.strategy is DecisionStrategy.RANDOM
        while status == _NEED_RNG:
            slot, index, count = info[0], info[1], info[2]
            if random_rows:
                chosen = rng.choice(indices_buf[:count])
            else:
                # Exact twin of DecisionEngine.decide's scored path: same
                # float-op order, same roulette — the draws must be
                # bit-equal.
                weights = weights_cache.get((slot, index))
                if weights is None:
                    row_priorities = core.priorities[slot]
                    priorities = [
                        row_priorities[i] for i in indices_buf[:count]
                    ]
                    low = min(priorities)
                    span = max(priorities) - low
                    floor = 0.1 + 0.05 * span
                    weights = [p - low + floor for p in priorities]
                    weights_cache[(slot, index)] = weights
                    # Module attribute read at call time, so the cap stays
                    # patchable.
                    if len(weights_cache) > WEIGHTS_CACHE_CAP:
                        core.stats["weights_evictions"] += len(weights_cache)
                        weights_cache.clear()
                # roulette_select inlined: every weight carries the
                # `0.1 + 0.05 * span` floor, so its 1e-9 epsilon clamp is
                # the identity and the draw sequence is unchanged.
                top = max(weights)
                while True:
                    j = randrange(count)
                    if random_draw() * top <= weights[j]:
                        chosen = indices_buf[j]
                        break
            status = resume(handle, chosen)
        if status < 0:
            raise GenerationError("simgen lane core protocol error")
        report.implications += info[3]
        report.decisions += info[4]
        if status in (_CONFLICT, _ASSIGN_CONFLICT):
            report.conflicts += 1

    def _fold_core_counters(self) -> None:
        """Fold the C core's counter deltas into the published stats dicts.

        ``simgen.implication.*`` and ``simgen.decision.*`` stay
        backend-invariant: the C core counts exactly what the reference
        engines count.
        """
        d = self.kernel.counter_deltas()
        impl = self.implication.stats
        impl["propagate_calls"] += d[0]
        impl["examinations"] += d[1]
        impl["forced_assignments"] += d[2]
        impl["conflicts"] += d[3]
        dec = self.decision.stats
        dec["decisions"] += d[4]
        dec["conflicts"] += d[5]
        dec["rows_committed"] += d[6]
        self.kernel.stats["reverted_assignments"] += d[7]

    # ------------------------------------------------------------------
    # Flush: one wide simulator word resolves every parked lane
    # ------------------------------------------------------------------
    def _flush(
        self, pending: list[_PendingAttempt], vectors: list[InputVector]
    ) -> tuple[bool, int]:
        """Verify parked lanes, commit in order, rewind over-speculation.

        Returns ``(progress, discarded)``: whether any vector was
        committed, and how many speculative attempts were rolled back
        because the reference loop would already have stopped.
        """
        vpi = self.vectors_per_iteration
        stats = self.batch.stats
        sims = [rec for rec in pending if rec.needs_sim]
        if sims:
            width = len(sims)
            words = {pi: 0 for pi in self.network.pis}
            for pos, rec in enumerate(sims):
                for pi, value in rec.full.values.items():
                    if value:
                        words[pi] |= 1 << pos
            values = self._verifier.run_words(words, width)
            stats["batch_flushes"] += 1
            self.batch.lane_occupancy.append(width)
            for pos, rec in enumerate(sims):
                report = rec.report
                report.survivors = [
                    uid
                    for uid, gold in rec.outgold.items()
                    if ((values[uid] >> pos) & 1) == gold
                ]
                gold_values = {rec.outgold[uid] for uid in report.survivors}
                if gold_values == {0, 1}:
                    report.vector = InputVector(dict(rec.full.values))
                    report.skipped = False
                else:
                    report.vector = None
                    report.skipped = True
                rec.needs_sim = False
        progress = False
        for i, rec in enumerate(pending):
            if len(vectors) >= vpi:
                # The reference loop exits before this attempt: everything
                # from here on never happened.
                discarded = len(pending) - i
                self._rewind(rec.chk)
                stats["speculative_rewinds"] += 1
                stats["discarded_attempts"] += discarded
                return progress, discarded
            if rec.report.vector is not None and not rec.report.skipped:
                vectors.append(rec.report.vector)
                progress = True
        return progress, 0
