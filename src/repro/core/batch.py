"""Batch SimGen: Algorithm 1 on a C lane core, verified 64 vectors a word.

:class:`BatchSimGenGenerator` is the fast path of every SimGen strategy
(paper §6.2); :class:`~repro.core.generator.SimGenGenerator` and its
reference engines are the oracle it must match bit for bit.  Two ideas
compose, and it is worth being precise about why the obvious third one is
off the table:

**Why decisions stay scalar.**  Algorithm 1's attempts are hard-serialized
on one random stream: attempt ``i+1``'s target sample, every roulette
draw inside it, and its free-PI completion all read RNG state that only
exists after attempt ``i`` has fully finished.  Advancing 64 *generation
fixpoints* in true lockstep would have to interleave those draws and so
cannot be bit-identical to the reference loop — and bit-identity is the
acceptance gate of every backend seam in this repository.  The lane
dimension therefore lives where the trajectory is already width-agnostic:

* **each attempt is one C call** — :mod:`repro.core` ships
  ``_simgencore.c``, which carries a port of CPython's Mersenne Twister
  and of the draw rules SimGen uses (``_randbelow``, ``choice``,
  ``sample``, ``random``).  ``sg_attempt`` runs a whole attempt:
  ``select_targets``, the OUTgold values, the target order, each target's
  Algorithm 1 with its roulette or ``choice`` draws, the skip pre-check
  on the claimed values, and the random completion of the free PIs.
  :meth:`BatchSimGenGenerator.generate` hands the generator's
  ``random.Random`` state to the core on entry and takes it back on exit;
  in between the stream lives in C.  The worklist order, state
  resolution, every counter bump and every draw replicate
  :class:`~repro.core.implication.ImplicationEngine`,
  :class:`~repro.core.decision.DecisionEngine` and ``random.Random``
  exactly;

* **verification becomes 64-wide** — instead of simulating each candidate
  vector alone (``run_words`` with width 1), the core writes each
  completed vector into one bit lane of the per-PI words, and one
  simulator call verifies up to 64 of them (bitwise tape ops make bit
  ``p`` of a 64-wide run equal the 1-wide run of vector ``p``).  Because
  the Algorithm-1 loop needs each vector's skip verdict before it knows
  whether to *stop*, parked lanes are **speculative**: before it draws,
  the core saves its RNG state and counters under the attempt's index in
  the pending batch (a 2.5 KB copy), and when a flush reveals that the
  reference loop would have stopped earlier, the driver rewinds the core
  to that attempt's mark, resets the rotation and drops the
  over-speculated reports, so the observable trajectory is byte-identical
  to ``--simgen-backend reference``.  The core's counters fold into the
  published ``simgen.implication.*``/``simgen.decision.*`` stats dicts
  once per ``generate()`` call, after any rewind.

The network is lowered straight into the core (:class:`_SgCore`): one pass
over the topological order gives every node a dense slot, each distinct
gate function is handed over once from the shared table cache of
:mod:`repro.core.compiled`, and the Equation-4 priority of every gate row
goes over as one flat array.

Lanes that resolve without simulation (the skip criterion already failed
on the claimed values) mask out before the flush and are counted in
``simgen.batch.masked_lane_steps``; per-flush live-lane widths feed the
``simgen.batch.lanes_active`` histogram.  A committed vector lists every
PI in ``network.pis`` order.

When the core cannot run — no C toolchain (or ``REPRO_SIMGENCORE=python``),
a gate wider than :data:`SG_MAX_K`, or an outgold strategy a rewind
cannot undo — the generator runs the inherited reference Algorithm 1:
identical results, about 10x slower generation.
"""

from __future__ import annotations

import ctypes
import math
import os
import random
from dataclasses import dataclass
from typing import Optional, Sequence

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

# sg_attempt results (keep in sync with _simgencore.c).
_SKIPPED = 0

#: ``Random.getstate()[1]``: the 624 Mersenne Twister words and the index.
_MT_STATE_WORDS = 625

_INT32_MAX = (1 << 31) - 1

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_simgencore.c")


def _configure(lib: ctypes.CDLL) -> None:
    """Set argument/return types on the loaded core."""
    i32, i64 = ctypes.c_int32, ctypes.c_int64
    p_i32 = ctypes.POINTER(i32)
    p_i64 = ctypes.POINTER(i64)
    p_i8 = ctypes.POINTER(ctypes.c_int8)
    p_u32 = ctypes.POINTER(ctypes.c_uint32)
    p_u64 = ctypes.POINTER(ctypes.c_uint64)
    p_f64 = ctypes.POINTER(ctypes.c_double)
    handle = ctypes.c_void_p
    lib.sg_new.argtypes = [i32]
    lib.sg_new.restype = handle
    lib.sg_free.argtypes = [handle]
    lib.sg_free.restype = None
    lib.sg_add_table.argtypes = [handle, i32, i32, i32, p_i64, p_i64, p_i8]
    lib.sg_add_table.restype = i32
    lib.sg_set_node.argtypes = [
        handle, i32, i32, i32, i32, p_i32, i32, p_i32, i32,
    ]
    lib.sg_set_node.restype = i32
    lib.sg_finalize.argtypes = [handle, p_i32, i32, p_f64, i64]
    lib.sg_finalize.restype = i32
    lib.sg_set_policy.argtypes = [handle, i32, i32, i32, i32, i64]
    lib.sg_set_policy.restype = i32
    lib.sg_set_mailbox.argtypes = [handle, p_i64, p_i32, p_i8, p_u64]
    lib.sg_set_mailbox.restype = None
    lib.sg_rng_set.argtypes = [handle, p_u32]
    lib.sg_rng_set.restype = i32
    lib.sg_rng_get.argtypes = [handle, p_u32]
    lib.sg_rng_get.restype = None
    lib.sg_counters.argtypes = [handle, p_i64]
    lib.sg_counters.restype = None
    lib.sg_attempt.argtypes = [handle, p_i32, i32, i32, i32]
    lib.sg_attempt.restype = i32
    lib.sg_rewind.argtypes = [handle, i32]
    lib.sg_rewind.restype = i32


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


def _target_policy(max_targets: Optional[int]) -> tuple[int, int, int]:
    """``select_targets``' cap, its sample size, and ``random.sample``'s
    pool/set threshold for that size.

    The cap test uses ``max_targets`` before ``select_targets`` clamps it
    to 2; ``None`` means no cap.  The threshold is ``random.sample``'s own
    expression, so the core takes the same branch.
    """
    cap = _INT32_MAX if max_targets is None else max_targets
    cap = min(max(cap, -1), _INT32_MAX)
    k = max(cap, 2)
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return cap, k, setsize


class _SgCore:
    """One network lowered into a ``_simgencore`` instance.

    A single pass over ``network.topological_order()`` gives every node a
    dense slot and hands the core its PI flag, its level, its fanin slots
    and its examiners — the node itself, then its fanouts, the reference
    worklist order.  Each distinct gate function goes in once, from the
    shared table cache.  The fanins and packed rows come from the
    implication engine, which has already lowered them per gate; the
    Equation-4 priority of every row is computed here, in
    ``DecisionEngine.priority``'s float order, and goes in as one flat
    array.

    The buffers the core writes each attempt into live here: the report
    counters (:attr:`info`), the OUTgold targets (:attr:`out_slots`, and
    :attr:`out_flags` as ``gold | claimed << 1``), and one 64-lane word
    per PI (:attr:`words`, in :attr:`pis` order).  :attr:`stats` is
    published as ``simgen.kernel.*``.
    """

    __slots__ = (
        "_lib",
        "_handle",
        "uids",
        "slot_of",
        "pis",
        "stats",
        "info",
        "out_slots",
        "out_flags",
        "words",
        "_rng_buf",
        "_counter_buf",
    )

    def __init__(
        self,
        lib: ctypes.CDLL,
        network: Network,
        implication: ImplicationEngine,
        decision: DecisionEngine,
        max_targets: Optional[int],
        level_outgold: bool,
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
        levels = network.levels()
        advanced = implication.strategy is ImplicationStrategy.ADVANCED
        score_rows = decision.strategy is not DecisionStrategy.RANDOM
        use_mffc = decision.strategy is DecisionStrategy.DC_MFFC
        alpha, beta, mffc = decision.alpha, decision.beta, decision._mffc
        gate_info = implication._gate_info
        examiners = implication._examiners
        #: Every gate row's Equation-4 priority, in slot then row order;
        #: empty for random decisions, which never score rows.
        priorities: list[float] = []
        # Keyed by the table object itself, which keeps every table alive
        # (and its identity unique) while the core is being built.
        table_ids: dict[_TransitionTable, int] = {}
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
                fan_arr = (i32 * k)(*[slot_of[f] for f in fanins])
                is_pi = False
                if score_rows:
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
            if lib.sg_set_node(
                handle, slot, tid, int(is_pi), levels[uid], fan_arr, k,
                (i32 * len(exam))(*exam), len(exam),
            ) != 0:
                raise GenerationError("simgen core rejected a node")
        pis = network.pis
        #: The network's PIs, in the order of :attr:`words`.
        self.pis = tuple(pis)
        if lib.sg_finalize(
            handle,
            (i32 * len(pis))(*[slot_of[pi] for pi in pis]),
            len(pis),
            (ctypes.c_double * len(priorities))(*priorities),
            len(priorities),
        ) != 0:
            raise GenerationError("simgen core finalize failed")
        if lib.sg_set_policy(
            handle, int(not score_rows), int(level_outgold),
            *_target_policy(max_targets),
        ) != 0:
            raise GenerationError("simgen core rejected its policy")
        self.info = (ctypes.c_int64 * 4)()
        self.out_slots = (i32 * n)()
        self.out_flags = (ctypes.c_int8 * n)()
        self.words = (ctypes.c_uint64 * len(pis))()
        lib.sg_set_mailbox(
            handle, self.info, self.out_slots, self.out_flags, self.words
        )
        self._rng_buf = (ctypes.c_uint32 * _MT_STATE_WORDS)()
        self._counter_buf = (ctypes.c_int64 * 8)()
        #: Published as ``simgen.kernel.*``.
        self.stats = {
            "compiled_nodes": n,
            "transition_tables": len(table_ids),
            "reverted_assignments": 0,
        }

    def __del__(self):  # pragma: no cover - interpreter teardown order
        handle = getattr(self, "_handle", None)
        lib = getattr(self, "_lib", None)
        if handle and lib is not None:
            try:
                lib.sg_free(handle)
            except (OSError, AttributeError, TypeError):
                pass

    # -- the random stream ---------------------------------------------
    def load_rng(self, rng: random.Random) -> tuple:
        """Hand ``rng``'s stream to the core; returns what
        :meth:`store_rng` needs to hand it back."""
        version, internal, gauss_next = rng.getstate()
        self._rng_buf[:] = internal
        if self._lib.sg_rng_set(self._handle, self._rng_buf) != 0:
            raise GenerationError("simgen core rejected the RNG state")
        return version, gauss_next

    def rng_state(self) -> tuple[int, ...]:
        """The core's stream, as ``Random.getstate()[1]``."""
        self._lib.sg_rng_get(self._handle, self._rng_buf)
        return tuple(self._rng_buf)

    def store_rng(self, rng: random.Random, handover: tuple) -> None:
        """Hand the core's stream back to ``rng``."""
        version, gauss_next = handover
        rng.setstate((version, self.rng_state(), gauss_next))

    # -- attempts --------------------------------------------------------
    def attempt(self, cls: ctypes.Array, mark: int, lane: int) -> int:
        """One attempt on ``cls`` (slots in uid order); see ``sg_attempt``."""
        status = self._lib.sg_attempt(self._handle, cls, len(cls), mark, lane)
        if status < 0:
            raise GenerationError("simgen core rejected an attempt")
        return status

    def rewind(self, mark: int) -> None:
        """Restore the stream and counters saved under ``mark``."""
        if self._lib.sg_rewind(self._handle, mark) != 0:
            raise GenerationError(f"simgen core has no mark {mark}")

    def counters(self) -> list[int]:
        """The core's monotonic work counters (``sg_counters`` order)."""
        self._lib.sg_counters(self._handle, self._counter_buf)
        return list(self._counter_buf)


@dataclass(slots=True)
class _PendingAttempt:
    """One speculative attempt parked in the pending batch.

    Its index in the batch names the core's mark; ``rotation`` and
    ``n_reports`` are the driver's state before the attempt.
    """

    report: GenerationReport
    rotation: int
    n_reports: int
    #: Verification lane, or -1 when the skip criterion already failed on
    #: the claimed values.
    lane: int
    #: ``(uid, gold)`` in OUTgold order (verified lanes only).
    targets: list[tuple[int, int]]


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
        self.kernel: Optional[_SgCore] = None
        #: Core counters already folded into the published stats dicts.
        self._folded = [0] * 8
        # The core computes the builtin outgold strategies itself; an
        # arbitrary callable may hold state a rewind cannot undo.
        if _LIB is not None and outgold_strategy in (
            alternating_outgold,
            level_alternating_outgold,
        ):
            try:
                self.kernel = _SgCore(
                    _LIB,
                    network,
                    self.implication,
                    self.decision,
                    max_targets,
                    outgold_strategy is level_alternating_outgold,
                )
            except (GenerationError, MemoryError):
                pass  # e.g. a gate wider than SG_MAX_K: the reference path runs

    # ------------------------------------------------------------------
    # Speculative generate loop (the reference loop, lanes ahead)
    # ------------------------------------------------------------------
    def generate(self, classes: Sequence[Sequence[int]]) -> list[InputVector]:
        core = self.kernel
        if core is None:
            return super().generate(classes)
        splittable = [c for c in classes if len(c) >= 2]
        splittable.sort(key=len, reverse=True)
        if not splittable:
            return []
        handover = core.load_rng(self.rng)
        try:
            return self._speculate(splittable)
        finally:
            core.store_rng(self.rng, handover)
            self._fold_counters()

    def _speculate(self, splittable: list[Sequence[int]]) -> list[InputVector]:
        vpi = self.vectors_per_iteration
        vectors: list[InputVector] = []
        attempts = 0
        max_attempts = max(vpi * 4, len(splittable))
        #: Class index -> its slots in uid order, lowered on first visit.
        lowered: dict[int, ctypes.Array] = {}
        pending: list[_PendingAttempt] = []
        lanes = 0
        #: Lanes to fill before a flush: exactly the vectors still needed,
        #: doubling (up to LANES) after a flush that made no progress so
        #: high-skip workloads amortize the simulator call.
        flush_width = max(vpi, 1)
        stats = self.batch.stats
        while len(vectors) < vpi and attempts < max_attempts:
            rec = self._attempt(splittable, lowered, len(pending), lanes)
            pending.append(rec)
            attempts += 1
            if rec.lane >= 0:
                lanes += 1
            else:
                # Lane retired before the lockstep verify (the skip
                # criterion already failed on the claimed values).
                stats["masked_lane_steps"] += 1
            if lanes >= flush_width:
                progress, discarded = self._flush(pending, vectors)
                attempts -= discarded
                pending = []
                lanes = 0
                if progress:
                    flush_width = max(vpi - len(vectors), 1)
                else:
                    flush_width = min(flush_width * 2, LANES)
        if pending:
            self._flush(pending, vectors)
        return vectors

    # ------------------------------------------------------------------
    # One attempt = one core call
    # ------------------------------------------------------------------
    def _attempt(
        self,
        splittable: list[Sequence[int]],
        lowered: dict[int, ctypes.Array],
        mark: int,
        lane: int,
    ) -> _PendingAttempt:
        """The reference loop's next attempt, parked under ``mark``.

        ``lane`` is the verification lane the vector takes if the claimed
        values pass the skip check.
        """
        core = self.kernel
        index = self._rotation % len(splittable)
        cls = lowered.get(index)
        if cls is None:
            slot_of = core.slot_of
            members = sorted(splittable[index])
            cls = lowered[index] = (ctypes.c_int32 * len(members))(
                *[slot_of[uid] for uid in members]
            )
        rotation = self._rotation
        n_reports = len(self.reports)
        self._rotation += 1
        status = core.attempt(cls, mark, lane)
        info = core.info
        report = GenerationReport(
            vector=None,
            implications=info[1],
            decisions=info[2],
            conflicts=info[3],
        )
        count = info[0]
        uids = core.uids
        targets = [
            (uids[slot], flags)
            for slot, flags in zip(core.out_slots[:count], core.out_flags[:count])
        ]
        self.reports.append(report)
        self.batch.stats["lane_attempts"] += 1
        if status == _SKIPPED:
            report.skipped = True
            report.survivors = [uid for uid, flags in targets if flags & 2]
            return _PendingAttempt(report, rotation, n_reports, -1, [])
        return _PendingAttempt(
            report,
            rotation,
            n_reports,
            lane,
            [(uid, flags & 1) for uid, flags in targets],
        )

    def _fold_counters(self) -> None:
        """Fold the C core's counters into the published stats dicts.

        ``simgen.implication.*`` and ``simgen.decision.*`` stay
        backend-invariant: the C core counts exactly what the reference
        engines count.
        """
        now = self.kernel.counters()
        d = [a - b for a, b in zip(now, self._folded)]
        self._folded = now
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
        live = [rec for rec in pending if rec.lane >= 0]
        if live:
            width = len(live)
            words = dict(zip(self.kernel.pis, self.kernel.words))
            values = self._verifier.run_words(words, width)
            stats["batch_flushes"] += 1
            self.batch.lane_occupancy.append(width)
            for rec in live:
                lane = rec.lane
                report = rec.report
                hits = [
                    (uid, gold)
                    for uid, gold in rec.targets
                    if ((values[uid] >> lane) & 1) == gold
                ]
                report.survivors = [uid for uid, _ in hits]
                if {gold for _, gold in hits} == {0, 1}:
                    report.vector = InputVector(
                        {pi: (word >> lane) & 1 for pi, word in words.items()}
                    )
                else:
                    report.skipped = True
        progress = False
        for i, rec in enumerate(pending):
            if len(vectors) >= vpi:
                # The reference loop exits before this attempt: everything
                # from here on never happened.
                discarded = len(pending) - i
                self.kernel.rewind(i)
                self._rotation = rec.rotation
                del self.reports[rec.n_reports:]
                stats["speculative_rewinds"] += 1
                stats["discarded_attempts"] += discarded
                return progress, discarded
            if rec.report.vector is not None:
                vectors.append(rec.report.vector)
                progress = True
        return progress, 0
