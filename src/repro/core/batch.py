"""Batch SimGen: each ``generate()`` runs as one call into a C core.

:class:`BatchSimGenGenerator` is the fast path of every SimGen strategy
(paper §6.2); :class:`~repro.core.generator.SimGenGenerator` and its
reference engines are the oracle it must match bit for bit.

Algorithm 1's attempts are hard-serialized on one random stream: attempt
``i+1``'s target sample, every roulette draw inside it, and its free-PI
completion all read RNG state that only exists after attempt ``i`` has
fully finished, and whether attempt ``i+1`` runs at all depends on
whether attempt ``i``'s vector survived verification.  So the whole
``generate()`` loop runs in ``_simgencore.c``, in order:

* **the loop** — the class rotation, the attempt budget
  ``max(vpi * 4, classes)`` and the stop at ``vectors_per_iteration``
  kept vectors, as in
  :meth:`~repro.core.generator.TargetedVectorGenerator.generate`;
* **each attempt** — ``select_targets``, the OUTgold values, the target
  order, each target's Algorithm 1 with its roulette or ``choice`` draws,
  the skip check on the claimed values, and the random completion of the
  free PIs.  The core carries a port of CPython's Mersenne Twister and of
  the draw rules SimGen uses (``_randbelow``, ``choice``, ``sample``,
  ``random``); :meth:`BatchSimGenGenerator.generate` hands the
  generator's ``random.Random`` state in and takes it back in one
  ``array('I')`` buffer;
* **verification** — the completed vector is simulated at once on its
  targets' fanin cones, from each gate's truth table, exactly as
  ``_finalize`` simulates it, and is kept when targets of both gold
  values survive.

The worklist order, state resolution, every counter bump and every draw
replicate :class:`~repro.core.implication.ImplicationEngine`,
:class:`~repro.core.decision.DecisionEngine` and ``random.Random``
exactly.  The core's counters fold into the published
``simgen.implication.*``/``simgen.decision.*`` stats dicts once per
``generate()`` call; ``simgen.kernel.*`` adds the core's own.

The network goes into the core in one ``sg_load`` call (:class:`_SgCore`):
its lowering (:meth:`Network.lowering
<repro.network.network.Network.lowering>`) gives every slot's kind, level,
function id, fanins and examiners; the lowering's SimGen section gives each
distinct gate function's rows once (:func:`~repro.logic.cubes.packed_rows`)
and its MFFC section every slot's MFFC depth (:func:`mffc_depths`, one C
pass over the whole lowering), from which the core computes each row's
Equation-4 priority.  Both sections are built once per lowering, so the
four SimGen variants of one network share them, across sweeps too.  The
core returns one record per attempt; :attr:`BatchSimGenGenerator.reports`
decodes them into :class:`~repro.core.generator.GenerationReport` objects
only when it is read.

When the core cannot run — no C toolchain (or ``REPRO_CCORES=python``),
a gate wider than :data:`SG_MAX_K`, or an outgold strategy other than the
two builtin ones — the generator runs the inherited reference Algorithm 1:
identical results, about 10x slower generation.
"""

from __future__ import annotations

import ctypes
import math
import os
from array import array
from functools import lru_cache
from itertools import accumulate, chain
from typing import Optional, Sequence

from repro.core.compiled import count_tables
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
from repro.logic.cubes import packed_rows
from repro.logic.truthtable import TruthTable
from repro.network.lowering import Lowering
from repro.network.network import Network
from repro.runtime.cbuild import CoreLoader
from repro.simulation.patterns import InputVector

#: Largest gate arity the C core takes (its transition tables take
#: ``3**(k + 1)`` ints per distinct function, its truth tables ``2**k``
#: bits).  Networks above it run the reference Algorithm 1.
SG_MAX_K = 8

#: Decision scoring per strategy (``SCORE_*`` in ``_simgencore.c``).
_SCORE = {
    DecisionStrategy.RANDOM: 0,
    DecisionStrategy.DC: 1,
    DecisionStrategy.DC_MFFC: 2,
}

#: Attempt statuses and target flags of the core's log (keep in sync with
#: ``_simgencore.c``): a record is ``status, targets, implications,
#: decisions, conflicts`` and then ``slot, flags`` per target.
_SKIPPED, _COMMITTED = 0, 2
_CLAIMED, _SURVIVED = 2, 4
_REC_HEAD = 5

#: ``sg_generate``'s counts: the core's ``C_*`` counters, then the length
#: of the attempt log at this index.
_LOG_LEN = 10

_INT32_MAX = (1 << 31) - 1

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_simgencore.c")


def _configure(lib: ctypes.CDLL) -> None:
    """Set argument/return types on the loaded core."""
    i32, i64, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
    address = ctypes.c_void_p
    handle = ctypes.c_void_p
    lib.sg_load.argtypes = [
        i32, address, address, address, address, address, address,
        address, i32, address, address, address, i32,
        address, i32, address, i32, f64, f64, address, i32, i32, i32, i64,
    ]
    lib.sg_load.restype = handle
    lib.sg_free.argtypes = [handle]
    lib.sg_free.restype = None
    lib.sg_mffc_depths.argtypes = [i32] + [address] * 7
    lib.sg_mffc_depths.restype = ctypes.c_int
    lib.sg_generate.argtypes = [
        handle, address, address, i32, i32, address, address, address,
        address, i64, address,
    ]
    lib.sg_generate.restype = i32


_LOADER = CoreLoader(
    source_path=_SOURCE_PATH,
    cache_name="simgencore",
    configure=_configure,
    describe="compiled SimGen core",
    fallback="the reference SimGen engines (identical results, about 10x "
    "slower generation)",
)

_LIB = _LOADER.load()

#: "c" when the compiled SimGen core is active, "python" otherwise.
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


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


@lru_cache(maxsize=16384)
def _row_words(table: TruthTable) -> bytes:
    """A function's :func:`~repro.logic.cubes.packed_rows` as ``sg_load``
    reads them: ``(mask, values, output)`` int32 triples."""
    return array("i", chain.from_iterable(packed_rows(table))).tobytes()


def _simgen_rows(lowering: Lowering) -> tuple[array, array, array, array]:
    """The lowering's ``"simgen"`` section: per function id its arity and
    the index of its first row (one more entry: the row count), the rows
    as ``(mask, values, output)`` triples, and every slot's node id."""
    arity = array("i", [table.num_vars for table in lowering.tables])
    row_off, rows = lowering.per_function(_row_words, item=3)
    return arity, row_off, rows, array("i", lowering.uids)


def mffc_depths(lowering: Lowering) -> array:
    """Equation 2 for every slot of a lowering, in one C call: the
    ``"mffc"`` section, equal bit for bit to
    :func:`~repro.network.cones.mffc_depth` of each slot's node."""
    if _LIB is None:
        raise GenerationError("MFFC depths in one pass need the SimGen core")
    n = lowering.num_nodes
    depth = array("d", bytes(8 * max(1, n)))
    if _LIB.sg_mffc_depths(
        n,
        _address(lowering.kinds),
        _address(lowering.fanin_off),
        _address(lowering.fanins),
        _address(lowering.fanout_off),
        _address(lowering.fanouts),
        _address(lowering.levels),
        _address(depth),
    ):
        raise MemoryError("MFFC depth allocation failed")
    return depth


class _SgCore:
    """A network's lowering loaded into a ``_simgencore`` instance by
    ``sg_load``.

    The slots, kinds, levels, fanins and fanouts are the lowering's own
    buffers (the core's examiner rows are a slot, then its fanouts); the
    rows and MFFC depths are its ``"simgen"`` and ``"mffc"`` sections,
    built by the first core of a lowering and shared by every later one.  Each core keeps its own assignment state and transition
    tables.  :attr:`stats` is published as ``simgen.kernel.*``.
    """

    __slots__ = ("_lib", "_handle", "uids", "pis", "policy", "stats")

    def __init__(
        self,
        lib: ctypes.CDLL,
        network: Network,
        implication: ImplicationEngine,
        decision: DecisionEngine,
        max_targets: Optional[int],
        level_outgold: bool,
    ):
        self._lib = lib
        self._handle = None
        lowering = network.lowering()
        if lowering.max_arity > SG_MAX_K:
            raise GenerationError(
                f"gate arity {lowering.max_arity} exceeds the core's {SG_MAX_K}"
            )
        arity, row_off, rows, uid_of = lowering.section("simgen", _simgen_rows)
        depth = None
        if decision.strategy is DecisionStrategy.DC_MFFC:
            depth = lowering.section("mffc", mffc_depths)
        #: The policy ``sg_load`` got: cap, sample size, set threshold.
        self.policy = _target_policy(max_targets)
        #: Slot -> uid (topological order).
        self.uids = lowering.uids
        #: The network's PIs, in the order of a kept vector's bits.
        self.pis = lowering.pis
        handle = lib.sg_load(
            lowering.num_nodes,
            _address(lowering.kinds),
            _address(lowering.levels),
            _address(lowering.funcs),
            _address(lowering.fanin_off),
            _address(lowering.fanins),
            _address(lowering.fanout_off),
            _address(lowering.fanouts),
            len(arity),
            _address(arity),
            _address(row_off),
            _address(rows),
            int(implication.strategy is ImplicationStrategy.ADVANCED),
            _address(lowering.pi_slots),
            len(self.pis),
            _address(uid_of),
            _SCORE[decision.strategy],
            float(decision.alpha),
            float(decision.beta),
            None if depth is None else _address(depth),
            int(level_outgold),
            *self.policy,
        )
        if not handle:
            raise GenerationError("simgen core rejected the lowering")
        self._handle = handle
        count_tables(
            hits=lowering.num_gates - len(arity), misses=len(arity)
        )
        #: Published as ``simgen.kernel.*``.
        self.stats = {
            "compiled_nodes": lowering.num_nodes,
            "transition_tables": len(arity),
            "reverted_assignments": 0,
            "attempts": 0,
            "simulated": 0,
        }

    def __del__(self):  # pragma: no cover - interpreter teardown order
        handle = getattr(self, "_handle", None)
        lib = getattr(self, "_lib", None)
        if handle and lib is not None:
            try:
                lib.sg_free(handle)
            except (OSError, AttributeError, TypeError):
                pass

    def generate(
        self,
        splittable: list[Sequence[int]],
        vpi: int,
        rotation: int,
        state: array,
    ) -> tuple[int, list[InputVector], array, array]:
        """One ``sg_generate`` call over the splittable classes.

        ``state`` is the generator's MT state (``Random.getstate()[1]``),
        advanced in place.  Returns the new rotation, the kept vectors,
        the attempt log and the call's counters.
        """
        n_classes = len(splittable)
        offsets = array("i", [0])
        offsets.extend(accumulate(map(len, splittable)))
        members = array("i", chain.from_iterable(splittable))
        cap, sample_k, _ = self.policy
        largest = len(splittable[0])
        most = largest if largest <= cap else sample_k
        log_cap = max(vpi * 4, n_classes) * (_REC_HEAD + 2 * most)
        log = array("q", bytes(8 * log_cap))
        pis = self.pis
        width = len(pis)
        bits = array("B", bytes(max(1, vpi * width)))
        counts = array("q", bytes(8 * (_LOG_LEN + 1)))
        rotation_buf = array("q", [rotation])
        kept = self._lib.sg_generate(
            self._handle, _address(members), _address(offsets), n_classes,
            vpi, _address(rotation_buf), _address(state), _address(bits),
            _address(log), log_cap, _address(counts),
        )
        if kept < 0:
            raise GenerationError("simgen core rejected a generate() call")
        del log[counts[_LOG_LEN]:]
        vectors = [
            InputVector(dict(zip(pis, bits[i * width : (i + 1) * width])))
            for i in range(kept)
        ]
        return rotation_buf[0], vectors, log, counts


class BatchSimGenGenerator(SimGenGenerator):
    """SimGen whose whole ``generate()`` loop runs in a C core.

    A drop-in for :class:`SimGenGenerator`: same constructor, same RNG
    order, bit-identical vectors, reports and implication/decision stats —
    the differential suite in ``tests/core/test_batch_kernel.py`` enforces
    it.  :attr:`kernel` is the lowered C core, or ``None`` when the core
    cannot run; every call then takes the inherited reference path.
    """

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
        self.kernel: Optional[_SgCore] = None
        # The core computes the builtin outgold strategies itself; any
        # other callable runs on the reference path.
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
            except GenerationError:
                pass  # e.g. a gate wider than SG_MAX_K: the reference path runs

    # ------------------------------------------------------------------
    # Reports: decoded from the core's attempt logs when read
    # ------------------------------------------------------------------
    @property
    def reports(self) -> list[GenerationReport]:
        """One report per attempt, in attempt order."""
        if self._undecoded:
            self._decode()
        return self._reports

    @reports.setter
    def reports(self, reports: list[GenerationReport]) -> None:
        self._reports = reports
        #: ``(log, kept vectors)`` per core call, not yet decoded.
        self._undecoded: list[tuple[array, list[InputVector]]] = []

    def _decode(self) -> None:
        uids = self.kernel.uids
        append = self._reports.append
        for log, vectors in self._undecoded:
            kept = iter(vectors)
            at, end = 0, len(log)
            while at < end:
                status, count, implications, decisions, conflicts = log[
                    at : at + _REC_HEAD
                ]
                at += _REC_HEAD
                pairs = log[at : at + 2 * count]
                at += 2 * count
                bit = _CLAIMED if status == _SKIPPED else _SURVIVED
                append(
                    GenerationReport(
                        vector=next(kept) if status == _COMMITTED else None,
                        survivors=[
                            uids[slot]
                            for slot, flags in zip(pairs[::2], pairs[1::2])
                            if flags & bit
                        ],
                        skipped=status != _COMMITTED,
                        implications=implications,
                        decisions=decisions,
                        conflicts=conflicts,
                    )
                )
        self._undecoded = []

    # ------------------------------------------------------------------
    # generate(): one core call
    # ------------------------------------------------------------------
    def generate(self, classes: Sequence[Sequence[int]]) -> list[InputVector]:
        core = self.kernel
        if core is None:
            return super().generate(classes)
        splittable = [c for c in classes if len(c) >= 2]
        splittable.sort(key=len, reverse=True)
        if not splittable:
            return []
        version, internal, gauss_next = self.rng.getstate()
        state = array("I", internal)
        self._rotation, vectors, log, counts = core.generate(
            splittable, self.vectors_per_iteration, self._rotation, state
        )
        self.rng.setstate((version, tuple(state), gauss_next))
        self._undecoded.append((log, vectors))
        self._fold(counts)
        return vectors

    def _fold(self, counts: array) -> None:
        """Fold one call's core counters into the published stats dicts.

        ``simgen.implication.*`` and ``simgen.decision.*`` stay
        backend-invariant: the C core counts exactly what the reference
        engines count.
        """
        impl = self.implication.stats
        impl["propagate_calls"] += counts[0]
        impl["examinations"] += counts[1]
        impl["forced_assignments"] += counts[2]
        impl["conflicts"] += counts[3]
        dec = self.decision.stats
        dec["decisions"] += counts[4]
        dec["conflicts"] += counts[5]
        dec["rows_committed"] += counts[6]
        kernel = self.kernel.stats
        kernel["reverted_assignments"] += counts[7]
        kernel["attempts"] += counts[8]
        kernel["simulated"] += counts[9]
