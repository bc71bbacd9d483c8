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
flat ``array`` buffers with every slot's kind, level, table, fanins and
examiners, each distinct gate function's rows once, and every slot's MFFC
depth, from which the core computes each row's Equation-4 priority.  The
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
from repro.network.network import Network
from repro.runtime.cbuild import CoreLoader
from repro.simulation.patterns import InputVector

#: Largest gate arity the C core lowers (its transition tables take
#: ``3 * 4**k`` ints per distinct function, its truth tables ``2**k`` bits).
#: Networks above it run the reference Algorithm 1.
SG_MAX_K = 8

#: Node kinds of a lowered slot (``NODE_*`` in ``_simgencore.c``).
NODE_GATE, NODE_PI, NODE_FALSE, NODE_TRUE = 0, 1, 2, 3

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
        address, i32, address, address, address, address, address, i32,
        address, i32, address, i32, f64, f64, address, i32, i32, i32, i64,
    ]
    lib.sg_load.restype = handle
    lib.sg_free.argtypes = [handle]
    lib.sg_free.restype = None
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


class _SgCore:
    """One network lowered into a ``_simgencore`` instance by ``sg_load``.

    A single pass over ``network.topological_order()`` gives every node a
    dense slot and fills flat buffers: the slot's kind, level and table,
    its fanin slots and its examiners — the node itself, then its
    fanouts, the reference worklist order.  Each distinct gate function's
    rows go in once.  The fanins, rows and examiners come from the
    implication engine, which has already lowered them per gate.
    :attr:`stats` is published as ``simgen.kernel.*``.
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
        order = network.topological_order()
        slot = {uid: s for s, uid in enumerate(order)}.__getitem__
        levels = network.levels()
        node = network.node
        gate_info = implication._gate_info
        examiners = implication._examiners
        kinds, tables = array("i"), array("i")
        fanins, fanin_off = array("i"), array("i", [0])
        exams, exam_off = array("i"), array("i", [0])
        table_at: dict = {}
        table_k, row_off = array("i"), array("i", [0])
        masks, values, outputs = array("i"), array("i"), array("i")
        for uid in order:
            exams.extend(map(slot, examiners[uid]))
            exam_off.append(len(exams))
            info = gate_info[uid]
            if info is None:  # PI or constant
                leaf = node(uid)
                kinds.append(
                    NODE_PI if leaf.is_pi
                    else NODE_TRUE if leaf.table.bits else NODE_FALSE
                )
                tables.append(-1)
            else:
                gate_fanins, rows, _ = info
                k = len(gate_fanins)
                if k > SG_MAX_K:
                    raise GenerationError(
                        f"gate arity {k} exceeds the core's {SG_MAX_K}"
                    )
                table = node(uid).table
                tid = table_at.get(table)
                if tid is None:
                    tid = table_at[table] = len(table_k)
                    table_k.append(k)
                    for mask, vals, out in rows:
                        masks.append(mask)
                        values.append(vals)
                        outputs.append(out)
                    row_off.append(len(masks))
                kinds.append(NODE_GATE)
                tables.append(tid)
                fanins.extend(map(slot, gate_fanins))
            fanin_off.append(len(fanins))
        depth = None
        if decision.strategy is DecisionStrategy.DC_MFFC:
            mffc, num_fanouts = decision._mffc, network.num_fanouts
            depth = array(
                "d",
                [mffc.depth(uid) if num_fanouts(uid) else 0.0 for uid in order],
            )
        #: The policy ``sg_load`` got: cap, sample size, set threshold.
        self.policy = _target_policy(max_targets)
        #: Slot -> uid (topological order).
        self.uids = order
        #: The network's PIs, in the order of a kept vector's bits.
        self.pis = tuple(network.pis)
        # Named, so each buffer outlives the call that reads it.
        level_of = array("i", [levels[uid] for uid in order])
        pi_slots = array("i", map(slot, self.pis))
        uid_of = array("i", order)
        handle = lib.sg_load(
            len(order),
            _address(kinds),
            _address(level_of),
            _address(tables),
            _address(fanin_off),
            _address(fanins),
            _address(exam_off),
            _address(exams),
            len(table_k),
            _address(table_k),
            _address(row_off),
            _address(masks),
            _address(values),
            _address(outputs),
            int(implication.strategy is ImplicationStrategy.ADVANCED),
            _address(pi_slots),
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
            hits=kinds.count(NODE_GATE) - len(table_k), misses=len(table_k)
        )
        #: Published as ``simgen.kernel.*``.
        self.stats = {
            "compiled_nodes": len(order),
            "transition_tables": len(table_k),
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
