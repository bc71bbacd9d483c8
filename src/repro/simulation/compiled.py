"""Compiled bit-parallel simulation: the network lowered once, run in C.

:class:`~repro.simulation.simulator.Simulator` walks a uid-keyed dict and
re-derives each node's evaluation plan (an ``lru_cache`` hit on the truth
table) on every batch.  :class:`CompiledSimulator` lowers the network once
instead, into the flat ``int32`` arrays that ``_simcore.c`` reads:

* nodes get **dense slots** in topological order; each slot holds its kind
  (PI, FALSE, TRUE or GATE), its fanins as slots and its plan offset;
* a **plan** is :func:`~repro.simulation.simulator._eval_plan`'s cover of a
  gate function — the complement flag, then one ``(mask, values)`` pair
  per cube — stored once per distinct function.

:meth:`CompiledSimulator.run_words` writes the PI words into a ``uint64``
buffer, runs the whole tape in one C call over ⌈width/64⌉ words and reads
the values back.

With ``targets=`` the simulator runs only the union of the targets' fanin
cones: the core computes that cone as an **index list** over the same
lowering.  Only the cone's PIs are then required in ``run_words`` and only
cone nodes appear in the result.  :meth:`CompiledSimulator.restrict` makes
such a view of an existing simulator without lowering again, so the sweep
engine restricts its counterexample resimulation at every flush for the
price of one backward pass.

Without the core (no C compiler, or ``REPRO_CCORES=python``; see
:mod:`repro.runtime.cbuild`) this class cannot be built, and the sweep
engine simulates on the reference :class:`Simulator` instead: the values are
identical, only speed differs.  :data:`SIM_CORE` says which path this
process runs.

Results are bit-identical to :class:`Simulator` on every simulated node
(``tests/simulation/test_compiled.py`` and ``test_cross_backend.py``).  The
network must not be mutated after lowering, the same implicit contract as
``Simulator``'s cached topological order.
"""

from __future__ import annotations

import ctypes
import os
import threading
from array import array
from operator import itemgetter
from typing import Iterable, Mapping, Optional

from repro.errors import SimulationError
from repro.network.network import Network
from repro.runtime.cbuild import CoreLoader
from repro.simulation.bitvec import width_mask
from repro.simulation.patterns import PatternBatch
from repro.simulation.simulator import _eval_plan

_SOURCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_simcore.c")

#: Node kinds of a lowered record (``NODE_*`` in ``_simcore.c``).
NODE_PI, NODE_FALSE, NODE_TRUE, NODE_GATE = 0, 1, 2, 3

def _configure(lib: ctypes.CDLL) -> None:
    """Set argument/return types on the loaded core."""
    i32 = ctypes.c_int32
    handle = ctypes.c_void_p
    address = ctypes.c_void_p
    lib.sim_new.argtypes = [i32, address, address, i32, address, i32]
    lib.sim_new.restype = handle
    lib.sim_free.argtypes = [handle]
    lib.sim_free.restype = None
    lib.sim_restrict.argtypes = [handle, address, i32, address, address, address]
    lib.sim_restrict.restype = i32
    lib.sim_run.argtypes = [
        handle, address, i32, ctypes.c_uint64, address, i32, address,
    ]
    lib.sim_run.restype = ctypes.c_int


_LOADER = CoreLoader(
    source_path=_SOURCE_PATH,
    cache_name="simcore",
    configure=_configure,
    describe="compiled simulator core",
    fallback="the reference simulator (identical values, slower)",
)

_LIB = _LOADER.load()

#: "c" when ``_simcore.c`` compiled and loaded, "python" otherwise.
SIM_CORE = "c" if _LIB is not None else "python"

_COUNT_LOCK = threading.Lock()
_LOWERINGS = 0
_VIEWS = 0


def tape_cache_info() -> dict:
    """Lifetime counts: simulators built by :meth:`CompiledSimulator.restrict`,
    which reuse a lowering (``hits``), and lowerings (``misses``).

    Nothing is cached process-wide any more.  The benchmark harness
    (``bench/run.py``) still reads these two counters for its
    ``simulation.tape_hit_rate``, which now reads as the share of
    simulators built without lowering.
    """
    with _COUNT_LOCK:
        return {"hits": _VIEWS, "misses": _LOWERINGS}


def _count(lowered: bool) -> None:
    global _LOWERINGS, _VIEWS
    with _COUNT_LOCK:
        if lowered:
            _LOWERINGS += 1
        else:
            _VIEWS += 1


def _pick(items, indexes) -> tuple:
    """``tuple(items[i] for i in indexes)`` at C speed."""
    if not indexes:
        return ()
    if len(indexes) == 1:
        return (items[indexes[0]],)
    return itemgetter(*indexes)(items)


class _Lowering:
    """One network lowered for the core; shared by a simulator and its views."""

    def __init__(self, network: Network):
        if _LIB is None:
            raise SimulationError(
                "the compiled simulator needs its C core; without it "
                "(SIM_CORE == 'python') simulate with Simulator"
            )
        order = network.topological_order()
        #: slot -> node id (the topological order).
        self.uids: tuple[int, ...] = tuple(order)
        #: node id -> slot.
        self.slot_of = slot_of = {uid: slot for slot, uid in enumerate(order)}
        offsets = array("i")
        records = array("i")
        plans = array("i")
        plan_at: dict = {}
        pi_slots: list[int] = []
        gates = 0
        for slot, uid in enumerate(order):
            node = network.node(uid)
            offsets.append(len(records))
            fanins = node.fanins
            if node.is_pi:
                records.extend((NODE_PI, -1, 0))
                pi_slots.append(slot)
            elif not fanins:
                records.extend((NODE_TRUE if node.table.bits else NODE_FALSE, -1, 0))
            else:
                table = node.table
                at = plan_at.get(table)
                if at is None:
                    at = plan_at[table] = len(plans)
                    complement, cubes = _eval_plan(table)
                    plans.extend((int(complement), len(cubes)))
                    for cube in cubes:
                        plans.extend(cube)
                records.extend((NODE_GATE, at, len(fanins)))
                records.extend([slot_of[f] for f in fanins])
                gates += 1
        #: PI slots, and their node ids, in topological order.
        self.pi_slots = tuple(pi_slots)
        self.pis = _pick(self.uids, self.pi_slots)
        self.num_gates = gates
        handle = _LIB.sim_new(
            len(order),
            offsets.buffer_info()[0],
            records.buffer_info()[0],
            len(records),
            plans.buffer_info()[0],
            len(plans),
        )
        if not handle:
            raise SimulationError("simulator core rejected the lowering")
        self.lib = _LIB
        self.handle = handle

    def __del__(self) -> None:
        handle = getattr(self, "handle", None)
        if handle:
            self.lib.sim_free(handle)
            self.handle = None

    def cone(self, roots: list[int]) -> tuple[array, tuple[int, ...], int]:
        """The core's cone of ``roots``: (active slots, PI slots, gates)."""
        slot_of = self.slot_of
        targets = array("i", [slot_of[uid] for uid in roots])
        active = array("i", bytes(4 * max(1, len(self.uids))))
        pis = array("i", bytes(4 * max(1, len(self.pi_slots))))
        counts = array("i", (0, 0, 0))
        got = self.lib.sim_restrict(
            self.handle,
            targets.buffer_info()[0],
            len(targets),
            active.buffer_info()[0],
            pis.buffer_info()[0],
            counts.buffer_info()[0],
        )
        if got < 0:
            raise SimulationError("simulator core could not restrict the tape")
        del active[got:]
        return active, tuple(pis[: counts[1]]), counts[2]


class CompiledSimulator:
    """Simulates a fixed network on the ``_simcore.c`` tape.

    Args:
        network: The network to lower.
        targets: Optional node ids; when given, only the union of their
            fanin cones is simulated (and returned).
    """

    def __init__(
        self,
        network: Network,
        targets: Optional[Iterable[int]] = None,
        *,
        _base: Optional["CompiledSimulator"] = None,
    ):
        self.network = network
        if _base is None:
            lowering = _Lowering(network)
            #: Work counters for the metrics registry (published as
            #: ``sim.*``); shared with every view :meth:`restrict` makes.
            self.stats = {"batches": 0, "patterns": 0, "node_evals": 0}
        else:
            lowering = _base._lowering
            self.stats = _base.stats
        _count(_base is None)
        self._lowering = lowering
        self._values = None  # uint64 value buffer, grown on demand
        self._out = None  # a view's values, gathered in its order
        self._active = None  # a view's slots in the core
        pi_slots = lowering.pi_slots
        if targets is None:
            self._uids = lowering.uids
            self._pis = lowering.pis
            self._num_gate_ops = lowering.num_gates
        else:
            roots = sorted(set(targets))
            for uid in roots:
                network.node(uid)  # existence check
            active, pi_slots, gates = lowering.cone(roots)
            self._active = active
            self._uids = _pick(lowering.uids, active)
            self._pis = _pick(lowering.uids, pi_slots)
            self._num_gate_ops = gates
        self._pi_pairs = tuple(zip(self._pis, pi_slots))

    def restrict(self, targets: Iterable[int]) -> "CompiledSimulator":
        """A simulator of ``targets``' fanin cones over this one's lowering.

        The view shares this simulator's lowering and its :attr:`stats`;
        it never lowers the network again.
        """
        return type(self)(self.network, targets, _base=self)

    # ------------------------------------------------------------------
    # Introspection (benchmarks and tests)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Simulated nodes (PIs + constants + gates)."""
        return len(self._uids)

    @property
    def num_gate_ops(self) -> int:
        """Gate evaluations executed per batch word."""
        return self._num_gate_ops

    @property
    def compiled_pis(self) -> tuple[int, ...]:
        """PIs the tape reads (the cone PIs when ``targets`` was given)."""
        return self._pis

    # ------------------------------------------------------------------
    # Simulation API (mirrors Simulator)
    # ------------------------------------------------------------------
    def run_words(
        self, pi_words: Mapping[int, int], width: int
    ) -> dict[int, int]:
        """Simulate packed PI words; returns node id -> packed output word.

        Every simulated PI must be present in ``pi_words`` (all network PIs
        without ``targets``; only the cone PIs with them).  Extra entries
        are ignored.  Only simulated nodes appear in the result.
        """
        if width < 0:
            raise SimulationError("width must be >= 0")
        words = max(1, (width + 63) // 64)
        self.stats["batches"] += 1
        self.stats["patterns"] += width
        self.stats["node_evals"] += self._num_gate_ops * words
        lowering = self._lowering
        mask = width_mask(width)
        n = len(lowering.uids)
        values = self._values
        if values is None or len(values) < n * words:
            values = self._values = (ctypes.c_uint64 * max(1, n * words))()
        active = self._active
        if active is None:
            out = values
            active_at = n_active = 0
        else:
            n_active = len(active)
            out = self._out
            if out is None or len(out) < n_active * words:
                out = self._out = (ctypes.c_uint64 * max(1, n_active * words))()
            active_at = active.buffer_info()[0]
        try:
            if words == 1:
                for pi, slot in self._pi_pairs:
                    values[slot] = pi_words[pi]
            else:
                size = 8 * words
                raw = memoryview(values).cast("B")
                for pi, slot in self._pi_pairs:
                    at = slot * size
                    raw[at : at + size] = (pi_words[pi] & mask).to_bytes(
                        size, "little"
                    )
        except KeyError as exc:
            raise SimulationError(f"missing word for PI {exc.args[0]}") from exc
        lowering.lib.sim_run(
            lowering.handle,
            ctypes.addressof(values),
            words,
            mask >> (64 * (words - 1)),  # the last word's mask
            active_at or None,
            n_active,
            ctypes.addressof(out),
        )
        uids = self._uids
        if words == 1:
            return dict(zip(uids, out[: len(uids)]))
        raw = memoryview(out).cast("B")
        size = 8 * words
        from_bytes = int.from_bytes
        return {
            uid: from_bytes(raw[j * size : (j + 1) * size], "little")
            for j, uid in enumerate(uids)
        }

    def run_batch(self, batch: PatternBatch) -> dict[int, int]:
        """Simulate a :class:`PatternBatch`."""
        return self.run_words(batch.words(), batch.width)

    def run_vector(self, values: Mapping[int, int]) -> dict[int, int]:
        """Simulate a single total input vector; returns node id -> 0/1."""
        return self.run_words(values, 1)

    def output_words(self, node_values: Mapping[int, int]) -> dict[str, int]:
        """Extract PO name -> packed word from a simulation result."""
        return {name: node_values[uid] for name, uid in self.network.pos}
