"""One lowering per network: the flat form every C core reads.

The simulator core, the SAT cone encoder and the SimGen core all read a
network as flat ``int32`` buffers indexed by **slot**, a node's position in
``network.topological_order()``.  :class:`Lowering` builds those buffers in
one pass, the first time something needs them, and the network keeps it
next to its cached topological order (:meth:`Network.lowering
<repro.network.network.Network.lowering>`), so every sweep of one network
reads the same lowering:

* ``uids`` and ``slot_of``: slot -> node id and back;
* ``kinds``: one node-kind numbering for all three cores, :data:`NODE_PI`,
  :data:`NODE_FALSE`, :data:`NODE_TRUE` (zero-fanin constants) and
  :data:`NODE_GATE`;
* ``fanin_off`` / ``fanins``: the fanin CSR (compressed sparse rows), a
  gate's fanin slots in table-variable order, repeats kept;
* ``fanout_off`` / ``fanouts``: the fanout CSR, a node's readers in
  ``network.fanouts`` order (SimGen's examiner row is the node, then this
  row: the reference worklist order);
* ``levels``, ``pis`` (node ids in ``network.pis`` order) and ``pi_slots``
  (their slots, in the same order);
* ``funcs``: a gate's function id, -1 for PIs and constants, into
  ``tables``, the distinct gate functions in first-seen slot order.

Each core keeps its own view of a lowering in a **section**
(:meth:`Lowering.section`), built from ``tables`` once per lowering: the
simulator's covers and C handle (:mod:`repro.simulation.compiled`), the
clause templates (:mod:`repro.sat.tape`), and the SimGen rows and MFFC
depths (:mod:`repro.core.batch`).  A section that holds a C handle is
*native*: a pickled lowering (the network a ``spawn`` pool worker gets)
leaves its native sections behind, and whoever needs one there builds it.

Invalidation: every mutating :class:`~repro.network.network.Network`
method drops the lowering.  A node edited in place (``node.table = ...``,
``node.fanins = ...``) bypasses those methods, so :meth:`Network.lowering
<repro.network.network.Network.lowering>` also checks, on every access,
that each slot's table and fanin tuple still equal the ones the lowering
was built from, and lowers again when one differs.  A lowering holds no
reference to its network.  Two threads that lower one network at once
each build an equal lowering, and the network keeps either.
"""

from __future__ import annotations

import threading
from array import array
from itertools import accumulate, chain
from operator import attrgetter
from typing import Callable, TypeVar

#: Node kinds of a slot, shared by ``_simcore.c``, ``_satcore.c`` and
#: ``_simgencore.c``.
NODE_PI, NODE_FALSE, NODE_TRUE, NODE_GATE = 0, 1, 2, 3

_TABLE = attrgetter("table")
_FANINS = attrgetter("fanins")

_COUNT_LOCK = threading.Lock()
_BUILT = 0
_KEPT = 0

T = TypeVar("T")


def lowering_cache_info() -> dict:
    """Lifetime counts over every network: accesses answered by a kept
    lowering (``hits``) and lowerings built (``misses``)."""
    with _COUNT_LOCK:
        return {"hits": _KEPT, "misses": _BUILT}


def count_access(built: bool) -> None:
    """Count one lowering built, or one access answered by a kept one."""
    global _BUILT, _KEPT
    with _COUNT_LOCK:
        if built:
            _BUILT += 1
        else:
            _KEPT += 1


class Lowering:
    """A network as flat slot-indexed buffers; see the module docstring.

    Build it with :meth:`Network.lowering
    <repro.network.network.Network.lowering>`, which keeps it on the
    network; the buffers are never written after construction.
    """

    def __init__(self, network):
        order = network.topological_order()
        nodes = list(map(network._nodes.__getitem__, order))
        tables = list(map(_TABLE, nodes))
        fanin_tuples = list(map(_FANINS, nodes))
        #: Slot -> node id.
        self.uids: tuple[int, ...] = tuple(order)
        #: Node id -> slot.
        self.slot_of: dict[int, int] = {uid: s for s, uid in enumerate(order)}
        to_slot = self.slot_of.__getitem__
        self.fanin_off = array("i", [0])
        self.fanin_off.extend(accumulate(map(len, fanin_tuples)))
        self.fanins = array(
            "i", map(to_slot, chain.from_iterable(fanin_tuples))
        )
        readers = list(map(network._fanouts.__getitem__, order))
        self.fanout_off = array("i", [0])
        self.fanout_off.extend(accumulate(map(len, readers)))
        self.fanouts = array("i", map(to_slot, chain.from_iterable(readers)))
        self.levels = array("i", map(network.levels().__getitem__, order))
        n = len(order)
        kinds = array("i", [NODE_GATE]) * n
        funcs = array("i", [-1]) * n
        func_of: dict = {}
        for slot, table in enumerate(tables):
            if table is None:
                kinds[slot] = NODE_PI
            elif not table.num_vars:
                kinds[slot] = NODE_TRUE if table.bits else NODE_FALSE
            else:
                func = func_of.get(table)
                if func is None:
                    func = func_of[table] = len(func_of)
                funcs[slot] = func
        self.kinds = kinds
        self.funcs = funcs
        #: The distinct gate functions, by function id.
        self.tables = tuple(func_of)
        #: Slots of kind NODE_GATE (gates with fanins).
        self.num_gates = n - funcs.count(-1)
        #: Largest gate arity (0 without gates).
        self.max_arity = max((table.num_vars for table in self.tables), default=0)
        #: PI node ids in ``network.pis`` order, and their slots.
        self.pis = network.pis
        self.pi_slots = array("i", map(to_slot, self.pis))
        # What the lowering was built from, for the in-place edit check.
        self._built_tables = tuple(tables)
        self._built_fanins = tuple(fanin_tuples)
        self._sections: dict = {}
        self._native: dict = {}
        count_access(built=True)

    @property
    def num_nodes(self) -> int:
        return len(self.uids)

    def describes(self, nodes: dict) -> bool:
        """True while ``nodes`` (a network's uid -> node map) still holds
        the tables and fanin tuples this lowering was built from."""
        if len(nodes) != len(self.uids):
            return False
        try:
            current = list(map(nodes.__getitem__, self.uids))
        except KeyError:
            return False
        return (
            tuple(map(_FANINS, current)) == self._built_fanins
            and tuple(map(_TABLE, current)) == self._built_tables
        )

    def per_function(
        self, words_of: Callable[[object], bytes], item: int = 1
    ) -> tuple[array, array]:
        """``words_of(table)`` (packed int32 words) concatenated over the
        functions, in function-id order: returns per function id the index
        of its first ``item``-word entry (one more index: the total), and
        the words."""
        chunks = list(map(words_of, self.tables))
        offsets = array("i", [0])
        offsets.extend(accumulate(len(chunk) // (4 * item) for chunk in chunks))
        words = array("i")
        words.frombytes(b"".join(chunks))
        return offsets, words

    def section(
        self, key: str, build: Callable[["Lowering"], T], native: bool = False
    ) -> T:
        """The section ``key``, built by ``build(self)`` on first use.

        ``native`` marks a section holding C handles, which a pickled
        lowering leaves behind.  Two threads may both build a section; the
        first one stored is the one every caller gets.
        """
        store = self._native if native else self._sections
        value = store.get(key)
        if value is None:
            value = store.setdefault(key, build(self))
        return value

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_native"] = {}
        return state
