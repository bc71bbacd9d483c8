"""One lowering per network: the flat form every C core reads.

The simulator core, the SAT cone encoder, the SimGen core and the mapping
core all read a network as flat ``int32`` buffers indexed by **slot**, a
node's position in ``network.topological_order()``.  :class:`Lowering`
builds those buffers in one pass, the first time something needs them, and
the network keeps it next to its cached topological order
(:meth:`Network.lowering <repro.network.network.Network.lowering>`), so
every sweep of one network reads the same lowering:

* ``uids`` and ``slot_of``: slot -> node id and back (``uid_words``: the
  node ids as ``int32`` words, for the cores that order by node id);
* ``kinds``: one node-kind numbering for all four cores, :data:`NODE_PI`,
  :data:`NODE_FALSE`, :data:`NODE_TRUE` (zero-fanin constants) and
  :data:`NODE_GATE`;
* ``fanin_off`` / ``fanins``: the fanin CSR (compressed sparse rows), a
  gate's fanin slots in table-variable order, repeats kept;
* ``fanout_off`` / ``fanouts``: the fanout CSR, a node's distinct readers
  in ``network.fanouts`` order, so a row's length is ``num_fanouts``
  (SimGen's examiner row is the node, then this row: the reference
  worklist order);
* ``levels``, ``pis`` (node ids in ``network.pis`` order) and ``pi_slots``
  (their slots, in the same order);
* ``funcs``: a gate's function id, -1 for PIs and constants, into
  ``tables``, the distinct gate functions in first-seen slot order.

A gate function has one packed form, its **rows**
(:func:`~repro.logic.cubes.packed_rows`: the ISOP cubes of its onset, then
of its offset, as ``(mask, values, output)`` triples).  :meth:`Lowering.rows`
packs every function's rows once per lowering, into one section that the
three cores which evaluate gates share: the simulator core picks each
function's cheaper cover from it (:mod:`repro.simulation.compiled`), the
cone encoder emits each row as one clause (:mod:`repro.sat.tape`) and the
SimGen core derives its transition tables from it (:mod:`repro.core.batch`).
The mapping core reads each function's truth table as one 64-bit word
instead (:mod:`repro.mapping.compiled`).

Other derived data is kept in further **sections** (:meth:`Lowering.section`):
the simulator's C handle and SimGen's MFFC depths.  A section that holds a
C handle is *native*: a pickled lowering (the network a ``spawn`` pool
worker gets) leaves its native sections behind, and whoever needs one there
builds it.

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
from functools import lru_cache
from itertools import accumulate, chain
from operator import attrgetter
from typing import Callable, TypeVar

from repro.logic.cubes import packed_rows
from repro.logic.truthtable import TruthTable

#: Node kinds of a slot, shared by ``_simcore.c``, ``_satcore.c``,
#: ``_simgencore.c`` and ``_mapcore.c``.
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
        #: Slot -> node id, as int32 words.
        self.uid_words = array("i", order)
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

    def rows(self) -> tuple[array, array, array]:
        """The rows section, built on first use: per function id its arity
        and the index of its first row (one more entry: the row count),
        and every function's :func:`~repro.logic.cubes.packed_rows` as
        ``(mask, values, output)`` int32 triples."""
        return self.section("rows", _pack_rows)

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


@lru_cache(maxsize=16384)
def _row_words(table: TruthTable) -> bytes:
    """A function's :func:`~repro.logic.cubes.packed_rows` as int32
    ``(mask, values, output)`` triples."""
    return array("i", chain.from_iterable(packed_rows(table))).tobytes()


def _pack_rows(lowering: Lowering) -> tuple[array, array, array]:
    """The rows section of ``lowering`` (see :meth:`Lowering.rows`)."""
    chunks = list(map(_row_words, lowering.tables))
    arity = array("i", [table.num_vars for table in lowering.tables])
    row_off = array("i", [0])
    # A row is three 4-byte words.
    row_off.extend(accumulate(len(chunk) // 12 for chunk in chunks))
    rows = array("i")
    rows.frombytes(b"".join(chunks))
    return arity, row_off, rows
