"""Compiled LUT mapping: priority cuts, best cuts and cut functions in C.

:func:`~repro.mapping.lutmap.map_to_luts` spends nearly all its time in
three loops: enumerating every gate's priority cuts, picking its best cut
and composing that cut's function.  ``_mapcore.c`` runs the three in one
``map_best_cuts`` call over the network lowered to flat buffers:

* nodes get **slots** in topological order; per slot the buffers hold its
  uid, level, distinct-reader count, fanins as slots (CSR, in fanin order)
  and its truth table as one 64-bit word, and the POs' slots follow;
* the core returns the LUT of every gate that covering from the POs
  reaches: the best cut's support leaves and the table shrunk to that
  support.

The core reproduces :func:`~repro.mapping.cuts.enumerate_cuts`, the
best-cut choice of ``map_to_luts`` and ``cut_function(...)
.shrink_to_support()`` exactly, down to the area-flow sums: it repeats
whichever loop this interpreter's ``sum()`` runs over floats (CPython
compensates from 3.12 on).  So mapped netlists are byte-identical to the
Python path's (``tests/mapping/test_compiled.py``).  ``map_to_luts`` keeps
its covering walk in Python and reads each covered gate's LUT from here.

The core maps cuts of up to :data:`MAX_K` leaves (a 6-input table fills
one word).  For wider ``k``, without the core (no C compiler, or
``REPRO_CCORES=python``; see :mod:`repro.runtime.cbuild`), or when the
core refuses the buffers, :func:`best_luts` returns ``None`` and
``map_to_luts`` runs its Python path, which stays the reference.
:data:`MAP_CORE` says which path this process runs.
"""

from __future__ import annotations

import ctypes
import os
from array import array
from typing import Callable, NamedTuple, Optional

from repro.errors import MappingError
from repro.logic.truthtable import TruthTable
from repro.network.network import Network
from repro.runtime.cbuild import CoreLoader

_SOURCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_mapcore.c")

#: Widest cut the core maps (``MAX_K`` in ``_mapcore.c``).
MAX_K = 6

#: ``map_best_cuts`` results (``MAP_*`` in ``_mapcore.c``).
MAP_OK, MAP_MALFORMED, MAP_NO_CUT, MAP_NO_MEMORY = 0, -1, -2, -3

#: Whether ``sum()`` of floats is compensated in this interpreter (the
#: classic case: plain addition gives 0.0, Neumaier's loop 2.0).
COMPENSATED_SUM = sum((1.0, 1e100, 1.0, -1e100)) == 2.0

#: A gate's LUT: its table and its inputs (node ids, in table order).
Lut = tuple[TruthTable, list[int]]


class Lowering(NamedTuple):
    """A network as ``map_best_cuts`` reads it, one entry per slot (the
    topological order) except ``fanins`` (CSR, delimited by ``offsets``)
    and ``roots`` (the POs' slots, where covering starts)."""

    uids: array
    levels: array
    fanouts: array
    offsets: array
    fanins: array
    words: array
    roots: array


def _configure(lib: ctypes.CDLL) -> None:
    """Set argument/return types on the loaded core."""
    i32 = ctypes.c_int32
    address = ctypes.c_void_p
    lib.map_best_cuts.argtypes = (
        [i32] + [address] * 6 + [i32, address] + [i32] * 3 + [address] * 4
    )
    lib.map_best_cuts.restype = ctypes.c_int
    lib.map_flow_sum.argtypes = [address, i32, i32]
    lib.map_flow_sum.restype = ctypes.c_double


_LOADER = CoreLoader(
    source_path=_SOURCE_PATH,
    cache_name="mapcore",
    configure=_configure,
    describe="compiled mapping core",
    fallback="the Python mapper (identical netlists, slower)",
)

_LIB = _LOADER.load()

#: "c" when ``_mapcore.c`` compiled and loaded, "python" otherwise.
MAP_CORE = "c" if _LIB is not None else "python"


def lower(network: Network) -> tuple[list[int], dict[int, int], Lowering]:
    """The topological order (slot -> uid), its inverse and the core's
    buffers for ``network``.

    A table too wide for one word raises :class:`OverflowError`.
    """
    order = network.topological_order()
    slot_of = {uid: slot for slot, uid in enumerate(order)}
    levels = network.levels()
    offsets = array("i", [0])
    fanins = array("i")
    words = array("Q")
    for uid in order:
        node = network.node(uid)
        if node.is_pi:
            words.append(0)
        else:
            fanins.extend([slot_of[f] for f in node.fanins])
            words.append(node.table.bits)
        offsets.append(len(fanins))
    lowering = Lowering(
        uids=array("q", order),
        levels=array("i", [levels[uid] for uid in order]),
        fanouts=array("i", [network.num_fanouts(uid) for uid in order]),
        offsets=offsets,
        fanins=fanins,
        words=words,
        roots=array("i", [slot_of[uid] for _, uid in network.pos]),
    )
    return order, slot_of, lowering


def run_core(
    lowering: Lowering, k: int, cut_limit: int
) -> tuple[int, array, array, array, int]:
    """One ``map_best_cuts`` call: (result, LUT widths, LUT inputs as
    slots, LUT tables, failing slot)."""
    n = len(lowering.uids)
    # The core trusts the lengths; it checks the values.
    if not (
        len(lowering.levels) == len(lowering.fanouts) == len(lowering.words) == n
        and len(lowering.offsets) == n + 1
        and len(lowering.fanins) == lowering.offsets[n]
    ):
        raise ValueError("mapping buffers of inconsistent lengths")
    sizes = array("i", bytes(4 * max(1, n)))
    leaves = array("i", bytes(4 * MAX_K * max(1, n)))
    tables = array("Q", bytes(8 * max(1, n)))
    failed = ctypes.c_int32(-1)
    result = _LIB.map_best_cuts(
        n,
        lowering.uids.buffer_info()[0],
        lowering.levels.buffer_info()[0],
        lowering.fanouts.buffer_info()[0],
        lowering.offsets.buffer_info()[0],
        lowering.fanins.buffer_info()[0],
        lowering.words.buffer_info()[0],
        len(lowering.roots),
        lowering.roots.buffer_info()[0],
        k,
        cut_limit,
        int(COMPENSATED_SUM),
        sizes.buffer_info()[0],
        leaves.buffer_info()[0],
        tables.buffer_info()[0],
        ctypes.byref(failed),
    )
    return result, sizes, leaves, tables, failed.value


def best_luts(
    network: Network, k: int, cut_limit: int
) -> Optional[Callable[[int], Lut]]:
    """The LUT of every gate the cover from the POs reaches, from the
    core, as ``uid -> (table, inputs)``; ``None`` when the core cannot map
    this call (see the module doc).

    Raises :class:`MappingError` when a gate has no non-trivial cut, as
    the Python path does.
    """
    if _LIB is None or not 1 <= k <= MAX_K:
        return None
    try:
        order, slot_of, lowering = lower(network)
    except OverflowError:
        return None
    # No gate keeps more than 2**30 cuts, so a wider limit keeps them all.
    result, sizes, leaves, tables, failed = run_core(
        lowering, k, min(cut_limit, 1 << 30)
    )
    if result == MAP_NO_CUT:
        raise MappingError(
            f"node {order[failed]} has no non-trivial K-feasible cut"
        )
    if result != MAP_OK:
        return None

    def lut(uid: int) -> Lut:
        slot = slot_of[uid]
        size = sizes[slot]
        at = slot * MAX_K
        return (
            TruthTable(size, tables[slot]),
            [order[leaf] for leaf in leaves[at : at + size]],
        )

    return lut
