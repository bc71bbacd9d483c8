"""Shared per-function table cache of the SimGen C core.

The C lane core (``_simgencore.c``, driven by :mod:`repro.core.batch`)
resolves every gate's implication and decision states from a *transition
table*: the gate function's packed truth-table rows, its arity ``k``,
and whether advanced implications (Definition 4.1) apply.  LUT networks
reuse few functions, so this module keeps one :class:`_TransitionTable`
per distinct ``(rows, k, advanced)`` process-wide, with the row arrays
already in the C core's layout: lowering a network then costs one dict
probe per gate, and a generator hands each distinct function to its core
once.

The cache is LRU-bounded by :data:`TRANSITION_CACHE_CAP`; its hit, miss
and eviction counters are lifetime-monotonic (:func:`transition_cache_info`).
"""

from __future__ import annotations

import ctypes
import threading


class _TransitionTable:
    """One gate function, packed for the C core's transition table.

    ``rows`` are :func:`~repro.logic.cubes.packed_rows` triples
    ``(mask, values, output)`` in row order; ``masks``/``values``/``outputs``
    are the same rows as the ctypes arrays ``sg_add_table`` copies.  The
    C core resolves states from them lazily, exactly as
    ``ImplicationEngine._examine_state`` and
    ``DecisionEngine.candidate_rows`` would.
    """

    __slots__ = ("k", "rows", "advanced", "masks", "values", "outputs")

    def __init__(
        self,
        rows: tuple[tuple[int, int, int], ...],
        k: int,
        advanced: bool,
    ):
        self.k = k
        self.rows = rows
        self.advanced = advanced
        n_rows = len(rows)
        self.masks = (ctypes.c_int64 * n_rows)(*[r[0] for r in rows])
        self.values = (ctypes.c_int64 * n_rows)(*[r[1] for r in rows])
        self.outputs = (ctypes.c_int8 * n_rows)(*[r[2] for r in rows])


#: Shared-table cache bound (distinct ``(rows, k, advanced)`` functions).
#: LUT networks reuse few functions, so the cap is generous; long-running
#: processes sweeping many unrelated networks stay bounded regardless.
#: Eviction drops the cache's reference only — generators built earlier
#: keep theirs, so nothing live is invalidated.
TRANSITION_CACHE_CAP = 512

#: (rows, k, advanced) -> shared transition table.  ``k`` must be part of
#: the key: a gate that ignores its highest pins produces the same rows as
#: its lower-arity twin, but the packed index layout (stride ``4**k``)
#: differs.  Insertion order doubles as LRU order (hits reinsert), bounded
#: by :data:`TRANSITION_CACHE_CAP`.
_TRANSITION_CACHE: dict[
    tuple[tuple[tuple[int, int, int], ...], int, bool], _TransitionTable
] = {}

#: Guards the cache dict *and* the counters below.  The serve daemon
#: builds generators from several job threads at once; unlocked
#: read-modify-write on the counters would lose increments, and two
#: threads racing the eviction loop could each pop a survivor.  The lock
#: is taken once per gate while a network is lowered, never on the
#: per-vector hot path.
_TRANSITION_LOCK = threading.Lock()

_TRANSITION_EVICTIONS = 0
_TRANSITION_HITS = 0
_TRANSITION_MISSES = 0


def transition_table(
    rows: tuple[tuple[int, int, int], ...], k: int, advanced: bool
) -> _TransitionTable:
    """The shared transition table for one gate function (thread-safe)."""
    global _TRANSITION_EVICTIONS, _TRANSITION_HITS, _TRANSITION_MISSES
    key = (rows, k, advanced)
    with _TRANSITION_LOCK:
        table = _TRANSITION_CACHE.get(key)
        if table is None:
            _TRANSITION_MISSES += 1
            while len(_TRANSITION_CACHE) >= TRANSITION_CACHE_CAP:
                _TRANSITION_CACHE.pop(next(iter(_TRANSITION_CACHE)))
                _TRANSITION_EVICTIONS += 1
            table = _TRANSITION_CACHE[key] = _TransitionTable(
                rows, k, advanced
            )
        else:
            _TRANSITION_HITS += 1
            # LRU touch: reinsert so the hot tail survives evictions.
            del _TRANSITION_CACHE[key]
            _TRANSITION_CACHE[key] = table
        return table


def transition_cache_info() -> dict:
    """Cache occupancy and lifetime hit/miss/eviction counters.

    Read under the lock so concurrent sessions observe a conserved
    snapshot: ``hits + misses`` equals the lookups issued, and every miss
    corresponds to exactly one table construction.
    """
    with _TRANSITION_LOCK:
        return {
            "size": len(_TRANSITION_CACHE),
            "cap": TRANSITION_CACHE_CAP,
            "hits": _TRANSITION_HITS,
            "misses": _TRANSITION_MISSES,
            "evictions": _TRANSITION_EVICTIONS,
        }


def clear_transition_cache() -> None:
    """Drop every shared transition table, so the next lowering starts cold.

    The hit/miss/eviction counters are lifetime-monotonic and survive
    clears.
    """
    with _TRANSITION_LOCK:
        _TRANSITION_CACHE.clear()
