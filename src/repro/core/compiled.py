"""How many gate functions the SimGen C cores were handed.

Each :class:`~repro.core.batch.BatchSimGenGenerator` loads its
network's lowering into its own core in one call, with every distinct
gate function's rows once; the rows are the lowering's, shared by every
core of that network, while each core keeps its own transition tables.
The benchmark harness (``bench/run.py``) reads these lifetime counters
for its ``core.transition_hit_rate``: the share of gates whose function
their core already had.
"""

from __future__ import annotations

import threading

_COUNT_LOCK = threading.Lock()
_HITS = 0
_MISSES = 0


def count_tables(hits: int, misses: int) -> None:
    """Record one lowering: ``misses`` distinct functions handed to the
    core, ``hits`` gates whose function it already had."""
    global _HITS, _MISSES
    with _COUNT_LOCK:
        _HITS += hits
        _MISSES += misses


def transition_cache_info() -> dict:
    """Lifetime ``hits`` and ``misses`` over every lowering so far."""
    with _COUNT_LOCK:
        return {"hits": _HITS, "misses": _MISSES}
