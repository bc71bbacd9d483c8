"""Bit-parallel circuit simulation (paper §2.3).

The simulator evaluates every node for a whole batch of input patterns at
once.  Per distinct truth table it precomputes an *evaluation plan*: the
smaller of the onset/offset ISOP covers, applied cube-by-cube with word-wide
AND/OR — typical LUT functions have only a handful of cubes, so evaluating a
node costs a few big-int operations regardless of batch width.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Optional

from repro.errors import SimulationError
from repro.logic.cubes import isop_cover
from repro.logic.truthtable import TruthTable
from repro.network.network import Network
from repro.network.traversal import cone_pis, cone_topological_order
from repro.simulation.bitvec import exhaustive_word, width_mask
from repro.simulation.patterns import PatternBatch


@lru_cache(maxsize=16384)
def _eval_plan(table: TruthTable) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """(complement?, cubes) — the cheaper of onset/offset covers.

    Each cube is ``(mask, values)`` over the table's inputs.  If
    ``complement`` is True the cubes cover the offset and the OR of their
    terms must be inverted.
    """
    onset = isop_cover(table)
    offset = isop_cover(~table)
    if len(offset) < len(onset):
        return True, tuple((c.mask, c.values) for c in offset)
    return False, tuple((c.mask, c.values) for c in onset)


def _eval_node(
    table: TruthTable, fanin_words: list[int], mask: int
) -> int:
    """Evaluate one gate over packed fanin words."""
    complement, cubes = _eval_plan(table)
    result = 0
    for cube_mask, cube_values in cubes:
        term = mask
        i = 0
        m = cube_mask
        while m:
            if m & 1:
                word = fanin_words[i]
                term &= word if (cube_values >> i) & 1 else ~word & mask
                if not term:
                    break
            m >>= 1
            i += 1
        result |= term
        if result == mask:
            break
    return (result ^ mask) if complement else result


class Simulator:
    """Simulates a fixed network for arbitrary pattern batches."""

    def __init__(self, network: Network):
        self.network = network
        self._topo = network.topological_order()
        #: Work counters for the metrics registry (published as ``sim.*``).
        self.stats = {"batches": 0, "patterns": 0, "node_evals": 0}

    def run_words(
        self, pi_words: Mapping[int, int], width: int
    ) -> dict[int, int]:
        """Simulate packed PI words; returns node id -> packed output word.

        Every PI of the network must be present in ``pi_words``.
        """
        if width < 0:
            raise SimulationError("width must be >= 0")
        self.stats["batches"] += 1
        self.stats["patterns"] += width
        self.stats["node_evals"] += len(self._topo) * max(1, (width + 63) // 64)
        mask = width_mask(width)
        values: dict[int, int] = {}
        for pi in self.network.pis:
            if pi not in pi_words:
                raise SimulationError(f"missing word for PI {pi}")
            values[pi] = pi_words[pi] & mask
        for uid in self._topo:
            node = self.network.node(uid)
            if node.is_pi:
                continue
            if node.is_const:
                values[uid] = mask if node.table.bits else 0
                continue
            fanin_words = [values[f] for f in node.fanins]
            values[uid] = _eval_node(node.table, fanin_words, mask)
        return values

    def run_batch(self, batch: PatternBatch) -> dict[int, int]:
        """Simulate a :class:`PatternBatch`."""
        return self.run_words(batch.words(), batch.width)

    def run_vector(self, values: Mapping[int, int]) -> dict[int, int]:
        """Simulate a single total input vector; returns node id -> 0/1."""
        return self.run_words(values, 1)

    def output_words(
        self, node_values: Mapping[int, int]
    ) -> dict[str, int]:
        """Extract PO name -> packed word from a simulation result."""
        return {name: node_values[uid] for name, uid in self.network.pos}


def simulate(
    network: Network, pi_words: Mapping[int, int], width: int
) -> dict[int, int]:
    """One-shot simulation convenience wrapper."""
    return Simulator(network).run_words(pi_words, width)


def cone_function(
    network: Network,
    root: int,
    support: Optional[Iterable[int]] = None,
    max_support: int = 16,
) -> tuple[TruthTable, list[int]]:
    """The global function of ``root`` over its cone PIs, by exhaustive sim.

    Returns ``(table, support_pis)`` where table variable ``i`` is
    ``support_pis[i]``.  Raises :class:`SimulationError` if the support
    exceeds ``max_support`` (exhaustive simulation is exponential).
    """
    support_pis = sorted(support) if support is not None else cone_pis(network, root)
    n = len(support_pis)
    if n > max_support:
        raise SimulationError(
            f"cone of node {root} has {n} PIs (> {max_support})"
        )
    width = 1 << n
    mask = width_mask(width)
    values: dict[int, int] = {}
    pi_index = {pi: i for i, pi in enumerate(support_pis)}
    for pi in network.pis:
        if pi in pi_index:
            values[pi] = exhaustive_word(pi_index[pi], n)
        else:
            values[pi] = 0  # outside the requested support; irrelevant to root
    for uid in cone_topological_order(network, [root]):
        node = network.node(uid)
        if node.is_pi:
            if uid not in values:
                raise SimulationError(f"PI {uid} missing from support")
            continue
        if node.is_const:
            values[uid] = mask if node.table.bits else 0
            continue
        values[uid] = _eval_node(
            node.table, [values[f] for f in node.fanins], mask
        )
    return TruthTable(n, values[root]), support_pis
