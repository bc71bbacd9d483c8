"""K-feasible cut enumeration (the foundation of LUT mapping).

A *cut* of node ``n`` is a set of nodes (leaves) such that every path from
the PIs to ``n`` crosses a leaf; a cut with at most K leaves can be
implemented as one K-input LUT.  Cuts are enumerated bottom-up: a gate's
cuts are the K-feasible unions of one cut per fanin, plus the trivial cut
``{n}``.  Per node only the ``cut_limit`` best cuts are kept (priority
cuts, after Mishchenko, Cho, Chatterjee and Brayton, ICCAD 2007), ranked
by depth (the deepest leaf's level), then size, then leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MappingError
from repro.logic.truthtable import TruthTable, compose_bits, var_mask
from repro.network.network import Network


@dataclass(frozen=True, slots=True)
class Cut:
    """A cut: its leaves (sorted node ids) and the root it cuts."""

    root: int
    leaves: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.leaves)

    def is_trivial(self) -> bool:
        """The unit cut {root}."""
        return self.leaves == (self.root,)


def enumerate_cuts(
    network: Network, k: int = 6, cut_limit: int = 8
) -> dict[int, list[Cut]]:
    """All priority cuts for every node.

    A gate's candidates are merged one fanin at a time, as frozensets of
    leaves each carrying its depth; a union is dropped as soon as it has
    more than ``k`` leaves or repeats an earlier one.  Of the rest, the
    cuts with no candidate as a strict subset are kept and ranked by
    ``(depth, size, leaves)``.  Both steps depend only on the set of
    K-feasible unions, never on the order they are formed in: a strict
    subset is smaller, so it is tested first whatever the order, and the
    ranking key is a total order.

    Args:
        k: Maximum leaves per cut (LUT input count).
        cut_limit: Non-trivial cuts retained per node.
    """
    if k < 1:
        raise MappingError(f"k must be >= 1, got {k}")
    if cut_limit < 1:
        raise MappingError(f"cut_limit must be >= 1, got {cut_limit}")
    levels = network.levels()
    cuts: dict[int, list[Cut]] = {}
    # Per node: its cuts as (leaves, depth), trivial cut included.  A
    # node's entry is dropped once its last reader has been enumerated.
    leaf_sets: dict[int, list[tuple[frozenset, int]]] = {}
    readers = {uid: network.num_fanouts(uid) for uid in network.node_ids()}
    for uid in network.topological_order():
        node = network.node(uid)
        trivial = Cut(uid, (uid,))
        unit = (frozenset(trivial.leaves), levels[uid])
        if node.is_pi or node.is_const:
            cuts[uid] = [trivial]
            if readers[uid]:
                leaf_sets[uid] = [unit]
            continue
        # A repeated fanin is merged once: a union that takes two of its
        # cuts contains the union that takes either one twice, so it is
        # never minimal.
        fanins = list(dict.fromkeys(node.fanins))
        merged: dict[frozenset, int] = dict(leaf_sets[fanins[0]])
        for f in fanins[1:]:
            grown: dict[frozenset, int] = {}
            fanin_sets = leaf_sets[f]
            for leaves, depth in merged.items():
                for other, other_depth in fanin_sets:
                    union = leaves | other
                    if len(union) <= k and union not in grown:
                        grown[union] = (
                            depth if depth >= other_depth else other_depth
                        )
            merged = grown
        kept: list[frozenset] = []
        for leaves in sorted(merged, key=len):
            for small in kept:
                if small <= leaves:
                    break
            else:
                kept.append(leaves)
        ranked = sorted(
            (merged[leaves], len(leaves), tuple(sorted(leaves)))
            for leaves in kept
        )[:cut_limit]
        cuts[uid] = [Cut(uid, leaves) for _, _, leaves in ranked] + [trivial]
        if readers[uid]:
            leaf_sets[uid] = [
                (frozenset(leaves), depth) for depth, _, leaves in ranked
            ] + [unit]
        for f in fanins:
            readers[f] -= 1
            if not readers[f]:
                del leaf_sets[f]
    return cuts


def cut_function(network: Network, cut: Cut) -> TruthTable:
    """The root's function expressed over the cut leaves.

    Table variable ``i`` corresponds to ``cut.leaves[i]``.  The cone is
    composed on plain minterm masks, in post-order on an explicit stack
    (a cone may be a chain deeper than the recursion limit); one table is
    built at the end.
    """
    n = len(cut.leaves)
    if n > 16:
        raise MappingError(f"cut with {n} leaves is too wide for a table")
    full = TruthTable.full_mask(n)
    memo: dict[int, int] = {
        leaf: var_mask(n, i) for i, leaf in enumerate(cut.leaves)
    }
    stack = [cut.root]
    while stack:
        uid = stack[-1]
        if uid in memo:
            stack.pop()
            continue
        node = network.node(uid)
        if node.is_pi:
            raise MappingError(
                f"PI {uid} inside cut cone of {cut.root} but not a leaf"
            )
        # Fanins left to right, as a recursive walk would visit them.
        missing = [fanin for fanin in node.fanins if fanin not in memo]
        if missing:
            stack.extend(reversed(missing))
            continue
        stack.pop()
        table = node.table
        if node.is_const:
            memo[uid] = full if table.bits else 0
        else:
            memo[uid] = compose_bits(
                table.bits,
                table.num_vars,
                [memo[fanin] for fanin in node.fanins],
                full,
            )
    return TruthTable(n, memo[cut.root])
