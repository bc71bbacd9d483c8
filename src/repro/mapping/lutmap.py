"""Depth-oriented K-LUT technology mapping (the paper's ``if -K 6``).

Standard two-pass FPGA mapping: enumerate priority cuts, pick per node the
*best* cut (minimum mapped depth, ties broken by estimated area), then
cover the network from the POs — every chosen cut becomes one LUT whose
truth table is the cut-cone function.  The result is a fresh network whose
gates are K-input LUTs, which is what the sweeping experiments operate on
(paper §6.1).

For ``k`` up to 6 the first pass and the cut functions run in the C core
of :mod:`repro.mapping.compiled`; the Python path below is the reference
it reproduces, and runs where the core does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import MappingError
from repro.logic.truthtable import MAX_VARS
from repro.mapping import compiled
from repro.mapping.cuts import Cut, cut_function, enumerate_cuts
from repro.network.network import Network


@dataclass(slots=True)
class MappingStats:
    """Summary of one mapping run."""

    luts: int
    depth: int
    k: int


def reference_luts(
    network: Network, k: int, cut_limit: int
) -> Callable[[int], compiled.Lut]:
    """Every gate's LUT on the Python path, as ``uid -> (table, inputs)``.

    Best cuts are chosen here, for every gate; a LUT's function is
    computed when it is asked for.
    """
    cuts = enumerate_cuts(network, k, cut_limit)
    best: dict[int, Cut] = {}
    depth: dict[int, int] = {}
    area_flow: dict[int, float] = {}

    for uid in network.topological_order():
        node = network.node(uid)
        if node.is_pi or node.is_const:
            depth[uid] = 0
            area_flow[uid] = 0.0
            continue
        best_cut = None
        best_key = None
        for cut in cuts[uid]:
            if cut.is_trivial():
                continue
            cut_depth = 1 + max(depth[l] for l in cut.leaves)
            flow = 1.0 + sum(area_flow[l] for l in cut.leaves)
            key = (cut_depth, flow, cut.size)
            if best_key is None or key < best_key:
                best_key = key
                best_cut = cut
        if best_cut is None:
            raise MappingError(f"node {uid} has no non-trivial K-feasible cut")
        best[uid] = best_cut
        depth[uid] = best_key[0]
        fanout = max(1, network.num_fanouts(uid))
        area_flow[uid] = best_key[1] / fanout

    def lut(uid: int) -> compiled.Lut:
        cut = best[uid]
        # Shrink to true support: mapping can yield degenerate cut inputs.
        table, support = cut_function(network, cut).shrink_to_support()
        return table, [cut.leaves[i] for i in support]

    return lut


def map_to_luts(
    network: Network,
    k: int = 6,
    cut_limit: int = 8,
    name: Optional[str] = None,
) -> tuple[Network, MappingStats]:
    """Map a gate network to a K-LUT network.

    Returns the LUT network (PIs/POs preserved by name and position) and
    mapping statistics.  Constants are copied through unmapped.  Gates wider
    than ``k`` are Shannon-decomposed first (a gate must fit inside a cut).
    ``k`` outside ``[1, 16]`` raises :class:`MappingError` before any work:
    a LUT's truth table has at most 16 inputs.
    """
    if not 1 <= k <= MAX_VARS:
        raise MappingError(f"k must be in [1, {MAX_VARS}], got {k}")
    if cut_limit < 1:
        raise MappingError(f"cut_limit must be >= 1, got {cut_limit}")
    if any(
        node.num_fanins > k for node in network.gates()
    ):
        from repro.transforms.decompose import decompose_to_arity

        network = decompose_to_arity(network, max(2, k), name=network.name)
    lut_of = compiled.best_luts(network, k, cut_limit) or reference_luts(
        network, k, cut_limit
    )

    # Cover from the POs.
    mapped = Network(name or f"{network.name}_lut{k}")
    new_id: dict[int, int] = {}
    for pi in network.pis:
        new_id[pi] = mapped.add_pi(network.node(pi).name)

    #: uid -> its LUT's (table, inputs), read once: the covering stack
    #: revisits a node whose leaves were missing.
    functions: dict[int, compiled.Lut] = {}

    def realize_one(uid: int) -> Optional[list[int]]:
        """Create the LUT for ``uid`` if its leaves exist; else return them."""
        node = network.node(uid)
        if node.is_const:
            new_id[uid] = mapped.add_const(bool(node.table.bits), node.name)
            return None
        function = functions.get(uid)
        if function is None:
            function = functions[uid] = lut_of(uid)
        table, leaves = function
        if not leaves:
            new_id[uid] = mapped.add_const(bool(table.bits), node.name)
            return None
        missing = [leaf for leaf in leaves if leaf not in new_id]
        if missing:
            return missing
        fanins = [new_id[leaf] for leaf in leaves]
        new_id[uid] = mapped.add_gate(table, fanins, node.name)
        return None

    # Iterative covering (deep stacked networks exceed recursion limits).
    for po_name, uid in network.pos:
        stack = [uid]
        while stack:
            top = stack[-1]
            if top in new_id:
                stack.pop()
                continue
            missing = realize_one(top)
            if missing is None:
                stack.pop()
            else:
                stack.extend(missing)
        mapped.add_po(new_id[uid], po_name)

    stats = MappingStats(luts=mapped.num_gates, depth=mapped.depth(), k=k)
    return mapped, stats
