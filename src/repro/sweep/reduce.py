"""Network reduction from sweeping results (fraig-style merging).

Sweeping's purpose is simplification: once two nodes are proven equivalent,
the deeper one can be replaced by the shallower representative and its cone
dropped.  :func:`reduce_network` applies a sweep's proven equivalences to
produce the merged network — the output an ECO/synthesis flow would
consume — handling complemented equivalences by inserting an inverter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.logic import gates
from repro.network.network import Network
from repro.sweep.engine import SweepResult


@dataclass(slots=True)
class ReductionStats:
    """Outcome of a merge pass."""

    merged: int
    inverters_added: int
    gates_before: int
    gates_after: int

    @property
    def gates_removed(self) -> int:
        return self.gates_before - self.gates_after


def reduce_network(
    network: Network,
    equivalences: Iterable[tuple[int, int, bool]],
    name: Optional[str] = None,
) -> tuple[Network, ReductionStats]:
    """Merge proven-equivalent nodes; returns (reduced copy, stats).

    Args:
        network: The swept network (left unmodified).
        equivalences: ``(representative, member, complemented)`` triples,
            e.g. ``SweepResult.equivalences``.  Members are redirected onto
            their representative (through an inverter when complemented).
    """
    work = network.clone(name or f"{network.name}_reduced")
    gates_before = work.num_gates

    # Union-find so chains of equivalences resolve to one canonical node.
    parent: dict[int, tuple[int, bool]] = {}

    def find(uid: int) -> tuple[int, bool]:
        root, phase = parent.get(uid, (uid, False))
        if root == uid:
            return root, phase
        deep_root, deep_phase = find(root)
        resolved = (deep_root, phase ^ deep_phase)
        parent[uid] = resolved
        return resolved

    # The merge loop reads the swept network: the clone has its ids and
    # fanins until the loop ends, and its levels are cached when the
    # sweep lowered it (the fresh clone would rebuild them).
    level = network.level
    merged = 0
    for rep, member, complemented in equivalences:
        root_a, phase_a = find(rep)
        root_b, phase_b = find(member)
        if root_a == root_b:
            continue
        if network.node(root_a).is_pi and network.node(root_b).is_pi:
            continue  # interface nodes cannot be merged into each other
        # Keep the shallower node as the canonical representative; a PI
        # always wins (it can never be substituted away).
        swap = (level(root_b), root_b) < (level(root_a), root_a)
        if network.node(root_b).is_pi:
            swap = True
        elif network.node(root_a).is_pi:
            swap = False
        if swap:
            root_a, root_b = root_b, root_a
            phase_a, phase_b = phase_b, phase_a
        parent[root_b] = (root_a, complemented ^ phase_a ^ phase_b)
        merged += 1

    inverters = 0
    inverter_cache: dict[int, int] = {}

    def canonical(uid: int) -> int:
        nonlocal inverters
        root, phase = find(uid)
        if not phase:
            return root
        if root not in inverter_cache:
            inverter_cache[root] = work.add_gate(gates.inv(), (root,))
            inverters += 1
        return inverter_cache[root]

    for uid in list(work.node_ids()):
        if uid not in work or work.node(uid).is_pi:
            continue
        root, _ = find(uid)
        if root == uid:
            continue
        replacement = canonical(uid)
        if replacement != uid:
            work.replace_node(uid, replacement)
    work.remove_dangling()

    stats = ReductionStats(
        merged=merged,
        inverters_added=inverters,
        gates_before=gates_before,
        gates_after=work.num_gates,
    )
    return work, stats


def sweep_and_reduce(
    network: Network, result: SweepResult
) -> tuple[Network, ReductionStats]:
    """Convenience wrapper: apply a :class:`SweepResult` to its network."""
    return reduce_network(network, result.equivalences)
