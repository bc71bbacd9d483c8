"""Structural hashing and constant/buffer cleanup.

``strash`` rebuilds a network merging gates with identical (function,
fanins) pairs, propagating constants, shrinking tables to their true
support, and collapsing buffers — the light-weight normalization ABC
applies implicitly.  Running it after rewrites keeps networks tidy without
erasing the *functional* redundancies sweeping is supposed to find (merged
nodes are bit-identical structure, which no simulation is needed to spot).
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.logic.truthtable import TruthTable
from repro.network.network import Network


def _digest(*parts) -> int:
    hasher = hashlib.blake2b(digest_size=8)
    for part in parts:
        hasher.update(str(part).encode("ascii"))
        hasher.update(b"|")
    return int.from_bytes(hasher.digest(), "big")


def node_signatures(network: Network) -> dict[int, int]:
    """Structural signature (stable 64-bit hash) of every node.

    The signature is a pure function of the node's *structure*: PIs hash
    their interface position, gates hash ``(num_vars, table bits, fanin
    signatures)`` — the same key :func:`strash` merges on, so structural
    twins share a signature while uids (which depend on construction
    order) do not leak in.  This is what makes signatures usable as
    **durable pair keys**: a verdict journal keyed by signatures stays
    valid across process restarts, for any worker count, and even across
    re-parses of the same netlist.
    """
    signatures: dict[int, int] = {}
    for position, pi in enumerate(network.pis):
        signatures[pi] = _digest("pi", position)
    for uid in network.topological_order():
        node = network.node(uid)
        if node.is_pi:
            continue
        signatures[uid] = _digest(
            "gate",
            node.table.num_vars,
            node.table.bits,
            *(signatures[f] for f in node.fanins),
        )
    return signatures


def network_signature(
    network: Network, signatures: Optional[dict[int, int]] = None
) -> str:
    """Structural fingerprint of a whole network (hex string).

    Hashes the PI count and the PO-ordered node signatures (with PO
    names), so two networks agree iff their interface and PO cone
    structures agree.  The verdict journal stores this in its header and
    refuses to resume against a different network.  ``signatures`` is
    the network's :func:`node_signatures` map when the caller has it.
    """
    if signatures is None:
        signatures = node_signatures(network)
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(f"pis={len(network.pis)}".encode("ascii"))
    for name, uid in network.pos:
        hasher.update(f"|{name}={signatures[uid]:016x}".encode("ascii"))
    return hasher.hexdigest()


def _identify_duplicates(
    table: TruthTable, fanins: list[int]
) -> tuple[TruthTable, list[int]]:
    """Merge truth-table variables whose drivers are the same node.

    ``f(x, x)`` becomes a single-variable function of ``x`` (the diagonal of
    the table), enabling OR(x, x) -> x style collapses downstream.
    """
    unique: list[int] = []
    position: dict[int, int] = {}
    for f in fanins:
        if f not in position:
            position[f] = len(unique)
            unique.append(f)
    if len(unique) == len(fanins):
        return table, fanins
    bits = 0
    for m in range(1 << len(unique)):
        src = 0
        for i, f in enumerate(fanins):
            if (m >> position[f]) & 1:
                src |= 1 << i
        if (table.bits >> src) & 1:
            bits |= 1 << m
    return TruthTable(len(unique), bits), unique


def strash(network: Network, name: Optional[str] = None) -> Network:
    """Structurally hashed copy of the network.

    Gates with the same truth table and the same (order-sensitive) fanin
    list are merged; constants propagate through tables; buffers collapse
    onto their drivers.  PIs and PO names/positions are preserved.
    """
    result = Network(name or f"{network.name}_strash")
    new_id: dict[int, int] = {}
    hash_table: dict[tuple, int] = {}
    const_cache: dict[bool, int] = {}

    def get_const(value: bool) -> int:
        if value not in const_cache:
            const_cache[value] = result.add_const(value)
        return const_cache[value]

    for pi in network.pis:
        new_id[pi] = result.add_pi(network.node(pi).name)

    for uid in network.topological_order():
        node = network.node(uid)
        if node.is_pi:
            continue
        if node.is_const:
            new_id[uid] = get_const(bool(node.table.bits))
            continue
        table = node.table
        fanins = [new_id[f] for f in node.fanins]
        # Substitute constant fanins into the table.
        const_positions = [
            (i, result.node(f).table.bits & 1)
            for i, f in enumerate(fanins)
            if f in result and result.node(f).is_const
        ]
        for position, value in const_positions:
            table = table.cofactor(position, value)
        table, support = table.shrink_to_support()
        fanins = [fanins[i] for i in support]
        table, fanins = _identify_duplicates(table, fanins)
        table, support = table.shrink_to_support()
        fanins = [fanins[i] for i in support]
        if table.num_vars == 0:
            new_id[uid] = get_const(bool(table.bits))
            continue
        if table.num_vars == 1 and table.bits == 0b10:  # buffer
            new_id[uid] = fanins[0]
            continue
        key = (table.num_vars, table.bits, tuple(fanins))
        if key in hash_table:
            new_id[uid] = hash_table[key]
            continue
        created = result.add_gate(table, fanins, node.name)
        hash_table[key] = created
        new_id[uid] = created

    for po_name, uid in network.pos:
        result.add_po(new_id[uid], po_name)
    result.remove_dangling()
    return result
