"""Tseitin-style encoding of Boolean networks into CNF, and miters.

Each node gets a SAT variable; a gate's relation to its fanins is encoded
from its rows (:func:`~repro.logic.cubes.packed_rows`, the onset and offset
ISOP cubes): an onset row implies the output true, an offset row implies it
false.  Because the two covers jointly contain every minterm, the clauses
define the output exactly.

The :func:`pair_miter` helper builds the equivalence-check instance the
sweeping engine solves: SAT means the two nodes differ and the model is a
counterexample input vector; UNSAT proves them equivalent.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SatError
from repro.logic.cubes import packed_rows
from repro.network.network import Network
from repro.sat.cnf import Cnf
from repro.simulation.patterns import InputVector


class TseitinEncoder:
    """Incremental encoder: network nodes -> CNF variables and clauses."""

    def __init__(self, network: Network):
        self.network = network
        self.cnf = Cnf()
        self._node_var: dict[int, int] = {}
        #: node uid -> position in the network's topological order, built
        #: lazily on the first encode (the network is immutable while an
        #: encoder serves queries).
        self._topo_index: Optional[dict[int, int]] = None

    def var_of(self, uid: int) -> Optional[int]:
        """The CNF variable of a node, if already encoded."""
        return self._node_var.get(uid)

    def encode_cone(self, root: int) -> int:
        """Encode the fanin cone of ``root``; returns the root's variable.

        Incremental: the cone walk prunes at already-encoded nodes (an
        encoded node's cone is always fully encoded), so a query touching
        mostly-known logic costs only its new frontier — not a fresh
        whole-network traversal.  New nodes are processed in global
        topological order, which keeps variable numbering and clause order
        identical to a from-scratch encoding of the same query sequence.
        """
        node_var = self._node_var
        var = node_var.get(root)
        if var is not None:
            return var
        network = self.network
        if self._topo_index is None:
            self._topo_index = {
                uid: i for i, uid in enumerate(network.topological_order())
            }
        fresh: list[int] = []
        seen: set[int] = set()
        stack = [root]
        while stack:
            uid = stack.pop()
            if uid in seen or uid in node_var:
                continue
            seen.add(uid)
            fresh.append(uid)
            stack.extend(network.node(uid).fanins)
        fresh.sort(key=self._topo_index.__getitem__)
        cnf = self.cnf
        clauses = cnf.clauses
        for uid in fresh:
            node = network.node(uid)
            var = cnf.new_var()
            node_var[uid] = var
            if node.is_pi:
                continue
            if node.is_const:
                cnf.add_clause([var if node.table.bits else -var])
                continue
            fanin_vars = [node_var[f] for f in node.fanins]
            # One clause per row: each bound fanin's variable, negated
            # where the row holds a 1, then the output's.  Appending to the
            # clause list directly is safe because every literal's variable
            # was allocated through ``cnf.new_var()`` above.
            for mask, values, output in packed_rows(node.table):
                clause = [
                    -v if (values >> i) & 1 else v
                    for i, v in enumerate(fanin_vars)
                    if (mask >> i) & 1
                ]
                clause.append(var if output else -var)
                clauses.append(tuple(clause))
        return node_var[root]

    def model_to_vector(self, model: dict[int, bool]) -> InputVector:
        """Extract PI values from a SAT model (encoded PIs only)."""
        vector = InputVector()
        for pi in self.network.pis:
            var = self._node_var.get(pi)
            if var is not None and var in model:
                vector.set(pi, int(model[var]))
        return vector


def pair_miter(
    network: Network,
    node_a: int,
    node_b: int,
    complement: bool = False,
) -> tuple[Cnf, TseitinEncoder]:
    """CNF asserting the two nodes *differ* (or agree, if ``complement``).

    With ``complement=False`` the instance is SAT iff some input makes
    ``node_a != node_b`` — i.e., UNSAT proves equivalence.  With
    ``complement=True`` it is SAT iff some input makes them *equal* — i.e.,
    UNSAT proves ``node_a == NOT node_b``.
    """
    if node_a == node_b:
        raise SatError("miter of a node with itself is trivially UNSAT")
    encoder = TseitinEncoder(network)
    var_a = encoder.encode_cone(node_a)
    var_b = encoder.encode_cone(node_b)
    if complement:
        # SAT iff equal: (a & b) | (~a & ~b)
        encoder.cnf.add_clause([var_a, -var_b])
        encoder.cnf.add_clause([-var_a, var_b])
    else:
        # SAT iff different: exactly one true.
        encoder.cnf.add_clause([var_a, var_b])
        encoder.cnf.add_clause([-var_a, -var_b])
    return encoder.cnf, encoder


def po_miter(network_a: Network, network_b: Network) -> Network:
    """Structural miter network of two circuits with matching interfaces.

    Builds one network containing both circuits over shared PIs (matched by
    position) and one PO per output pair: ``out_a XOR out_b``.  The miter is
    constant-0 iff the circuits are equivalent.
    """
    from repro.logic import gates  # local import to avoid cycles at import time

    if len(network_a.pis) != len(network_b.pis):
        raise SatError("PI count mismatch between the two networks")
    if len(network_a.pos) != len(network_b.pos):
        raise SatError("PO count mismatch between the two networks")
    miter = Network(f"miter({network_a.name},{network_b.name})")
    shared_pis = [
        miter.add_pi(network_a.node(pi).name) for pi in network_a.pis
    ]

    def copy_into(source: Network) -> dict[int, int]:
        mapping: dict[int, int] = {}
        for old_pi, new_pi in zip(source.pis, shared_pis):
            mapping[old_pi] = new_pi
        for uid in source.topological_order():
            node = source.node(uid)
            if node.is_pi:
                continue
            mapping[uid] = miter.add_gate(
                node.table, tuple(mapping[f] for f in node.fanins)
            )
        return mapping

    map_a = copy_into(network_a)
    map_b = copy_into(network_b)
    for (name_a, uid_a), (_, uid_b) in zip(network_a.pos, network_b.pos):
        xor = miter.add_gate(
            gates.xor_gate(2), (map_a[uid_a], map_b[uid_b]), f"miter_{name_a}"
        )
        miter.add_po(xor, f"miter_{name_a}")
    return miter
