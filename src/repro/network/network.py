"""The Boolean network: a DAG of single-output nodes (paper §2.1).

The network owns node storage, fanout bookkeeping, levels, and the list of
primary outputs.  Primary outputs are *references* to nodes (with optional
names), matching the paper's definition of a PO as a node whose value is
observed; several POs may reference one node.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.errors import NetworkError
from repro.logic.truthtable import TruthTable
from repro.network.lowering import Lowering, count_access
from repro.network.node import Node, NodeKind


class Network:
    """A combinational Boolean network.

    Nodes are created through :meth:`add_pi` / :meth:`add_gate` and receive
    increasing unique ids.  Fanouts and levels are maintained by the network;
    levels, the topological order and the :meth:`lowering` are computed
    lazily and invalidated by any structural mutation.
    """

    def __init__(self, name: str = "network"):
        self.name = name
        self._nodes: dict[int, Node] = {}
        self._fanouts: dict[int, list[int]] = {}
        self._pis: list[int] = []
        self._pos: list[tuple[str, int]] = []
        self._next_uid = 0
        self._levels: Optional[dict[int, int]] = None
        self._topo: Optional[list[int]] = None
        self._lowering: Optional[Lowering] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_uid(self) -> int:
        uid = self._next_uid
        self._next_uid += 1
        return uid

    def add_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input; returns its node id."""
        uid = self._new_uid()
        node = Node(uid, NodeKind.PI, name=name)
        self._nodes[uid] = node
        self._fanouts[uid] = []
        self._pis.append(uid)
        self._invalidate()
        return uid

    def add_gate(
        self,
        table: TruthTable,
        fanins: Iterable[int],
        name: Optional[str] = None,
    ) -> int:
        """Create a gate with the given function and fanins; returns its id."""
        fanin_tuple = tuple(fanins)
        for f in fanin_tuple:
            if f not in self._nodes:
                raise NetworkError(f"fanin {f} does not exist")
        uid = self._new_uid()
        node = Node(uid, NodeKind.GATE, fanin_tuple, table, name)
        self._nodes[uid] = node
        self._fanouts[uid] = []
        for f in set(fanin_tuple):
            self._fanouts[f].append(uid)
        self._invalidate()
        return uid

    def add_const(self, value: bool, name: Optional[str] = None) -> int:
        """Create a zero-fanin constant gate."""
        return self.add_gate(TruthTable.const(0, value), (), name)

    def add_po(self, node_uid: int, name: Optional[str] = None) -> None:
        """Mark a node as (one of the) primary outputs."""
        if node_uid not in self._nodes:
            raise NetworkError(f"PO target {node_uid} does not exist")
        if name is None:
            name = f"po{len(self._pos)}"
        self._pos.append((name, node_uid))
        self._invalidate()

    def _invalidate(self) -> None:
        self._levels = None
        self._topo = None
        self._lowering = None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, uid: int) -> Node:
        """The node with the given id."""
        try:
            return self._nodes[uid]
        except KeyError as exc:
            raise NetworkError(f"no node with id {uid}") from exc

    def __contains__(self, uid: int) -> bool:
        return uid in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def num_nodes(self) -> int:
        """Total node count (PIs + gates)."""
        return len(self._nodes)

    @property
    def num_gates(self) -> int:
        """Gate/LUT count (excludes PIs)."""
        return sum(1 for n in self._nodes.values() if n.is_gate)

    @property
    def pis(self) -> tuple[int, ...]:
        """Primary input ids in creation order."""
        return tuple(self._pis)

    @property
    def pos(self) -> tuple[tuple[str, int], ...]:
        """Primary outputs as ``(name, node_id)`` pairs."""
        return tuple(self._pos)

    @property
    def po_nodes(self) -> tuple[int, ...]:
        """Primary output node ids (may repeat if a node drives two POs)."""
        return tuple(uid for _, uid in self._pos)

    def nodes(self) -> Iterator[Node]:
        """Iterate all nodes in id order."""
        for uid in sorted(self._nodes):
            yield self._nodes[uid]

    def gates(self) -> Iterator[Node]:
        """Iterate gate nodes in id order."""
        return (n for n in self.nodes() if n.is_gate)

    def node_ids(self) -> list[int]:
        """All node ids in increasing order."""
        return sorted(self._nodes)

    def fanouts(self, uid: int) -> tuple[int, ...]:
        """Ids of nodes that use ``uid`` as a fanin."""
        if uid not in self._nodes:
            raise NetworkError(f"no node with id {uid}")
        return tuple(self._fanouts[uid])

    def num_fanouts(self, uid: int) -> int:
        """Fanout count of a node (distinct reader nodes)."""
        return len(self._fanouts[uid])

    def find_by_name(self, name: str) -> Optional[int]:
        """The id of the first node with the given name, or ``None``."""
        for node in self._nodes.values():
            if node.name == name:
                return node.uid
        return None

    # ------------------------------------------------------------------
    # Orders and levels
    # ------------------------------------------------------------------
    def topological_order(self) -> list[int]:
        """Node ids ordered so every fanin precedes its readers.

        Raises :class:`NetworkError` if the graph contains a cycle.
        """
        if self._topo is not None:
            return list(self._topo)
        in_deg = {uid: len(set(n.fanins)) for uid, n in self._nodes.items()}
        ready = sorted(uid for uid, d in in_deg.items() if d == 0)
        order: list[int] = []
        queue = list(ready)
        while queue:
            uid = queue.pop()
            order.append(uid)
            for out in self._fanouts[uid]:
                in_deg[out] -= 1
                if in_deg[out] == 0:
                    queue.append(out)
        if len(order) != len(self._nodes):
            raise NetworkError("network contains a cycle")
        self._topo = order
        return list(order)

    def levels(self) -> dict[int, int]:
        """Level of every node: longest path from any PI (PIs are level 0)."""
        if self._levels is None:
            levels: dict[int, int] = {}
            for uid in self.topological_order():
                node = self._nodes[uid]
                if node.is_pi or node.is_const:
                    levels[uid] = 0
                else:
                    levels[uid] = 1 + max(levels[f] for f in node.fanins)
            self._levels = levels
        return dict(self._levels)

    def level(self, uid: int) -> int:
        """Level of one node."""
        if self._levels is None:
            self.levels()
        assert self._levels is not None
        return self._levels[uid]

    def depth(self) -> int:
        """Maximum level over all nodes (0 for an empty/PI-only network)."""
        levels = self.levels()
        return max(levels.values(), default=0)

    def lowering(self) -> Lowering:
        """The network as the flat buffers the C cores read, built on first
        use and kept until the network changes
        (:mod:`repro.network.lowering`).

        A node edited in place (``node.table = ...``) is noticed here: the
        kept lowering is checked against every node's table and fanins on
        each call, and the network lowers again when one differs.
        """
        lowering = self._lowering
        if lowering is not None:
            if lowering.describes(self._nodes):
                count_access(built=False)
                return lowering
            # Edited in place: the cached order and levels may be stale too.
            self._invalidate()
        lowering = Lowering(self)
        self._lowering = lowering
        return lowering

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def replace_fanin(self, uid: int, old: int, new: int) -> None:
        """Redirect every occurrence of fanin ``old`` of node ``uid`` to ``new``."""
        node = self.node(uid)
        if old not in node.fanins:
            raise NetworkError(f"{old} is not a fanin of {uid}")
        if new not in self._nodes:
            raise NetworkError(f"replacement node {new} does not exist")
        node.fanins = tuple(new if f == old else f for f in node.fanins)
        if uid in self._fanouts[old]:
            self._fanouts[old].remove(uid)
        if uid not in self._fanouts[new]:
            self._fanouts[new].append(uid)
        self._invalidate()

    def replace_node(self, old: int, new: int) -> None:
        """Redirect all readers (fanouts and POs) of ``old`` to ``new``."""
        if old == new:
            return
        self.node(old)
        self.node(new)
        for reader in list(self._fanouts[old]):
            self.replace_fanin(reader, old, new)
        self._pos = [
            (name, new if uid == old else uid) for name, uid in self._pos
        ]
        self._invalidate()

    def remove_dangling(self) -> int:
        """Delete gates with no fanouts that drive no PO; returns count removed."""
        po_set = set(self.po_nodes)
        removed = 0
        changed = True
        while changed:
            changed = False
            for uid in list(self._nodes):
                node = self._nodes[uid]
                if node.is_pi or uid in po_set:
                    continue
                if not self._fanouts[uid]:
                    for f in set(node.fanins):
                        self._fanouts[f].remove(uid)
                    del self._nodes[uid]
                    del self._fanouts[uid]
                    removed += 1
                    changed = True
        if removed:
            self._invalidate()
        return removed

    # ------------------------------------------------------------------
    # Cloning
    # ------------------------------------------------------------------
    def clone(self, name: Optional[str] = None) -> "Network":
        """Deep copy with identical node ids."""
        other = Network(name or self.name)
        other._next_uid = self._next_uid
        for uid, node in self._nodes.items():
            other._nodes[uid] = Node(
                node.uid, node.kind, node.fanins, node.table, node.name
            )
            other._fanouts[uid] = list(self._fanouts[uid])
        other._pis = list(self._pis)
        other._pos = list(self._pos)
        return other

    def map_clone(
        self, name: Optional[str] = None
    ) -> tuple["Network", dict[int, int]]:
        """Copy with freshly numbered ids; returns (copy, old->new map)."""
        other = Network(name or self.name)
        mapping: dict[int, int] = {}
        # PIs keep their declaration order (positional PI matching between
        # a network and its clone must stay valid).
        for pi in self._pis:
            mapping[pi] = other.add_pi(self._nodes[pi].name)
        for uid in self.topological_order():
            node = self._nodes[uid]
            if node.is_pi:
                continue
            mapping[uid] = other.add_gate(
                node.table,
                tuple(mapping[f] for f in node.fanins),
                node.name,
            )
        for po_name, uid in self._pos:
            other.add_po(mapping[uid], po_name)
        return other, mapping

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Network({self.name!r}: {len(self._pis)} PIs, "
            f"{self.num_gates} gates, {len(self._pos)} POs)"
        )
