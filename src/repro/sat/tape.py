"""Cone encoding in the C core: a network lowered once into a flat tape.

:class:`~repro.sat.tseitin.TseitinEncoder` encodes a cone node by node in
Python and leaves its clauses as tuples that the solver then takes one
``add_clause`` call at a time.  When the compiled backend runs on the C
core, the same work moves into ``_satcore.c``:

* :class:`CnfTape` lowers a network **once** into flat ``int32`` buffers:
  for each node in topological order its kind, its fanins as dense node
  numbers, and the clause template of its table
  (:func:`~repro.sat.tseitin.gate_clause_templates`, deduplicated per
  table).  The buffers are ``array('i')``, so a tape pickles (``spawn``
  workers) as well as it is inherited (``fork`` workers); a
  :class:`~repro.runtime.pool.CheckerPool` lowers it in the parent before
  starting its workers.
* :class:`ConeEncoder` drives the C cone encoder over a tape.  It numbers
  a root's not-yet-encoded cone in topological order and appends the new
  clauses to a stream of 0-terminated clauses, which the solver takes in
  one ``sat_add_clauses`` call (:meth:`ConeEncoder.ship`).

The C encoder is the reference encoder, transcribed: each node gets the
same variable, clauses and their literals come in the same order, and
shipping a stream creates solver variables exactly as per-clause
``add_clause`` calls do.  So every compiled-vs-reference identity gate
also tests this path.  A tape lives as long as the checker or pool that
lowered it; nothing here is cached process-wide.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Optional

from repro.errors import SatError
from repro.network.network import Network
from repro.sat import compiled
from repro.sat.tseitin import gate_clause_templates
from repro.simulation.patterns import InputVector

#: Node kinds of a tape record (``NODE_*`` in ``_satcore.c``).
NODE_PI, NODE_FALSE, NODE_TRUE, NODE_GATE = 0, 1, 2, 3


def stream_encoding_available(sat_backend: str) -> bool:
    """True when ``sat_backend`` runs on the C core, which then also
    encodes cones (the reference backend and the no-compiler fallback
    keep :class:`~repro.sat.tseitin.TseitinEncoder`)."""
    return sat_backend == "compiled" and compiled.SAT_CORE == "c"


class CnfTape:
    """A network lowered into the flat buffers the C cone encoder reads.

    Nodes are numbered by their position in
    ``network.topological_order()`` — the order the reference encoder
    sorts each cone by.  ``records[offsets[d]]`` holds node ``d``'s kind,
    its template offset, its fanin count and its fanins;
    ``templates[t]`` holds a table's clause count, then per clause its
    literal count, the literal codes (fanin position << 1 | cube value)
    and the output sign.
    """

    def __init__(self, network: Network):
        order = network.topological_order()
        number = {uid: d for d, uid in enumerate(order)}
        offsets: list[int] = []
        records: list[int] = []
        templates: list[int] = []
        template_at: dict = {}
        for uid in order:
            node = network.node(uid)
            offsets.append(len(records))
            fanins = node.fanins
            if node.is_pi:
                records += (NODE_PI, -1, 0)
            elif not fanins:
                kind = NODE_TRUE if node.table.bits else NODE_FALSE
                records += (kind, -1, 0)
            else:
                table = node.table
                at = template_at.get(table)
                if at is None:
                    at = template_at[table] = len(templates)
                    clauses = gate_clause_templates(table)
                    templates.append(len(clauses))
                    for pairs, sign in clauses:
                        templates.append(len(pairs))
                        templates += [(i << 1) | value for i, value in pairs]
                        templates.append(sign)
                records += (NODE_GATE, at, len(fanins))
                records += [number[f] for f in fanins]
        #: node id -> dense node number (topological position).
        self.number = number
        #: ``(pi id, node number)`` in ``network.pis`` order (model decode).
        self.pis = tuple((pi, number[pi]) for pi in network.pis)
        self.offsets = array("i", offsets)
        self.records = array("i", records)
        self.templates = array("i", templates)

    @property
    def num_nodes(self) -> int:
        return len(self.offsets)


class ConeEncoder:
    """Incremental cone encoder over a :class:`CnfTape`, run in C.

    The counterpart of :class:`~repro.sat.tseitin.TseitinEncoder`:
    :meth:`encode_cone`, :meth:`var_of` and :meth:`model_to_vector` keep
    its contract, :meth:`new_var` stands in for ``encoder.cnf.new_var()``,
    and the clauses live in a C-side stream rather than a
    :class:`~repro.sat.cnf.Cnf` (:meth:`stream` copies it out).
    """

    def __init__(self, tape: CnfTape):
        lib = compiled._LIB
        if lib is None:
            raise SatError("cone encoding needs the compiled SAT core")
        self._lib = lib
        self.tape = tape
        self._number = tape.number
        self._node_var = (ctypes.c_int32 * max(1, tape.num_nodes))()
        self._handle = lib.enc_new(
            tape.offsets.buffer_info()[0],
            tape.records.buffer_info()[0],
            tape.templates.buffer_info()[0],
            self._node_var,
        )
        if not self._handle:
            raise MemoryError("cone encoder allocation failed")

    def __del__(self) -> None:
        handle = getattr(self, "_handle", None)
        if handle:
            self._lib.enc_free(handle)
            self._handle = None

    # ------------------------------------------------------------------
    def encode_cone(self, root: int) -> int:
        """Encode the fanin cone of ``root``; returns the root's variable."""
        var = self._lib.enc_encode_cone(self._handle, self._number[root])
        if var < 0:
            raise MemoryError("cone encoder allocation failed")
        return var

    def new_var(self) -> int:
        """A fresh variable no node owns (e.g. a miter selector)."""
        return self._lib.enc_new_var(self._handle)

    @property
    def num_vars(self) -> int:
        return self._lib.enc_num_vars(self._handle)

    def var_of(self, uid: int) -> Optional[int]:
        """The CNF variable of a node, if already encoded."""
        return self._node_var[self._number[uid]] or None

    def miter(
        self, node_a: int, node_b: int, complement: bool = False
    ) -> None:
        """Reset to a fresh encoder holding :func:`pair_miter`'s instance:
        both cones, then the two clauses asserting the nodes differ (agree,
        with ``complement``)."""
        if node_a == node_b:
            raise SatError("miter of a node with itself is trivially UNSAT")
        number = self._number
        if self._lib.enc_miter(
            self._handle, number[node_a], number[node_b], int(complement)
        ) < 0:
            raise MemoryError("cone encoder allocation failed")

    # ------------------------------------------------------------------
    def _stream(self) -> tuple[Optional[int], int]:
        length = ctypes.c_int64()
        base = self._lib.enc_stream(self._handle, ctypes.byref(length))
        return base, length.value

    def stream(self) -> list[int]:
        """A copy of the clause stream (each clause 0-terminated)."""
        base, length = self._stream()
        if not length:
            return []
        return list((ctypes.c_int32 * length).from_address(base))

    def ship(self, solver, start: int = 0) -> int:
        """Add the stream's clauses from word ``start`` on to a
        :class:`~repro.sat.compiled.CArenaCdclSolver` in one call; returns
        the stream length, the ``start`` of the next shipment."""
        base, length = self._stream()
        if length > start:
            rc = self._lib.sat_add_clauses(
                solver._handle, base + 4 * start, length - start
            )
            if rc < 0:
                raise SatError("add_clause only allowed at decision level 0")
        return length

    def load_into(self, solver) -> None:
        """What ``solver.add_cnf(cnf)`` does for the encoded instance:
        create every variable first, then add every clause."""
        solver._ensure_vars(self.num_vars)
        self.ship(solver)

    def model_to_vector(self, model: dict[int, bool]) -> InputVector:
        """Extract PI values from a SAT model (encoded PIs only)."""
        vector = InputVector()
        node_var = self._node_var
        for pi, number in self.tape.pis:
            var = node_var[number]
            if var and var in model:
                vector.set(pi, int(model[var]))
        return vector
