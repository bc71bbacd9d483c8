"""Cone encoding in the C core, over the network's lowering.

:class:`~repro.sat.tseitin.TseitinEncoder` encodes a cone node by node in
Python and leaves its clauses as tuples that the solver then takes one
``add_clause`` call at a time.  When the compiled backend runs on the C
core, the same work moves into ``_satcore.c``:

* :class:`CnfTape` is the SAT view of a network's lowering
  (:meth:`Network.lowering <repro.network.network.Network.lowering>`): the
  lowering's per-slot kinds, function ids and fanin CSR, plus the clause
  template of each distinct function
  (:func:`~repro.sat.tseitin.gate_clause_templates`).  The templates are
  the lowering's ``"cnf"`` section, built once per lowering, so every
  checker of a network shares them, across sweeps too.  The buffers are
  ``array('i')``, so a tape pickles with its lowering (``spawn`` workers)
  as well as it is inherited (``fork`` workers).
* :class:`ConeEncoder` drives the C cone encoder over a tape.  It numbers
  a root's not-yet-encoded cone in topological order and appends the new
  clauses to a stream of 0-terminated clauses, which the solver takes in
  one ``sat_add_clauses`` call (:meth:`ConeEncoder.ship`).

The C encoder is the reference encoder, transcribed: each node gets the
same variable, clauses and their literals come in the same order, and
shipping a stream creates solver variables exactly as per-clause
``add_clause`` calls do.  So every compiled-vs-reference identity gate
also tests this path.  A tape lives as long as its lowering, which the
network keeps until it changes.
"""

from __future__ import annotations

import ctypes
from array import array
from functools import lru_cache
from typing import Optional

from repro.errors import SatError
from repro.logic.truthtable import TruthTable
from repro.network.lowering import Lowering
from repro.network.network import Network
from repro.sat import compiled
from repro.sat.tseitin import gate_clause_templates
from repro.simulation.patterns import InputVector


def stream_encoding_available(backend: str) -> bool:
    """True when ``backend`` runs on the C core, which then also
    encodes cones (the reference backend and the no-compiler fallback
    keep :class:`~repro.sat.tseitin.TseitinEncoder`)."""
    return backend == "compiled" and compiled.SAT_CORE == "c"


@lru_cache(maxsize=16384)
def _template_words(table: TruthTable) -> bytes:
    """A function's :func:`~repro.sat.tseitin.gate_clause_templates` as the
    C encoder reads it, as int32 words (see :class:`CnfTape`)."""
    clauses = gate_clause_templates(table)
    words = array("i", [len(clauses)])
    for pairs, sign in clauses:
        words.append(len(pairs))
        words.extend([(i << 1) | value for i, value in pairs])
        words.append(sign)
    return words.tobytes()


def _templates(lowering: Lowering) -> tuple[array, array]:
    """The lowering's ``"cnf"`` section: per function id the offset of its
    clause template (one more entry: the total), and the templates."""
    return lowering.per_function(_template_words)


class CnfTape:
    """The SAT view of a network's lowering: what the C cone encoder reads.

    Nodes are numbered by their lowering slot, their position in
    ``network.topological_order()`` — the order the reference encoder
    sorts each cone by.  ``kinds``, ``funcs``, ``fanin_off`` and
    ``fanins`` are the lowering's own buffers; ``templates[template_off[f]]``
    holds function ``f``'s clause count, then per clause its literal count,
    the literal codes (fanin position << 1 | cube value) and the output
    sign.  Building a tape lowers the network only if nothing has yet.
    """

    def __init__(self, network: Network):
        lowering = network.lowering()
        self.template_off, self.templates = lowering.section("cnf", _templates)
        #: node id -> dense node number (topological position).
        self.number = lowering.slot_of
        #: ``(pi id, node number)`` in ``network.pis`` order (model decode).
        self.pis = tuple(zip(lowering.pis, lowering.pi_slots))
        self.kinds = lowering.kinds
        self.funcs = lowering.funcs
        self.fanin_off = lowering.fanin_off
        self.fanins = lowering.fanins

    @property
    def num_nodes(self) -> int:
        return len(self.kinds)


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
            tape.kinds.buffer_info()[0],
            tape.funcs.buffer_info()[0],
            tape.fanin_off.buffer_info()[0],
            tape.fanins.buffer_info()[0],
            tape.template_off.buffer_info()[0],
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
