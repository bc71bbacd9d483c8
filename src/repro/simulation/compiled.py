"""Compiled bit-parallel simulation: the network lowered once, run many times.

:class:`~repro.simulation.simulator.Simulator` walks a uid-keyed dict and
re-derives each node's evaluation plan (an ``lru_cache`` hit on the truth
table) on every batch.  :class:`CompiledSimulator` pays those costs once at
construction instead:

* nodes are assigned **dense slot indices** in topological order — the run
  loop reads and writes a flat list, never a dict keyed by uid;
* each gate's ISOP evaluation plan is resolved **ahead of time** into cube
  operands over fanin slots (no per-batch ``TruthTable`` hashing);
* **constants are folded**: constant gates — and gates whose cubes resolve
  against constant fanins — become compile-time 0/1 slots, and their
  literals disappear from downstream cubes;
* the tape is then lowered to a **straight-line Python function** (one
  expression per gate, built with ``compile``/``exec``), which removes the
  remaining per-node interpreter dispatch.  Networks larger than
  :data:`CODEGEN_NODE_LIMIT` fall back to interpreting the tape directly.

With ``targets=`` the compiler restricts the tape to the union of the
targets' fanin cones, so a sweep refining a shrinking candidate set never
simulates logic outside the classes it still cares about.  Only the cone's
PIs are then required in ``run_words`` and only cone nodes appear in the
result.

Results are bit-identical to :class:`Simulator` on every compiled node
(checked by the cross-backend property suite in
``tests/simulation/test_cross_backend.py``).  The network must not be
mutated after compilation, the same implicit contract as ``Simulator``'s
cached topological order.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Iterable, Mapping, Optional

from repro.errors import SimulationError
from repro.network.network import Network
from repro.network.traversal import cone_topological_order
from repro.simulation.bitvec import width_mask
from repro.simulation.patterns import PatternBatch
from repro.simulation.simulator import _eval_plan

#: Above this many compiled nodes the generated source is no longer cheap to
#: ``compile()``; fall back to interpreting the instruction tape.
CODEGEN_NODE_LIMIT = 30000

#: Process-wide compiled-tape LRU bound (distinct (structure, targets)
#: pairs).  The serving daemon re-submits identical or near-identical
#: netlists many times; re-lowering the tape (ISOP plans, constant
#: folding, codegen ``exec``) dominates small-job latency, so compiled
#: artifacts are shared.  Entries hold only immutable compile products —
#: per-instance ``stats`` stay private.
TAPE_CACHE_CAP = 64

#: digest -> (uids, pis, pi_slots, const_items, tape, fn).  Insertion
#: order doubles as LRU order (hits reinsert), like the SimGen
#: transition-table cache.
_TAPE_CACHE: dict[bytes, tuple] = {}
_TAPE_LOCK = threading.Lock()
_TAPE_HITS = 0
_TAPE_MISSES = 0
_TAPE_EVICTIONS = 0


def _structure_digest(
    network: Network,
    order: Iterable[int],
    roots: Optional[tuple[int, ...]],
) -> bytes:
    """Uid-faithful structural digest of the compiled slice.

    Unlike :func:`repro.transforms.strash.node_signatures` this hash
    *includes* uids and iteration order: the compiled tape addresses
    nodes by uid-assigned slots, so it only transfers between networks
    whose uid-level structure matches exactly (e.g. two parses of the
    same netlist text).  Hashing the compile ``order`` rather than the
    whole network keeps cone compiles O(cone), and is sound because the
    tape is a pure function of that order plus each node's kind, table
    and fanins.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(repr(roots).encode("ascii"))
    # The codegen-vs-interpreter decision is part of the compile product,
    # so a (test-)adjusted CODEGEN_NODE_LIMIT must miss old entries.
    hasher.update(repr(CODEGEN_NODE_LIMIT).encode("ascii"))
    for uid in order:
        node = network.node(uid)
        if node.is_pi:
            hasher.update(f"{uid}:pi;".encode("ascii"))
            continue
        hasher.update(
            f"{uid}:{node.table.num_vars}:{node.table.bits}:"
            f"{node.fanins!r};".encode("ascii")
        )
    return hasher.digest()


def _tape_cache_get(key: bytes) -> Optional[tuple]:
    global _TAPE_HITS, _TAPE_MISSES
    with _TAPE_LOCK:
        cached = _TAPE_CACHE.pop(key, None)
        if cached is None:
            _TAPE_MISSES += 1
            return None
        _TAPE_HITS += 1
        _TAPE_CACHE[key] = cached  # reinsert = most recently used
        return cached


def _tape_cache_put(key: bytes, artifacts: tuple) -> None:
    global _TAPE_EVICTIONS
    with _TAPE_LOCK:
        if key not in _TAPE_CACHE:
            while len(_TAPE_CACHE) >= TAPE_CACHE_CAP:
                _TAPE_CACHE.pop(next(iter(_TAPE_CACHE)))
                _TAPE_EVICTIONS += 1
        _TAPE_CACHE[key] = artifacts


def tape_cache_info() -> dict:
    """Occupancy and lifetime hit/miss/eviction counters (thread-safe)."""
    with _TAPE_LOCK:
        return {
            "size": len(_TAPE_CACHE),
            "cap": TAPE_CACHE_CAP,
            "hits": _TAPE_HITS,
            "misses": _TAPE_MISSES,
            "evictions": _TAPE_EVICTIONS,
        }


def clear_tape_cache() -> None:
    """Drop every cached tape, so the next compile starts cold.

    Counters are lifetime-monotonic and survive clears.
    """
    with _TAPE_LOCK:
        _TAPE_CACHE.clear()


class CompiledSimulator:
    """Simulates a fixed network via a pre-lowered instruction tape.

    Args:
        network: The network to compile.
        targets: Optional node ids; when given, only the union of their
            fanin cones is compiled (and simulated, and returned).
    """

    def __init__(self, network: Network, targets: Optional[Iterable[int]] = None):
        self.network = network
        if targets is None:
            roots: Optional[tuple[int, ...]] = None
            order = network.topological_order()
        else:
            roots = tuple(sorted(set(targets)))
            for uid in roots:
                network.node(uid)  # existence check
            order = cone_topological_order(network, roots)
        #: Work counters for the metrics registry (published as ``sim.*``).
        self.stats = {"batches": 0, "patterns": 0, "node_evals": 0}
        digest = _structure_digest(network, order, roots)
        cached = _tape_cache_get(digest)
        if cached is not None:
            # Every cached field is immutable (or, for const_bits, never
            # mutated after compile), so instances share them freely.
            (
                self._uids,
                self._pis,
                self._pi_slots,
                self._const_bits,
                self._tape,
                self._fn,
            ) = cached
            return
        self._uids: tuple[int, ...] = tuple(order)
        slot_of = {uid: slot for slot, uid in enumerate(order)}

        pis: list[int] = []  # uids, in compiled order
        pi_slots: list[int] = []
        const_bits: dict[int, int] = {}  # slot -> folded 0/1
        # Tape op: (slot, complement, cubes); each cube is (pos, neg) slot
        # tuples — AND of the positives and negated negatives, OR over cubes.
        tape: list[tuple[int, bool, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]] = []

        for uid in order:
            node = network.node(uid)
            slot = slot_of[uid]
            if node.is_pi:
                pis.append(uid)
                pi_slots.append(slot)
                continue
            if node.is_const:
                const_bits[slot] = 1 if node.table.bits else 0
                continue
            complement, plan_cubes = _eval_plan(node.table)
            fanin_slots = [slot_of[f] for f in node.fanins]
            cubes: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            universal = False
            for cube_mask, cube_values in plan_cubes:
                pos: list[int] = []
                neg: list[int] = []
                contradicted = False
                i = 0
                m = cube_mask
                while m:
                    if m & 1:
                        want = (cube_values >> i) & 1
                        fslot = fanin_slots[i]
                        folded = const_bits.get(fslot)
                        if folded is not None:
                            if folded != want:
                                contradicted = True
                                break
                            # Literal satisfied at compile time; drop it.
                        elif want:
                            pos.append(fslot)
                        else:
                            neg.append(fslot)
                    m >>= 1
                    i += 1
                if contradicted:
                    continue  # cube can never fire
                if not pos and not neg:
                    universal = True  # cube fires on every pattern
                    break
                cubes.append((tuple(pos), tuple(neg)))
            if universal:
                const_bits[slot] = 0 if complement else 1
            elif not cubes:
                const_bits[slot] = 1 if complement else 0
            else:
                tape.append((slot, complement, tuple(cubes)))

        self._pis: tuple[int, ...] = tuple(pis)
        self._pi_slots: tuple[int, ...] = tuple(pi_slots)
        self._const_bits: dict[int, int] = const_bits
        self._tape = tuple(tape)
        self._fn = (
            self._codegen() if len(order) <= CODEGEN_NODE_LIMIT else None
        )
        _tape_cache_put(
            digest,
            (
                self._uids,
                self._pis,
                self._pi_slots,
                self._const_bits,
                self._tape,
                self._fn,
            ),
        )

    # ------------------------------------------------------------------
    # Introspection (benchmarks and tests)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Compiled nodes (PIs + constants + gate ops)."""
        return len(self._uids)

    @property
    def num_gate_ops(self) -> int:
        """Gate evaluations executed per batch."""
        return len(self._tape)

    @property
    def num_folded(self) -> int:
        """Slots resolved to compile-time constants."""
        return len(self._const_bits)

    @property
    def compiled_pis(self) -> tuple[int, ...]:
        """PIs the tape reads (the cone PIs when ``targets`` was given)."""
        return self._pis

    # ------------------------------------------------------------------
    # Lowering to Python source
    # ------------------------------------------------------------------
    def _codegen(self):
        lines = ["def _compiled_sim(pi_words, mask):"]
        for k, slot in enumerate(self._pi_slots):
            lines.append(f"    v{slot} = pi_words[{k}] & mask")
        for slot, bit in self._const_bits.items():
            lines.append(f"    v{slot} = mask" if bit else f"    v{slot} = 0")
        for slot, complement, cubes in self._tape:
            terms = []
            for pos, neg in cubes:
                lits = [f"v{s}" for s in pos] + [f"~v{s}" for s in neg]
                terms.append("(mask & " + " & ".join(lits) + ")")
            expr = " | ".join(terms)
            if complement:
                expr = f"mask ^ ({expr})"
            lines.append(f"    v{slot} = {expr}")
        result = ", ".join(f"v{slot}" for slot in range(len(self._uids)))
        lines.append(f"    return ({result}{',' if len(self._uids) == 1 else ''})")
        namespace: dict[str, object] = {}
        exec(compile("\n".join(lines), "<compiled-simulator>", "exec"), namespace)
        return namespace["_compiled_sim"]

    def _run_tape(self, pi_list: list[int], mask: int) -> list[int]:
        values = [0] * len(self._uids)
        for k, slot in enumerate(self._pi_slots):
            values[slot] = pi_list[k] & mask
        for slot, bit in self._const_bits.items():
            values[slot] = mask if bit else 0
        for slot, complement, cubes in self._tape:
            result = 0
            for pos, neg in cubes:
                term = mask
                for s in pos:
                    term &= values[s]
                if term:
                    for s in neg:
                        term &= ~values[s]
                if term:
                    result |= term
                    if result == mask:
                        break
            values[slot] = (result ^ mask) if complement else result
        return values

    # ------------------------------------------------------------------
    # Simulation API (mirrors Simulator)
    # ------------------------------------------------------------------
    def run_words(
        self, pi_words: Mapping[int, int], width: int
    ) -> dict[int, int]:
        """Simulate packed PI words; returns node id -> packed output word.

        Every *compiled* PI must be present in ``pi_words`` (all network PIs
        without ``targets``; only the cone PIs with them).  Extra entries are
        ignored.  Only compiled nodes appear in the result.
        """
        if width < 0:
            raise SimulationError("width must be >= 0")
        self.stats["batches"] += 1
        self.stats["patterns"] += width
        self.stats["node_evals"] += len(self._tape) * max(
            1, (width + 63) // 64
        )
        mask = width_mask(width)
        try:
            pi_list = [pi_words[pi] for pi in self._pis]
        except KeyError as exc:
            raise SimulationError(f"missing word for PI {exc.args[0]}") from exc
        if self._fn is not None:
            values = self._fn(pi_list, mask)
        else:
            values = self._run_tape(pi_list, mask)
        return dict(zip(self._uids, values))

    def run_batch(self, batch: PatternBatch) -> dict[int, int]:
        """Simulate a :class:`PatternBatch`."""
        return self.run_words(batch.words(), batch.width)

    def run_vector(self, values: Mapping[int, int]) -> dict[int, int]:
        """Simulate a single total input vector; returns node id -> 0/1."""
        return self.run_words(values, 1)

    def output_words(self, node_values: Mapping[int, int]) -> dict[str, int]:
        """Extract PO name -> packed word from a simulation result."""
        return {name: node_values[uid] for name, uid in self.network.pos}
