"""Compiled SimGen kernel: Algorithm 1 lowered onto dense slot arrays.

The reference engines (:class:`~repro.core.implication.ImplicationEngine`,
:class:`~repro.core.decision.DecisionEngine`,
:class:`~repro.core.assignment.Assignment`) interpret Algorithm 1 over
uid-keyed dicts: every pin read is a dict probe, every memo hit hashes a
tuple, and every decision re-filters truth-table rows.  This module
applies the same lower-once design as
:class:`~repro.simulation.compiled.CompiledSimulator` to the *generation*
side of the paper:

* nodes get **dense slot indices** in topological order; the assignment is
  a flat list (``-1`` = unassigned) plus a trail of slots, and a conflict
  reverts by truncating the trail back to a marker — never by copying or
  rebuilding the assignment;
* each gate's pin state is a packed integer pair
  ``(known_mask, known_values)`` maintained **incrementally**: assigning a
  node flips one bit in each fanout gate's pair, reverting clears it, so
  an examination never iterates fanins to rediscover what is known;
* the packed state (plus the output value) indexes a **transition table**:
  a flat array, allocated once per distinct ``(function, strategy)``, whose
  entries are the forced pins (or the conflict marker) the reference
  engine would derive for that state.  Small-arity tables are fully
  enumerated at compile time; larger ones resolve states on first touch
  and every repeat is a single list index.  The same array doubles as the
  decision-candidate cache (which rows would be offered at that state).
  Tables are shared across gates and kernel instances via a module cache
  (LUT networks reuse few functions);
* the implication fixpoint is an explicit worklist over slots that only
  re-examines gates whose pins changed — the same order as the reference
  engine's queue, so the assignment trail (and hence every later decision)
  is identical;
* decision rows, their Equation-4 priorities (including the MFFC ranks of
  Equation 3), and per-target cone membership are compiled **once per
  network** instead of rediscovered per call.

:class:`CompiledSimGenGenerator` drives the kernel through the unchanged
Algorithm-1 control flow and consumes the RNG in exactly the reference
order, so vectors, survivors, reports, and whole sweep trajectories are
**bit-identical** to :class:`~repro.core.generator.SimGenGenerator` (the
property suite in ``tests/core/test_compiled_kernel.py`` and a CI identity
smoke both enforce this).
"""

from __future__ import annotations

import random
import threading
from collections import deque
from typing import Mapping, Optional, Sequence

from repro.core.decision import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DecisionStrategy,
    roulette_select,
)
from repro.core.generator import GenerationReport, SimGenGenerator
from repro.core.implication import ImplicationStrategy
from repro.core.outgold import OutgoldStrategy, alternating_outgold
from repro.errors import GenerationError
from repro.logic.cubes import packed_rows
from repro.network.cones import MffcCache
from repro.network.network import Network
from repro.simulation.compiled import CompiledSimulator

#: Backend names accepted by the seam (``SweepConfig.simgen_backend``,
#: ``make_generator(simgen_backend=...)``, ``--simgen-backend``).
GENERATOR_BACKENDS = ("batch", "compiled", "reference")

#: Gates with at most this many fanins get their transition table fully
#: enumerated at compile time (``3 ** (k + 1)`` reachable states); larger
#: tables are allocated up front but resolve states lazily on first touch.
#: k=4 costs ~0.2ms per distinct function at compile time and keeps every
#: 4-input LUT off the lazy path; k=5 tables are 4x bigger again and mostly
#: touched sparsely, so they stay lazy.
EAGER_ENUM_LIMIT = 4

#: Total cap on cached roulette weight lists across a kernel's gates.
#: Overflow clears every per-gate weights cache (a pure cache — weights
#: are a deterministic function of the gate state, so trajectories are
#: unaffected) and counts dropped entries in
#: ``stats["weights_evictions"]``.
WEIGHTS_CACHE_CAP = 1 << 16


class KernelConflict(Exception):
    """A kernel assignment contradicted an existing value.

    The compiled twin of :class:`~repro.core.assignment.Conflict`; carries
    no payload because Algorithm 1 only needs the control transfer.
    """


class _TransitionTable:
    """Flat implication + decision lookup for one gate function.

    A pin state packs as ``(output + 1) * 4**k + (known_mask << k) |
    known_values`` (``output`` is ``-1`` when unassigned).  Two parallel
    lazy arrays are indexed by it:

    * ``states[index]`` — the forced pins as a tuple of ``(pin_index,
      value)`` pairs (pin index ``k`` is the output), ``None`` when the
      state is contradictory, or ``False`` when unresolved;
    * ``decisions[index]`` — the candidate row indices a decision at that
      state would choose among (``None`` contradiction, ``()`` no decision
      needed, ``False`` unresolved), mirroring
      :meth:`~repro.core.decision.DecisionEngine.candidate_rows`.
    """

    __slots__ = (
        "k",
        "rows",
        "rows_by_output",
        "advanced",
        "stride",
        "states",
        "decisions",
        "resolved",
    )

    def __init__(
        self,
        rows: tuple[tuple[int, int, int], ...],
        k: int,
        advanced: bool,
    ):
        self.k = k
        self.rows = rows
        #: Rows pre-filtered by assigned output (-1 = all rows), so lazy
        #: resolution skips the per-row output compare.
        self.rows_by_output = (
            rows,
            tuple(r for r in rows if r[2] == 0),
            tuple(r for r in rows if r[2] == 1),
        )
        self.advanced = advanced
        self.stride = 1 << (2 * k)
        self.states: list = [False] * (3 * self.stride)
        self.decisions: list = [False] * (3 * self.stride)
        #: States resolved so far (``simgen.kernel.transition_states``).
        self.resolved = 0
        if k <= EAGER_ENUM_LIMIT:
            self._enumerate()

    def _enumerate(self) -> None:
        """Resolve every reachable state (``values`` a submask of ``mask``)."""
        k = self.k
        for output in (-1, 0, 1):
            for mask in range(1 << k):
                values = mask
                while True:  # submask enumeration of `mask`, including 0
                    self.resolve(
                        (output + 1) * self.stride + (mask << k) + values,
                        mask,
                        values,
                        output,
                    )
                    if values == 0:
                        break
                    values = (values - 1) & mask

    def resolve(
        self, index: int, known_mask: int, known_values: int, output: int
    ):
        """Resolve one packed implication state.

        Mirrors ``ImplicationEngine._examine_state`` exactly (``output`` is
        ``-1`` for unassigned).  Returns the stored entry.
        """
        self.resolved += 1
        if output < 0 and not known_mask:
            forced: Optional[tuple] = ()
            self.states[index] = forced
            return forced
        # One fused pass over the (output-filtered) rows: track the match
        # count and fold the advanced-mode intersection on the fly instead
        # of materializing the matching-row list first.
        advanced = self.advanced
        count = 0
        base_vals = base_out = 0
        forced_mask = 0
        out_agree = output < 0
        for mask, vals, out in self.rows_by_output[output + 1]:
            if (vals ^ known_values) & (mask & known_mask):
                continue
            if count == 0:
                base_vals = vals
                base_out = out
                forced_mask = mask & ~known_mask
            else:
                if not advanced:
                    # Two or more matches without advanced implications:
                    # nothing is forced.
                    forced = ()
                    self.states[index] = forced
                    return forced
                forced_mask &= mask & ~(vals ^ base_vals)
                if out != base_out:
                    out_agree = False
                if not forced_mask and not out_agree:
                    forced = ()
                    self.states[index] = forced
                    return forced
            count += 1
        if count == 0:
            self.states[index] = None
            return None
        result: list[tuple[int, int]] = []
        i = 0
        fm = forced_mask
        while fm:
            if fm & 1:
                result.append((i, (base_vals >> i) & 1))
            fm >>= 1
            i += 1
        if out_agree:
            # Single match: append iff the output was unassigned; multi
            # match: append iff every matching row agrees on the output.
            result.append((self.k, base_out))
        forced = tuple(result)
        self.states[index] = forced
        return forced

    def resolve_decision(
        self, index: int, known_mask: int, known_values: int, output: int
    ):
        """Resolve one packed decision state.

        Mirrors ``DecisionEngine.candidate_rows`` exactly: ``None`` on
        contradiction, ``()`` when the node needs no decision, else the
        candidate row indices in row order.
        """
        rows = self.rows
        matching = [
            i
            for i, row in enumerate(rows)
            if (output < 0 or row[2] == output)
            and not (row[1] ^ known_values) & (row[0] & known_mask)
        ]
        if not matching:
            self.decisions[index] = None
            return None
        useful: list[int] = []
        for i in matching:
            binds_new = rows[i][0] & ~known_mask
            if not binds_new and output >= 0:
                # A matching row whose bound pins are all assigned covers
                # every completion: the node needs no decision at all.
                useful = []
                break
            if binds_new or output < 0:
                useful.append(i)
        # When no early break fires every matching row is useful, so an
        # empty tuple unambiguously encodes "no decision needed".
        result = tuple(useful)
        self.decisions[index] = result
        return result


#: Shared-table cache bound (distinct ``(rows, k, advanced)`` functions).
#: LUT networks reuse few functions, so the cap is generous; long-running
#: processes sweeping many unrelated networks stay bounded regardless.
#: Eviction drops the cache's reference only — kernels built earlier keep
#: theirs, so nothing live is invalidated.
TRANSITION_CACHE_CAP = 512

#: (rows, k, advanced) -> shared transition table.  Gate functions recur
#: across gates and networks, so tables amortize like the ISOP/eval-plan
#: caches.  ``k`` must be part of the key: a gate that ignores its highest
#: pins produces the same rows as its lower-arity twin, but the packed
#: index layout (stride ``4**k``) differs.  Insertion order doubles as LRU
#: order (hits reinsert), bounded by :data:`TRANSITION_CACHE_CAP`.
_TRANSITION_CACHE: dict[
    tuple[tuple[tuple[int, int, int], ...], int, bool], _TransitionTable
] = {}

#: Guards the cache dict *and* the counters below.  The serve daemon
#: builds kernels from several job threads at once; unlocked
#: read-modify-write on the counters would lose increments, and two
#: threads racing the eviction loop could each pop a survivor.  The lock
#: is per *kernel build* (once per distinct gate function), never on the
#: per-vector hot path.
_TRANSITION_LOCK = threading.Lock()

_TRANSITION_EVICTIONS = 0
_TRANSITION_HITS = 0
_TRANSITION_MISSES = 0


def transition_table(
    rows: tuple[tuple[int, int, int], ...], k: int, advanced: bool
) -> _TransitionTable:
    """The shared transition table for one gate function (thread-safe)."""
    global _TRANSITION_EVICTIONS, _TRANSITION_HITS, _TRANSITION_MISSES
    key = (rows, k, advanced)
    with _TRANSITION_LOCK:
        table = _TRANSITION_CACHE.get(key)
        if table is None:
            _TRANSITION_MISSES += 1
            while len(_TRANSITION_CACHE) >= TRANSITION_CACHE_CAP:
                _TRANSITION_CACHE.pop(next(iter(_TRANSITION_CACHE)))
                _TRANSITION_EVICTIONS += 1
            table = _TRANSITION_CACHE[key] = _TransitionTable(
                rows, k, advanced
            )
        else:
            _TRANSITION_HITS += 1
            # LRU touch: reinsert so the hot tail survives evictions.
            del _TRANSITION_CACHE[key]
            _TRANSITION_CACHE[key] = table
        return table


def transition_cache_info() -> dict:
    """Cache occupancy and lifetime hit/miss/eviction counters.

    Read under the lock so concurrent sessions observe a conserved
    snapshot: ``hits + misses`` equals the lookups issued, and every miss
    corresponds to exactly one table construction.
    """
    with _TRANSITION_LOCK:
        return {
            "size": len(_TRANSITION_CACHE),
            "cap": TRANSITION_CACHE_CAP,
            "hits": _TRANSITION_HITS,
            "misses": _TRANSITION_MISSES,
            "evictions": _TRANSITION_EVICTIONS,
        }


def clear_transition_cache() -> None:
    """Drop every shared transition table, so the next lowering starts cold.

    The hit/miss/eviction counters are lifetime-monotonic and survive
    clears.
    """
    with _TRANSITION_LOCK:
        _TRANSITION_CACHE.clear()


class CompiledSimGenKernel:
    """Assignment + implication + decision lowered onto slot arrays.

    One kernel serves one static network (the usual compile-once contract).
    The public API speaks uids at the edges (tests, generator glue) and
    slots on the hot paths.
    """

    def __init__(
        self,
        network: Network,
        implication_strategy: ImplicationStrategy = ImplicationStrategy.ADVANCED,
        decision_strategy: DecisionStrategy = DecisionStrategy.DC_MFFC,
        alpha: float = DEFAULT_ALPHA,
        beta: float = DEFAULT_BETA,
        mffc: Optional[MffcCache] = None,
        impl_stats: Optional[dict] = None,
        dec_stats: Optional[dict] = None,
    ):
        self.network = network
        self.implication_strategy = implication_strategy
        self.decision_strategy = decision_strategy
        self.alpha = alpha
        self.beta = beta
        order = network.topological_order()
        n = len(order)
        self._uids: list[int] = list(order)
        self._slot_of: dict[int, int] = {uid: s for s, uid in enumerate(order)}
        slot_of = self._slot_of

        #: Flat assignment: -1 unassigned, else 0/1.  Trail = assigned slots
        #: in assignment order; revert truncates back to a marker.
        self._values: list[int] = [-1] * n
        self._trail: list[int] = []

        self._is_pi = bytearray(n)
        #: Per slot: the gate's **complete transition-table index**,
        #: maintained incrementally.  The packing ``(output + 1) * 4**k +
        #: (known_mask << k) + known_values`` keeps the three components in
        #: disjoint bit fields, so assigning a pin or the output is a
        #: single addition (and reverting a subtraction) with no carries —
        #: an examination is then just ``states[state[slot]]``.
        self._state: list[int] = [0] * n
        #: Per slot: the mask field fully populated (``full_mask << k``);
        #: ``state & full_bits == full_bits`` iff every fanin is assigned.
        #: 0 for PIs/constants, so the same test skips them.
        self._full_bits: list[int] = [0] * n
        #: Per slot: the output field's unit (``4**k`` for gates, 0 for
        #: PIs/constants) — assigning output value v adds ``unit << v``.
        self._out_delta: list[int] = [0] * n
        #: Per slot: pin positions this node drives, as (gate_slot, d0, d1)
        #: triples where d0/d1 are the index deltas for binding the pin to
        #: 0/1 (duplicated fanins get several entries).
        self._pin_positions: list[tuple[tuple[int, int, int], ...]] = [()] * n
        #: Per slot: fanin slot tuple (None for PIs/constants).
        self._fanins: list[Optional[tuple[int, ...]]] = [None] * n
        #: Per slot: slots to re-examine when the slot's value changes
        #: (the slot itself plus its fanouts), reference order.
        self._examiners: list[tuple[int, ...]] = [()] * n
        self._tables: list[Optional[_TransitionTable]] = [None] * n
        #: Per slot: ``(table, states, stride, k, fanins)`` pre-unpacked
        #: for the fixpoint loop (one list index + tuple unpack instead of
        #: repeated attribute lookups per examination); None for PIs and
        #: constants.  ``states`` aliases ``table.states``, which lazy
        #: resolution mutates in place — the alias stays valid.
        self._exam: list[Optional[tuple]] = [None] * n
        #: Per slot: the table's ``states`` list alone (None for PIs and
        #: constants) — the examination hot path reads only this; the full
        #: ``_exam`` tuple is loaded just on cold resolves and forcings.
        self._states_of: list[Optional[list]] = [None] * n
        #: Per slot: packed decision rows (aligned with the reference
        #: ``rows_of`` order) and their precomputed Equation-4 priorities.
        self._rows: list[Optional[tuple[tuple[int, int, int], ...]]] = [None] * n
        self._priorities: list[Optional[list[float]]] = [None] * n
        #: Per slot: state index -> roulette weights (bounded, see
        #: :data:`WEIGHTS_CACHE_CAP`); None for PIs/constants.
        self._weights: list[Optional[dict]] = [None] * n
        self._weights_entries = 0
        self._queued = bytearray(n)
        #: Reused fixpoint worklist (empty between propagate calls).
        self._queue: deque[int] = deque()

        #: Shared with the reference engines' dicts when provided, so the
        #: registry sees one ``simgen.implication.* / simgen.decision.*``
        #: stream regardless of backend.
        self.impl_stats = impl_stats if impl_stats is not None else {
            "propagate_calls": 0,
            "examinations": 0,
            "forced_assignments": 0,
            "conflicts": 0,
        }
        self.dec_stats = dec_stats if dec_stats is not None else {
            "decisions": 0,
            "conflicts": 0,
            "rows_committed": 0,
        }
        #: Kernel-only counters (published as ``simgen.kernel.*``).
        self.stats = {
            "compiled_nodes": n,
            "transition_tables": 0,
            "reverted_assignments": 0,
            "weights_evictions": 0,
        }

        advanced = implication_strategy is ImplicationStrategy.ADVANCED
        use_mffc = decision_strategy is DecisionStrategy.DC_MFFC
        score_rows = decision_strategy is not DecisionStrategy.RANDOM
        mffc_cache = mffc if mffc is not None else MffcCache(network)
        tables_seen: set[int] = set()
        positions: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for uid in order:
            node = network.node(uid)
            slot = slot_of[uid]
            self._examiners[slot] = tuple(
                slot_of[f] for f in (uid, *network.fanouts(uid))
            )
            if node.is_pi:
                self._is_pi[slot] = 1
                continue
            if node.is_const:
                continue
            fanins = tuple(node.fanins)
            k = len(fanins)
            fanin_slots = tuple(slot_of[f] for f in fanins)
            self._fanins[slot] = fanin_slots
            self._full_bits[slot] = ((1 << k) - 1) << k
            self._out_delta[slot] = 1 << (2 * k)
            for i, fslot in enumerate(fanin_slots):
                mask_delta = 1 << (i + k)
                positions[fslot].append(
                    (slot, mask_delta, mask_delta + (1 << i))
                )
            rows = packed_rows(node.table)
            table = transition_table(rows, k, advanced)
            if id(table) not in tables_seen:
                tables_seen.add(id(table))
                self.stats["transition_tables"] += 1
            self._tables[slot] = table
            self._exam[slot] = (
                table,
                table.states,
                table.stride,
                k,
                fanin_slots,
            )
            self._states_of[slot] = table.states
            self._rows[slot] = rows
            if score_rows:
                priorities: list[float] = []
                for mask, _vals, _out in rows:
                    # Exact float-op order of DecisionEngine.priority: the
                    # compiled weights must be bit-equal for the roulette
                    # to draw identically.
                    value = alpha * (k - mask.bit_count())
                    if use_mffc:
                        rank = 0.0
                        for i in range(k):
                            if (mask >> i) & 1:
                                rank += mffc_cache.depth(fanins[i])
                        value += beta * rank
                    priorities.append(value)
                self._priorities[slot] = priorities
                self._weights[slot] = {}
        self._pin_positions = [tuple(p) for p in positions]

    # ------------------------------------------------------------------
    # Assignment surface (uids at the edges, slots inside)
    # ------------------------------------------------------------------
    def slot(self, uid: int) -> int:
        """The dense slot index of a node."""
        return self._slot_of[uid]

    def _evict_weights(self) -> None:
        """Drop every cached weight list once the total cap is exceeded.

        Pure caches of the Equation-4 roulette weights: clearing only
        costs recomputation, never a trajectory change.
        """
        self.stats["weights_evictions"] += self._weights_entries
        for cache in self._weights:
            if cache is not None:
                cache.clear()
        self._weights_entries = 0

    def _set(self, slot: int, value: int) -> None:
        """Record a fresh assignment and update affected table indices."""
        self._values[slot] = value
        self._trail.append(slot)
        state = self._state
        if value:
            for g, _, d1 in self._pin_positions[slot]:
                state[g] += d1
            state[slot] += self._out_delta[slot] << 1
        else:
            for g, d0, _ in self._pin_positions[slot]:
                state[g] += d0
            state[slot] += self._out_delta[slot]

    def _unwind(self, slots: Sequence[int]) -> None:
        """Clear assignments and undo their table-index deltas."""
        values = self._values
        state = self._state
        pin_positions = self._pin_positions
        out_delta = self._out_delta
        for slot in slots:
            value = values[slot]
            values[slot] = -1
            if value:
                for g, _, d1 in pin_positions[slot]:
                    state[g] -= d1
                state[slot] -= out_delta[slot] << 1
            else:
                for g, d0, _ in pin_positions[slot]:
                    state[g] -= d0
                state[slot] -= out_delta[slot]

    def reset(self) -> None:
        """Clear the assignment (O(assigned), not O(network))."""
        self._unwind(self._trail)
        self._trail.clear()

    def checkpoint(self) -> int:
        """Opaque trail marker (Algorithm 1 line 4)."""
        return len(self._trail)

    def revert(self, marker: int) -> None:
        """Backtrack to a marker by unwinding the trail (line 12)."""
        trail = self._trail
        if not 0 <= marker <= len(trail):
            raise GenerationError(f"invalid checkpoint marker {marker}")
        self._unwind(trail[marker:])
        self.stats["reverted_assignments"] += len(trail) - marker
        del trail[marker:]

    def assign_uid(self, uid: int, value: int) -> bool:
        """Assign by uid; True when fresh.  Raises :class:`KernelConflict`."""
        if value not in (0, 1):
            raise GenerationError(f"assignment value must be 0/1, got {value!r}")
        slot = self._slot_of[uid]
        current = self._values[slot]
        if current >= 0:
            if current != value:
                raise KernelConflict()
            return False
        self._set(slot, value)
        return True

    def value(self, uid: int) -> Optional[int]:
        """The assigned value of a node, or ``None`` (reference API)."""
        v = self._values[self._slot_of[uid]]
        return None if v < 0 else v

    def __len__(self) -> int:
        return len(self._trail)

    def trail_uids(self) -> list[int]:
        """Assigned node ids in assignment order."""
        uids = self._uids
        return [uids[slot] for slot in self._trail]

    def pi_values(self) -> dict[int, int]:
        """Assigned PI values in assignment order (the generated vector)."""
        uids = self._uids
        values = self._values
        is_pi = self._is_pi
        return {
            uids[slot]: values[slot] for slot in self._trail if is_pi[slot]
        }

    def as_dict(self) -> dict[int, int]:
        """All assigned values in assignment order."""
        uids = self._uids
        values = self._values
        return {uids[slot]: values[slot] for slot in self._trail}

    def pis_set(self, pi_slots: Sequence[int]) -> bool:
        """Algorithm 1's ``PIsSet`` over precompiled cone PI slots."""
        values = self._values
        for slot in pi_slots:
            if values[slot] < 0:
                return False
        return True

    # ------------------------------------------------------------------
    # Implication fixpoint (paper §4)
    # ------------------------------------------------------------------
    def propagate(self, seed_slots: Sequence[int]) -> tuple[bool, int]:
        """Run implications to fixpoint from the seed slots.

        Returns ``(conflict, assigned)``.  Examination order matches the
        reference worklist exactly (FIFO over the same examiner tuples), so
        the trail the fixpoint leaves behind is identical.
        """
        values = self._values
        trail = self._trail
        examiners = self._examiners
        exam = self._exam
        states_of = self._states_of
        state = self._state
        pin_positions = self._pin_positions
        out_delta = self._out_delta
        queued = self._queued
        queue = self._queue
        push = queue.append
        pop = queue.popleft
        assigned = 0
        conflict = False
        examined = 0

        for seed in seed_slots:
            for cand in examiners[seed]:
                if not queued[cand]:
                    queued[cand] = 1
                    push(cand)
        try:
            while queue:
                slot = pop()
                queued[slot] = 0
                examined += 1
                states = states_of[slot]
                if states is None:  # PI or constant: nothing to force
                    continue
                index = state[slot]
                forced = states[index]
                if forced is False:
                    # First touch of this state: unpack the index fields
                    # and resolve through the table (cold path).
                    table, _, stride, k, _ = exam[slot]
                    output = index // stride - 1
                    rem = index - (output + 1) * stride
                    forced = table.resolve(
                        index, rem >> k, rem & ((1 << k) - 1), output
                    )
                if forced is None:
                    conflict = True
                    return True, assigned
                if not forced:
                    continue
                _, _, _, k, fanins = exam[slot]
                for i, value in forced:
                    target = slot if i == k else fanins[i]
                    current = values[target]
                    if current >= 0:
                        if current != value:
                            # Forced values can clash at a node shared with
                            # another pending implication path.
                            conflict = True
                            return True, assigned
                        continue
                    values[target] = value
                    trail.append(target)
                    assigned += 1
                    if value:
                        for g, _, d1 in pin_positions[target]:
                            state[g] += d1
                        state[target] += out_delta[target] << 1
                    else:
                        for g, d0, _ in pin_positions[target]:
                            state[g] += d0
                        state[target] += out_delta[target]
                    for cand in examiners[target]:
                        if not queued[cand]:
                            queued[cand] = 1
                            push(cand)
            return False, assigned
        finally:
            if conflict:
                # Early exits leave the worklist populated; drain it so the
                # next propagate starts clean.
                for slot in queue:
                    queued[slot] = 0
                queue.clear()
            stats = self.impl_stats
            stats["propagate_calls"] += 1
            stats["examinations"] += examined
            stats["forced_assignments"] += assigned
            if conflict:
                stats["conflicts"] += 1

    def propagate_uids(self, seeds: Sequence[int]) -> tuple[bool, int]:
        """:meth:`propagate` with uid seeds (tests / external callers)."""
        slot_of = self._slot_of
        return self.propagate([slot_of[uid] for uid in seeds])

    # ------------------------------------------------------------------
    # Decisions (paper §5)
    # ------------------------------------------------------------------
    def candidate_row_indices(self, slot: int):
        """Indices (into the slot's packed rows) the reference
        ``DecisionEngine.candidate_rows`` would return.

        ``None`` on contradiction, empty when no decision is needed.
        """
        table = self._tables[slot]
        if table is None:  # PI or constant
            return ()
        index = self._state[slot]
        indices = table.decisions[index]
        if indices is False:
            stride = table.stride
            k = table.k
            output = index // stride - 1
            rem = index - (output + 1) * stride
            indices = table.resolve_decision(
                index, rem >> k, rem & ((1 << k) - 1), output
            )
        return indices

    def candidate_rows_uid(
        self, uid: int
    ) -> Optional[list[tuple[int, int, int]]]:
        """Candidate rows of a node as packed triples (test introspection)."""
        indices = self.candidate_row_indices(self._slot_of[uid])
        if indices is None:
            return None
        rows = self._rows[self._slot_of[uid]]
        return [rows[i] for i in indices]

    def decide(
        self, slot: int, rng: random.Random
    ) -> tuple[bool, list[int]]:
        """Pick and commit one row at ``slot`` (Definition 2.3).

        Returns ``(conflict, assigned_slots)``; RNG consumption matches
        :meth:`DecisionEngine.decide` exactly (same draws, same weights).
        """
        stats = self.dec_stats
        stats["decisions"] += 1
        table = self._tables[slot]
        if table is None:  # PI or constant: nothing to decide
            return False, []
        index = self._state[slot]
        indices = table.decisions[index]
        if indices is False:
            stride = table.stride
            k = table.k
            output = index // stride - 1
            rem = index - (output + 1) * stride
            indices = table.resolve_decision(
                index, rem >> k, rem & ((1 << k) - 1), output
            )
        if indices is None:
            stats["conflicts"] += 1
            return True, []
        if not indices:
            return False, []
        stats["rows_committed"] += 1
        rows = self._rows[slot]
        if self.decision_strategy is DecisionStrategy.RANDOM:
            chosen = rng.choice(indices)
        else:
            cache = self._weights[slot]
            weights = cache.get(index)
            if weights is None:
                table_priorities = self._priorities[slot]
                priorities = [table_priorities[i] for i in indices]
                # Same shift-before-roulette transform as the reference
                # (see DecisionEngine.decide for the rationale).  Weights
                # are a pure function of (slot, state), so they are cached
                # bounded per kernel; a cache hit replays the identical
                # floats, keeping the roulette bit-exact.
                low = min(priorities)
                span = max(priorities) - low
                floor = 0.1 + 0.05 * span
                weights = [p - low + floor for p in priorities]
                self._weights_entries += 1
                if self._weights_entries > WEIGHTS_CACHE_CAP:
                    self._evict_weights()
                cache[index] = weights
            chosen = roulette_select(rng, indices, weights)
        mask, vals, out = rows[chosen]
        values = self._values
        fanins = self._fanins[slot]
        committed: list[int] = []
        for i, f in enumerate(fanins):
            if not (mask >> i) & 1:
                continue
            lit = (vals >> i) & 1
            current = values[f]
            if current >= 0:
                if current != lit:
                    # Duplicated fanins: one driver bound to opposite
                    # values by the chosen row.
                    return True, committed
                continue
            self._set(f, lit)
            committed.append(f)
        if values[slot] < 0:
            self._set(slot, out)
            committed.append(slot)
        return False, committed


class CompiledSimGenGenerator(SimGenGenerator):
    """SimGen (AI/SI + RD/DC/MFFC) running on the compiled kernel.

    A drop-in for :class:`SimGenGenerator`: same constructor, same
    ``generate`` loop, same RNG order, bit-identical vectors and reports.
    The reference engines are still constructed — they are the oracle the
    property suite compares against, and their stats dicts are shared with
    the kernel so the metrics registry sees one stream per strategy.
    """

    backend = "compiled"

    def __init__(
        self,
        network: Network,
        seed: int = 0,
        implication_strategy: ImplicationStrategy = ImplicationStrategy.ADVANCED,
        decision_strategy: DecisionStrategy = DecisionStrategy.DC_MFFC,
        vectors_per_iteration: int = 4,
        max_targets: int = 8,
        outgold_strategy: OutgoldStrategy = alternating_outgold,
        alpha: float = DEFAULT_ALPHA,
        beta: float = DEFAULT_BETA,
    ):
        super().__init__(
            network,
            seed,
            implication_strategy,
            decision_strategy,
            vectors_per_iteration,
            max_targets,
            outgold_strategy,
            alpha,
            beta,
        )
        self.kernel = CompiledSimGenKernel(
            network,
            implication_strategy,
            decision_strategy,
            alpha,
            beta,
            mffc=self.decision._mffc,
            impl_stats=self.implication.stats,
            dec_stats=self.decision.stats,
        )
        # One-vector verification through the tape-compiled simulator:
        # values are bit-identical to the reference Simulator (cross-backend
        # suite), only faster.
        self._verifier = CompiledSimulator(network)
        #: target uid -> (cone PI slots, cone membership bytearray).
        self._compiled_cones: dict[int, tuple[tuple[int, ...], bytearray]] = {}

    def _cone_slots(self, target: int) -> tuple[tuple[int, ...], bytearray]:
        cached = self._compiled_cones.get(target)
        if cached is None:
            list_dfs, cone_pis = self._cone_of(target)
            kernel = self.kernel
            slot_of = kernel._slot_of
            in_cone = bytearray(len(kernel._uids))
            for uid in list_dfs:
                in_cone[slot_of[uid]] = 1
            cached = (tuple(slot_of[uid] for uid in cone_pis), in_cone)
            self._compiled_cones[target] = cached
        return cached

    def generate_for_targets(
        self, outgold: Mapping[int, int]
    ) -> GenerationReport:
        """Algorithm 1 (getInputVectors) over the compiled kernel."""
        kernel = self.kernel
        kernel.reset()
        report = GenerationReport(vector=None)
        for target in self._order_targets(outgold):
            self._process_target_compiled(target, outgold[target], report)
        # The kernel exposes the reference Assignment read surface
        # (value / pi_values), so the inherited finalizer applies verbatim.
        return self._finalize(kernel, outgold, report)

    def _process_target_compiled(
        self, target: int, gold: int, report: GenerationReport
    ) -> None:
        kernel = self.kernel
        marker = kernel.checkpoint()  # line 4: initVals
        cone_pi_slots, in_cone = self._cone_slots(target)  # line 6
        try:
            fresh = kernel.assign_uid(target, gold)  # line 5
        except KernelConflict:
            report.conflicts += 1
            return
        if not fresh and kernel.pis_set(cone_pi_slots):
            return  # already consistent and fully propagated
        exhausted: set[int] = set()
        seeds = [kernel._slot_of[target]]  # line 7: candidateNode = target
        rng = self.rng
        while not kernel.pis_set(cone_pi_slots):  # line 8
            conflict, assigned = kernel.propagate(seeds)  # line 9
            report.implications += assigned
            if conflict:  # lines 10-13
                kernel.revert(marker)
                report.conflicts += 1
                return
            if kernel.pis_set(cone_pi_slots):
                break
            candidate = self._pick_candidate_compiled(in_cone, exhausted)
            if candidate is None:
                # Remaining unset cone PIs are unconstrained by the target;
                # they get randomized at simulation time.
                break
            conflict, committed = kernel.decide(candidate, rng)  # line 16
            if conflict:
                kernel.revert(marker)
                report.conflicts += 1
                return
            if not committed:
                exhausted.add(candidate)
                seeds = []
                continue
            report.decisions += 1
            seeds = committed

    def _pick_candidate_compiled(
        self, in_cone: bytearray, exhausted: set[int]
    ) -> Optional[int]:
        """Line 15: latest-updated cone gate still needing a decision.

        ``state & full_bits != full_bits`` iff some fanin is unassigned;
        PIs and constants have both zero, so the same test skips them.
        """
        kernel = self.kernel
        state = kernel._state
        full_bits = kernel._full_bits
        for slot in reversed(kernel._trail):
            if in_cone[slot]:
                full = full_bits[slot]
                if state[slot] & full != full and slot not in exhausted:
                    return slot
        return None


def adapt_backend(generator, backend: str):
    """Swap a SimGen-family generator to the requested backend.

    Non-SimGen generators (RandS, RevS, hybrids, ``None``) pass through
    untouched.  The twin inherits the original's RNG object, rotation
    offset, and report list, so adapting mid-stream keeps the consumption
    order intact; trajectories are bit-identical either way.
    """
    if backend not in GENERATOR_BACKENDS:
        raise GenerationError(
            f"unknown simgen backend {backend!r} "
            "(use 'batch', 'compiled', or 'reference')"
        )
    if generator is None or not isinstance(generator, SimGenGenerator):
        return generator
    if generator.backend == backend:
        return generator
    if backend == "batch":
        from repro.core.batch import BatchSimGenGenerator

        cls = BatchSimGenGenerator
    elif backend == "compiled":
        cls = CompiledSimGenGenerator
    else:
        cls = SimGenGenerator
    twin = cls(
        generator.network,
        seed=0,
        implication_strategy=generator.implication.strategy,
        decision_strategy=generator.decision.strategy,
        vectors_per_iteration=generator.vectors_per_iteration,
        max_targets=generator.max_targets,
        outgold_strategy=generator.outgold_strategy,
        alpha=generator.decision.alpha,
        beta=generator.decision.beta,
    )
    twin.rng = generator.rng
    twin.decision.rng = generator.rng
    twin._rotation = generator._rotation
    twin.reports = generator.reports
    return twin
