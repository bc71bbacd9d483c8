"""Implication engines (paper §4).

An implication assigns pin values that are *forced* by the values already
present, so it can never cause a wrong guess — the more we imply, the fewer
(risky) decisions Algorithm 1 has to make.

Two strengths are implemented, both working forward and backward
(independent of node levels, per the paper's generalized Definition 2.2):

* **Simple implication**: when exactly one truth-table row matches the
  node's current pin values, assign all of that row's non-DC pins.
* **Advanced implication** (Definition 4.1): when several rows match but
  they all agree on some pin's value, assign that pin; pins on which the
  rows disagree (or that any row leaves DC) stay open.

Both run to fixpoint through a worklist: whenever a node's output value
changes, the node itself and all its fanouts are re-examined.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from repro.logic.cubes import Row, packed_rows
from repro.core.assignment import Assignment, Conflict
from repro.network.network import Network


#: Default cap on memoized examination states across all gates of one
#: engine.  3^(k+1) states per K-input gate bounds each gate, but a large
#: network multiplies that by its gate count; the cap bounds the *total*.
#: Overflow clears every gate memo at once (they are pure caches — results
#: are recomputed on demand, trajectories are unaffected) and counts the
#: dropped entries in ``stats["memo_evictions"]``.
DEFAULT_MEMO_CAP = 1 << 20


class ImplicationStrategy(Enum):
    """How much to imply (paper §4)."""

    #: Only single-matching-row implications (classic D-algorithm style).
    SIMPLE = "simple"
    #: Additionally assign pins on which all matching rows agree (Def. 4.1).
    ADVANCED = "advanced"


@dataclass(slots=True)
class ImplicationOutcome:
    """Result of one implication fixpoint run."""

    #: True if a contradiction was found (caller must revert the target).
    conflict: bool = False
    #: Node whose examination detected the conflict (diagnostics).
    conflict_node: Optional[int] = None
    #: Number of pin values assigned by implications in this run.
    assigned: int = 0
    #: Nodes whose output value changed during the run.
    changed_nodes: list[int] = field(default_factory=list)


def _forced_pins(
    rows: list[Row],
    inputs: list[Optional[int]],
    output: Optional[int],
    advanced: bool,
) -> Optional[list[tuple[int, int]]]:
    """Pin assignments forced by the matching rows.

    Returns a list of ``(pin_index, value)`` where pin index ``i`` in
    ``[0, n)`` is fanin ``i`` and pin index ``n`` is the output, or ``None``
    when nothing is forced.  Assumes ``rows`` is non-empty and already
    filtered to those matching the assignment.
    """
    n = len(inputs)
    if len(rows) == 1:
        row = rows[0]
        forced = [
            (i, lit)
            for i, lit in enumerate(row.literals())
            if lit is not None and inputs[i] is None
        ]
        if output is None:
            forced.append((n, row.output))
        return forced or None
    if not advanced:
        return None
    forced = []
    # A pin is forced only if EVERY matching row binds it to the same value;
    # a DC row means both values remain feasible for that pin.
    for i in range(n):
        if inputs[i] is not None:
            continue
        first = rows[0].literal(i)
        if first is None:
            continue
        if all(row.literal(i) == first for row in rows[1:]):
            forced.append((i, first))
    if output is None:
        first_out = rows[0].output
        if all(row.output == first_out for row in rows[1:]):
            forced.append((n, first_out))
    return forced or None


class ImplicationEngine:
    """Runs implication fixpoints over one network + assignment.

    The network is lowered once, on the first examination (don't mutate it
    afterwards): every gate gets its fanin tuple and packed truth-table
    rows resolved ahead of time, and every node its *examiners* (itself
    plus its fanouts), so the fixpoint loop never touches ``Network.node``
    / ``fanouts`` or hashes a ``TruthTable`` for an ``lru_cache`` probe.
    An engine whose generator runs on the SimGen C core never examines,
    and so never builds these per-gate dicts.

    Examination results are memoized per gate: what a gate's rows force is
    a pure function of its (known_mask, known_values, output) pin state —
    at most ``3 ** (k + 1)`` states for a K-input LUT — so each distinct
    state filters the rows once per engine lifetime and every repeat is a
    dict hit.
    """

    def __init__(
        self,
        network: Network,
        strategy: ImplicationStrategy = ImplicationStrategy.ADVANCED,
        memo_cap: int = DEFAULT_MEMO_CAP,
    ):
        self.network = network
        self.strategy = strategy
        if memo_cap < 1:
            raise ValueError(f"memo_cap must be >= 1, got {memo_cap}")
        self._memo_cap = memo_cap
        self._memo_entries = 0
        self._lowered: Optional[tuple[dict, dict]] = None
        #: Work counters for the metrics registry (``simgen.implication.*``).
        #: Updated once per :meth:`propagate` call (never inside the inner
        #: fixpoint loop, which is the generator's hottest path).
        self.stats = {
            "propagate_calls": 0,
            "examinations": 0,
            "forced_assignments": 0,
            "conflicts": 0,
            "memo_evictions": 0,
        }

    def _lower(self) -> tuple[dict, dict]:
        """The per-gate dicts, built on first use: uid -> (fanins, packed
        rows, memo), None for PIs and constants (memo: (known_mask,
        known_values, output) -> forced pins as ((pin_index, value), ...)
        with pin index n = the output, or None on contradiction); and uid
        -> (uid, *fanouts), the nodes to re-examine when uid changes."""
        if self._lowered is None:
            network = self.network
            gate_info: dict[int, Optional[tuple]] = {}
            examiners: dict[int, tuple[int, ...]] = {}
            for node in network.nodes():
                uid = node.uid
                gate_info[uid] = (
                    None
                    if node.is_pi or node.is_const
                    else (tuple(node.fanins), packed_rows(node.table), {})
                )
                examiners[uid] = (uid, *network.fanouts(uid))
            self._lowered = (gate_info, examiners)
        return self._lowered

    @property
    def _gate_info(self) -> dict:
        return self._lower()[0]

    @property
    def _examiners(self) -> dict:
        return self._lower()[1]

    def examine(
        self, assignment: Assignment, uid: int
    ) -> Optional[list[tuple[int, int]]]:
        """Forced assignments at one gate, as ``(node_uid, value)`` pairs.

        Returns ``None`` on contradiction (no truth-table row matches the
        current pins).  Uses the packed-row fast path: pins are an integer
        (known_mask, known_values) pair, row matching is two AND operations.
        """
        info = self._gate_info[uid]
        if info is None:  # PI or constant: nothing to force
            return []
        fanins, rows, memo = info
        values = assignment._values  # hot path: direct map access
        known_mask = 0
        known_values = 0
        for i, f in enumerate(fanins):
            v = values.get(f)
            if v is not None:
                known_mask |= 1 << i
                if v:
                    known_values |= 1 << i
        output = values.get(uid)
        key = (known_mask, known_values, output)
        n = len(fanins)
        try:
            forced = memo[key]
        except KeyError:
            forced = memo[key] = self._examine_state(
                rows, n, known_mask, known_values, output
            )
            self._memo_entries += 1
            if self._memo_entries > self._memo_cap:
                self._evict_memos()
        if forced is None:
            return None
        return [
            (uid if i == n else fanins[i], value) for i, value in forced
        ]

    def _examine_state(
        self,
        rows: tuple[tuple[int, int, int], ...],
        n: int,
        known_mask: int,
        known_values: int,
        output: Optional[int],
    ) -> Optional[tuple[tuple[int, int], ...]]:
        """Uncached examination of one pin state; see :meth:`examine`."""
        if output is None and not known_mask:
            return ()  # nothing known at this node yet
        matching = [
            row
            for row in rows
            if (output is None or row[2] == output)
            and not (row[1] ^ known_values) & (row[0] & known_mask)
        ]
        if not matching:
            return None
        result: list[tuple[int, int]] = []
        if len(matching) == 1:
            mask, vals, out = matching[0]
            forced_mask = mask & ~known_mask
            i = 0
            while forced_mask:
                if forced_mask & 1:
                    result.append((i, (vals >> i) & 1))
                forced_mask >>= 1
                i += 1
            if output is None:
                result.append((n, out))  # pin n = the gate's output
            return tuple(result)
        if self.strategy is not ImplicationStrategy.ADVANCED:
            return ()
        # Advanced (Def. 4.1): pins bound to the same value in EVERY
        # matching row are forced; a DC anywhere leaves the pin open.
        base_mask, base_vals, base_out = matching[0]
        forced_mask = base_mask & ~known_mask
        out_agree = output is None
        for mask, vals, out in matching[1:]:
            forced_mask &= mask & ~(vals ^ base_vals)
            if out != base_out:
                out_agree = False
            if not forced_mask and not out_agree:
                return ()
        i = 0
        fm = forced_mask
        while fm:
            if fm & 1:
                result.append((i, (base_vals >> i) & 1))
            fm >>= 1
            i += 1
        if out_agree:
            result.append((n, base_out))
        return tuple(result)

    def _evict_memos(self) -> None:
        """Drop every gate memo once the total-entry cap is exceeded.

        Memos are pure caches of :meth:`_examine_state`, so clearing them
        never changes a trajectory — only the recomputation cost.
        """
        self.stats["memo_evictions"] += self._memo_entries
        for info in self._gate_info.values():
            if info is not None:
                info[2].clear()
        self._memo_entries = 0

    def propagate(
        self, assignment: Assignment, seeds: Iterable[int]
    ) -> ImplicationOutcome:
        """Run implications to fixpoint starting from the seed nodes.

        Seeds should be the nodes whose values were just changed (plus, on
        the first call for a target, the target itself).  Every node whose
        pins may have changed is re-examined until no new value is forced.
        """
        outcome = ImplicationOutcome()
        queue: deque[int] = deque()
        queued: set[int] = set()
        gate_info, examiners = self._lower()
        values = assignment._values
        changed = outcome.changed_nodes
        examined = 0  # folded into self.stats once, on any exit path

        # Each examined node's :meth:`examine` body is inlined below
        # (shared state lookup + memo probe) — the fixpoint loop is the
        # generator's hottest path and the per-call overhead of a million
        # method invocations is measurable.  Semantics are identical.
        for seed in seeds:
            # The node itself (its own row constraints) and everyone
            # reading it.
            for cand in examiners[seed]:
                if cand not in queued:
                    queued.add(cand)
                    queue.append(cand)

        try:
            while queue:
                uid = queue.popleft()
                queued.discard(uid)
                examined += 1
                info = gate_info[uid]
                if info is None:  # PI or constant: nothing to force
                    continue
                fanins, rows, memo = info
                known_mask = 0
                known_values = 0
                for i, f in enumerate(fanins):
                    v = values.get(f)
                    if v is not None:
                        known_mask |= 1 << i
                        if v:
                            known_values |= 1 << i
                output = values.get(uid)
                key = (known_mask, known_values, output)
                n = len(fanins)
                forced = memo.get(key, False)
                if forced is False:
                    forced = memo[key] = self._examine_state(
                        rows, n, known_mask, known_values, output
                    )
                    self._memo_entries += 1
                    if self._memo_entries > self._memo_cap:
                        self._evict_memos()
                if forced is None:
                    outcome.conflict = True
                    outcome.conflict_node = uid
                    return outcome
                for i, value in forced:
                    target = uid if i == n else fanins[i]
                    try:
                        fresh = assignment.assign(target, value)
                    except Conflict:
                        # Cannot happen for pins of `uid` (rows matched the
                        # assignment), but a forced value may clash at a node
                        # shared with another pending implication path.
                        outcome.conflict = True
                        outcome.conflict_node = target
                        return outcome
                    if fresh:
                        outcome.assigned += 1
                        changed.append(target)
                        for cand in examiners[target]:
                            if cand not in queued:
                                queued.add(cand)
                                queue.append(cand)
            return outcome
        finally:
            stats = self.stats
            stats["propagate_calls"] += 1
            stats["examinations"] += examined
            stats["forced_assignments"] += outcome.assigned
            if outcome.conflict:
                stats["conflicts"] += 1
