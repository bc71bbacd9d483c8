"""Decision policies (paper §5: "Which row is the best?").

When no implication fires, Algorithm 1 must *decide*: pick one of the
truth-table rows compatible with the candidate node's current pins and
commit its values.  A bad pick causes a later conflict, so rows are ranked:

* ``dc_size`` (Equation 1): rows with more don't-cares bind fewer pins and
  leave more freedom for future propagations.
* ``mffc_rank`` (Equation 3): binding a pin whose driver has a *deep* MFFC
  (Equation 2) is safe — that logic feeds only this path — while binding a
  shared (shallow/absent MFFC) driver invites conflicts; rows that put their
  bound values on deep-MFFC fanins rank higher.
* ``priority`` (Equation 4): ``alpha * dc_size + beta * mffc_rank`` with
  ``alpha >> beta``.

Selection uses roulette-wheel sampling via stochastic acceptance
(Lipowski & Lipowska, 2012), exactly as the paper prescribes, so better
rows are preferred but not deterministically forced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from repro.core.assignment import Assignment, Conflict
from repro.logic.cubes import Row, rows_of
from repro.network.cones import MffcCache
from repro.network.network import Network

#: Paper §5: alpha >> beta prioritizes the DC count over the MFFC metric.
DEFAULT_ALPHA = 100.0
DEFAULT_BETA = 1.0

#: Default cap on cached per-node row resolutions.  Overflow clears the
#: cache (a pure cache: rows are re-derived on demand, trajectories are
#: unaffected) and counts dropped entries in ``stats["cache_evictions"]``.
DEFAULT_ROWS_CACHE_CAP = 1 << 16


class DecisionStrategy(Enum):
    """Row-selection policy for decisions."""

    #: Uniformly random among compatible rows (the "RD" of SI+RD / AI+RD).
    RANDOM = "random"
    #: Rank rows by don't-care count only (AI+DC).
    DC = "dc"
    #: DC count combined with the MFFC depth metric (AI+DC+MFFC = SimGen).
    DC_MFFC = "dc+mffc"


@dataclass(slots=True)
class DecisionResult:
    """Outcome of one decision attempt."""

    #: The chosen row, or None when the node was conflicting/complete.
    row: Optional[Row]
    #: True when no row matches the current pins (a contradiction).
    conflict: bool
    #: Pin assignments committed, as (node uid, value).
    assigned: list[tuple[int, int]]


def roulette_select(
    rng: random.Random, items: Sequence[Row], weights: Sequence[float]
) -> Row:
    """Roulette-wheel selection by stochastic acceptance.

    Repeatedly draws a uniformly random item and accepts it with probability
    ``weight / max_weight``; O(1) expected draws for non-degenerate weights.
    Zero/negative weights are floored to a small epsilon so every row keeps
    a nonzero chance (the paper uses priorities as probabilities, not as a
    hard filter).
    """
    if not items:
        raise ValueError("cannot select from an empty row list")
    floor = 1e-9
    safe = [max(w, floor) for w in weights]
    top = max(safe)
    while True:
        index = rng.randrange(len(items))
        if rng.random() * top <= safe[index]:
            return items[index]


class DecisionEngine:
    """Scores and applies decisions on one network."""

    def __init__(
        self,
        network: Network,
        strategy: DecisionStrategy = DecisionStrategy.DC_MFFC,
        rng: Optional[random.Random] = None,
        alpha: float = DEFAULT_ALPHA,
        beta: float = DEFAULT_BETA,
        rows_cache_cap: int = DEFAULT_ROWS_CACHE_CAP,
    ):
        self.network = network
        self.strategy = strategy
        self.rng = rng or random.Random(0)
        self.alpha = alpha
        self.beta = beta
        if rows_cache_cap < 1:
            raise ValueError(
                f"rows_cache_cap must be >= 1, got {rows_cache_cap}"
            )
        self._rows_cache_cap = rows_cache_cap
        self._mffc_cache: Optional[MffcCache] = None
        #: uid -> (fanins, rows); None for PIs/constants.  Lazily resolved
        #: so row lookups skip re-hashing the truth table per decision.
        self._node_rows: dict[
            int, Optional[tuple[tuple[int, ...], tuple[Row, ...]]]
        ] = {}
        #: Work counters for the metrics registry (``simgen.decision.*``).
        self.stats = {
            "decisions": 0,
            "conflicts": 0,
            "rows_committed": 0,
            "cache_evictions": 0,
        }

    @property
    def _mffc(self) -> MffcCache:
        """MFFC depths of the reference path, memoized from first use (a
        generator on the SimGen C core reads its lowering's instead)."""
        if self._mffc_cache is None:
            self._mffc_cache = MffcCache(self.network)
        return self._mffc_cache

    def _rows_at(
        self, uid: int
    ) -> Optional[tuple[tuple[int, ...], tuple[Row, ...]]]:
        info = self._node_rows.get(uid, self)  # self = sentinel for "unseen"
        if info is self:
            node = self.network.node(uid)
            info = (
                None
                if node.is_pi or node.is_const
                else (tuple(node.fanins), rows_of(node.table))
            )
            if len(self._node_rows) >= self._rows_cache_cap:
                # Pure cache: clearing only costs re-derivation later.
                self.stats["cache_evictions"] += len(self._node_rows)
                self._node_rows.clear()
            self._node_rows[uid] = info
        return info

    # ------------------------------------------------------------------
    # Metrics (Equations 1-4)
    # ------------------------------------------------------------------
    def dc_size(self, row: Row) -> int:
        """Equation 1: number of don't-care inputs in the row."""
        return row.dc_size()

    def mffc_rank(self, uid: int, row: Row) -> float:
        """Equation 3: sum of MFFC depths of the row's *bound* fanins."""
        info = self._rows_at(uid)
        fanins = info[0] if info else self.network.node(uid).fanins
        rank = 0.0
        for i, lit in enumerate(row.literals()):
            if lit is not None:
                rank += self._mffc.depth(fanins[i])
        return rank

    def priority(self, uid: int, row: Row) -> float:
        """Equation 4: ``alpha * dc_size + beta * mffc_rank``."""
        value = self.alpha * self.dc_size(row)
        if self.strategy is DecisionStrategy.DC_MFFC:
            value += self.beta * self.mffc_rank(uid, row)
        return value

    # ------------------------------------------------------------------
    def candidate_rows(
        self, assignment: Assignment, uid: int
    ) -> Optional[list[Row]]:
        """Rows compatible with the node's pins that would assign something.

        Returns ``None`` if *no* row matches at all (contradiction); returns
        an empty list when the node is already fully determined.
        """
        info = self._rows_at(uid)
        if info is None:  # PI or constant
            return []
        fanins, rows = info
        values = assignment._values
        known_mask = 0
        known_values = 0
        for i, f in enumerate(fanins):
            v = values.get(f)
            if v is not None:
                known_mask |= 1 << i
                if v:
                    known_values |= 1 << i
        output = values.get(uid)
        matching = [
            row
            for row in rows
            if (output is None or row.output == output)
            and not (row.cube.values ^ known_values) & (row.cube.mask & known_mask)
        ]
        if not matching:
            return None
        useful = []
        for row in matching:
            binds_new = bool(row.cube.mask & ~known_mask)
            if not binds_new and output is not None:
                # A matching row whose bound pins are all already assigned
                # covers every completion of the free pins: the node's value
                # is guaranteed and no decision is needed here at all.
                return []
            if binds_new or output is None:
                useful.append(row)
        return useful

    def decide(self, assignment: Assignment, uid: int) -> DecisionResult:
        """Pick and commit one row at ``uid`` (paper Definition 2.3).

        Only previously unassigned pins are written, so committing a
        matching row can never raise a conflict.
        """
        self.stats["decisions"] += 1
        rows = self.candidate_rows(assignment, uid)
        if rows is None:
            self.stats["conflicts"] += 1
            return DecisionResult(row=None, conflict=True, assigned=[])
        if not rows:
            return DecisionResult(row=None, conflict=False, assigned=[])
        self.stats["rows_committed"] += 1
        if self.strategy is DecisionStrategy.RANDOM:
            row = self.rng.choice(rows)
        else:
            priorities = [self.priority(uid, row) for row in rows]
            # Shift by the minimum before the roulette: Equation 4's alpha
            # dwarfs beta, so raw priorities of equal-DC rows differ by a
            # fraction of a percent and proportional selection would wash
            # the MFFC heuristic out.  The shift preserves Eq. 4's ordering
            # while making the preference effective; the floor keeps every
            # row selectable (the paper treats priorities as probabilities,
            # not a hard filter).
            low = min(priorities)
            span = max(priorities) - low
            floor = 0.1 + 0.05 * span
            weights = [p - low + floor for p in priorities]
            row = roulette_select(self.rng, rows, weights)
        node = self.network.node(uid)
        inputs, output = assignment.pins_of(uid)
        committed: list[tuple[int, int]] = []
        try:
            for i, lit in enumerate(row.literals()):
                if lit is not None and inputs[i] is None:
                    if assignment.assign(node.fanins[i], lit):
                        committed.append((node.fanins[i], lit))
            if output is None:
                if assignment.assign(uid, row.output):
                    committed.append((uid, row.output))
        except Conflict:
            # Possible only with duplicated fanins (one driver at two pin
            # positions bound to opposite values by the chosen row).
            return DecisionResult(row=row, conflict=True, assigned=committed)
        return DecisionResult(row=row, conflict=False, assigned=committed)
