"""Equivalence classes and the Equation-5 cost metric.

Nodes whose outputs agree across every simulated pattern share a class; a
class of size *s* may require up to *s - 1* SAT calls to resolve, so the
paper scores a partition by ``cost = sum(size(i) - 1)`` (Equation 5) —
lower cost means simulation separated more non-equivalent nodes for free.

Classes are refined incrementally: each new signature batch splits every
class by signature value.  Optional complement matching canonicalizes
signatures by their first pattern bit so that a node and its complement
share a class, tracked through a per-member *phase* (as ABC's fraiging
does).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Optional

from repro.errors import SweepError
from repro.network.network import Network
from repro.simulation.bitvec import width_mask


class EquivalenceClasses:
    """A partition of candidate nodes, refined by simulation signatures.

    The Equation-5 cost is maintained incrementally (it is simply
    ``#members - #classes``, since every class contributes ``size - 1``),
    and a lazy max-heap work queue serves :meth:`best_splittable` — the
    class a SAT phase should attack next — without re-sorting every class
    on every query.  Heap entries are ``(-size, first_member, class_id,
    version)`` snapshots.  Every mutation of a class bumps its version
    stamp and pushes exactly one snapshot of its new state, so a snapshot
    is current iff its version is the class's latest; superseded ones are
    discarded on pop and never re-pushed.  Classes only ever shrink, so a
    class that drops below two members loses its stamp for good, and the
    stamped ids are exactly the splittable classes.
    """

    def __init__(
        self,
        network: Network,
        members: Optional[Iterable[int]] = None,
        include_pis: bool = False,
        match_complements: bool = False,
    ):
        self.network = network
        self.match_complements = match_complements
        if members is None:
            members = [
                node.uid
                for node in network.nodes()
                if node.is_gate or (include_pis and node.is_pi)
            ]
        member_list = sorted(set(members))
        for uid in member_list:
            network.node(uid)  # existence check
        self._class_of: dict[int, int] = {uid: 0 for uid in member_list}
        self._classes: dict[int, set[int]] = (
            {0: set(member_list)} if member_list else {}
        )
        self._phase: dict[int, int] = {uid: 0 for uid in member_list}
        self._next_class = 1
        self.refinements = 0
        # Version stamp of every splittable class (size >= 2), keyed by id.
        self._version: dict[int, int] = {}
        self._work: list[tuple[int, int, int, int]] = []
        if len(member_list) >= 2:
            self._push_work(0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_members(self) -> int:
        return len(self._class_of)

    @property
    def num_classes(self) -> int:
        return len(self._classes)

    def members(self) -> list[int]:
        """All tracked node ids."""
        return sorted(self._class_of)

    def class_of(self, uid: int) -> list[int]:
        """The members of the class containing ``uid`` (sorted)."""
        if uid not in self._class_of:
            raise SweepError(f"node {uid} is not tracked")
        return sorted(self._classes[self._class_of[uid]])

    def tracked(self, uid: int) -> bool:
        """True if the node is (still) a tracked member."""
        return uid in self._class_of

    def same_class(self, a: int, b: int) -> bool:
        """True if two tracked nodes currently share a class."""
        if a not in self._class_of or b not in self._class_of:
            raise SweepError("both nodes must be tracked")
        return self._class_of[a] == self._class_of[b]

    def phase(self, uid: int) -> int:
        """Complement phase of a member relative to its class canonical form.

        Always 0 unless ``match_complements`` is enabled.  Two members with
        different phases are candidate *complement* equivalences.
        """
        if uid not in self._phase:
            raise SweepError(f"node {uid} is not tracked")
        return self._phase[uid]

    def splittable(self) -> list[list[int]]:
        """Classes that still need work (size >= 2), largest first."""
        result = [sorted(self._classes[class_id]) for class_id in self._version]
        result.sort(key=lambda c: (-len(c), c[0]))
        return result

    def all_classes(self) -> list[list[int]]:
        """Every class, including singletons."""
        return sorted(
            (sorted(m) for m in self._classes.values()),
            key=lambda c: (-len(c), c[0]),
        )

    def cost(self) -> int:
        """Equation 5: worst-case SAT calls left, ``sum(size - 1)``.

        O(1): classes are never empty, so the sum telescopes to
        ``#members - #classes``.
        """
        return len(self._class_of) - len(self._classes)

    def splittable_members(self) -> list[int]:
        """Members of classes that still need work (size >= 2)."""
        return [
            uid
            for members in self._classes.values()
            if len(members) >= 2
            for uid in members
        ]

    # ------------------------------------------------------------------
    # Work queue
    # ------------------------------------------------------------------
    def _push_work(self, class_id: int) -> None:
        """Record a mutation of ``class_id``: new version, one snapshot."""
        members = self._classes.get(class_id)
        if members is None or len(members) < 2:
            self._version.pop(class_id, None)  # never splittable again
            return
        version = self._version.get(class_id, 0) + 1
        self._version[class_id] = version
        heapq.heappush(
            self._work, (-len(members), min(members), class_id, version)
        )

    def best_splittable(self) -> Optional[list[int]]:
        """``splittable()[0]`` served from the work queue, or ``None``.

        Amortized O(log #pushes) per call, plus sorting the returned
        class: every mutation pushes exactly one snapshot, and a
        superseded snapshot is popped once and dropped.  It must never be
        re-pushed — the mutation already queued the current state, and a
        duplicate per call would make draining a class of *n* members cost
        O(n^2) pushes.
        """
        work = self._work
        version = self._version
        while work:
            _, _, class_id, stamp = work[0]
            if version.get(class_id) == stamp:
                return sorted(self._classes[class_id])
            heapq.heappop(work)  # superseded by a later mutation
        return None

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def refine(self, signatures: Mapping[int, int], width: int) -> int:
        """Split classes by the new signature batch; returns #splits.

        Args:
            signatures: node id -> packed simulation word (must cover every
                tracked member).
            width: number of patterns in the batch.
        """
        if width <= 0:
            return 0
        mask = width_mask(width)
        splits = 0
        for class_id in sorted(self._version):
            members = self._classes[class_id]
            groups: dict[int, list[int]] = {}
            phases: dict[int, int] = {}
            for uid in members:
                if uid not in signatures:
                    raise SweepError(f"signature missing for node {uid}")
                sig = signatures[uid] & mask
                if self.match_complements:
                    # Canonicalize by the first pattern bit so f and NOT f
                    # land in the same bucket with opposite phases.
                    if sig & 1:
                        sig = sig ^ mask
                        phases[uid] = 1
                    else:
                        phases[uid] = 0
                else:
                    phases[uid] = 0
                groups.setdefault(sig, []).append(uid)
            if len(groups) == 1:
                for uid, phase in phases.items():
                    self._phase[uid] = phase
                continue
            # Keep the largest group in place; move the rest out.
            ordered = sorted(groups.values(), key=len, reverse=True)
            for uid, phase in phases.items():
                self._phase[uid] = phase
            for group in ordered[1:]:
                new_id = self._next_class
                self._next_class += 1
                self._classes[new_id] = set(group)
                for uid in group:
                    members.discard(uid)
                    self._class_of[uid] = new_id
                splits += 1
                self._push_work(new_id)
            self._push_work(class_id)
        self.refinements += 1
        return splits

    # ------------------------------------------------------------------
    # SAT-phase bookkeeping
    # ------------------------------------------------------------------
    def remove_member(self, uid: int) -> None:
        """Drop a node (proven equivalent to its representative, or given up)."""
        if uid not in self._class_of:
            raise SweepError(f"node {uid} is not tracked")
        class_id = self._class_of.pop(uid)
        members = self._classes[class_id]
        members.discard(uid)
        if not members:
            del self._classes[class_id]
        self._push_work(class_id)
        del self._phase[uid]

    def isolate(self, uid: int) -> None:
        """Move a node into its own fresh singleton class."""
        if uid not in self._class_of:
            raise SweepError(f"node {uid} is not tracked")
        old = self._class_of[uid]
        if len(self._classes[old]) == 1:
            return
        self._classes[old].discard(uid)
        self._push_work(old)
        new_id = self._next_class
        self._next_class += 1
        self._classes[new_id] = {uid}
        self._class_of[uid] = new_id
        self._phase[uid] = 0
