"""Input-vector generation: Algorithm 1 of the paper.

:class:`SimGenGenerator` implements the paper's core loop: order the target
nodes by decreasing depth; per target, assign its OUTgold value, then
alternate implication fixpoints with single decisions until the cone PIs
are set or a conflict reverts the target; finally keep the vector only if a
pair of targets with opposite OUTgold values survived.

The module also defines the generator interface shared by the baselines
(random and reverse simulation) so the sweeping engine can drive any of
them interchangeably — the "SimGen plugin" socket of Figure 2.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.core.assignment import Assignment, Conflict
from repro.core.decision import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DecisionEngine,
    DecisionStrategy,
)
from repro.core.implication import ImplicationEngine, ImplicationStrategy
from repro.core.outgold import OutgoldStrategy, alternating_outgold, select_targets
from repro.network.network import Network
from repro.network.traversal import dfs_fanin
from repro.simulation.patterns import InputVector
from repro.simulation.simulator import Simulator


@dataclass(slots=True)
class GenerationReport:
    """Result of generating one vector for a set of targets."""

    #: The vector (partial: only cone PIs are bound), or None when skipped.
    vector: Optional[InputVector]
    #: Targets whose assigned value equals their OUTgold value.
    survivors: list[int] = field(default_factory=list)
    #: True when the vector was skipped (no opposite-OUTgold pair survived).
    skipped: bool = False
    #: Values assigned by implications across the whole call.
    implications: int = 0
    #: Number of decisions taken.
    decisions: int = 0
    #: Number of targets reverted due to conflicts.
    conflicts: int = 0


class BaseVectorGenerator(ABC):
    """Interface of all simulation-vector generators.

    One :meth:`generate` call corresponds to one guided-simulation iteration
    of the paper's flow: given the current equivalence classes, produce the
    input vectors to simulate next.
    """

    name = "base"

    def __init__(self, network: Network, seed: int = 0):
        self.network = network
        self.rng = random.Random(seed)

    @abstractmethod
    def generate(self, classes: Sequence[Sequence[int]]) -> list[InputVector]:
        """Vectors for one iteration, given classes (lists of node ids)."""


class TargetedVectorGenerator(BaseVectorGenerator):
    """Shared machinery for class-targeting generators (RevS and SimGen).

    Per iteration the generator walks the classes in decreasing-size order
    (larger classes dominate the Equation-5 cost) starting from a rotating
    offset, picks target nodes and OUTgold values for each, and asks the
    concrete subclass for a vector.
    """

    def __init__(
        self,
        network: Network,
        seed: int = 0,
        vectors_per_iteration: int = 4,
        max_targets: int = 8,
        outgold_strategy: OutgoldStrategy = alternating_outgold,
    ):
        super().__init__(network, seed)
        self.vectors_per_iteration = vectors_per_iteration
        self.max_targets = max_targets
        self.outgold_strategy = outgold_strategy
        self._rotation = 0
        self.reports: list[GenerationReport] = []
        # One-vector verification simulator (see _finalize).
        self._verifier = Simulator(network)

    @abstractmethod
    def generate_for_targets(
        self, outgold: Mapping[int, int]
    ) -> GenerationReport:
        """Produce one vector realizing as many OUTgold values as possible."""

    def generate(self, classes: Sequence[Sequence[int]]) -> list[InputVector]:
        splittable = [c for c in classes if len(c) >= 2]
        splittable.sort(key=len, reverse=True)
        if not splittable:
            return []
        vectors: list[InputVector] = []
        attempts = 0
        max_attempts = max(
            self.vectors_per_iteration * 4, len(splittable)
        )
        while len(vectors) < self.vectors_per_iteration and attempts < max_attempts:
            cls = splittable[self._rotation % len(splittable)]
            self._rotation += 1
            attempts += 1
            targets = select_targets(cls, self.max_targets, self.rng)
            outgold = self.outgold_strategy(self.network, targets)
            report = self.generate_for_targets(outgold)
            self.reports.append(report)
            if report.vector is not None and not report.skipped:
                vectors.append(report.vector)
        return vectors

    # ------------------------------------------------------------------
    def _order_targets(self, outgold: Mapping[int, int]) -> list[int]:
        """Algorithm 1 line 2: decreasing network depth (level)."""
        return sorted(
            outgold, key=lambda uid: (self.network.level(uid), uid), reverse=True
        )

    def _finalize(
        self, assignment: Assignment, outgold: Mapping[int, int], report: GenerationReport
    ) -> GenerationReport:
        """Verify the vector by simulation and apply the skip criterion.

        The assignment's claimed values can be unrealizable when several
        targets interacted (a node assigned by one target's forward
        implication may never be decided inside another target's cone), so
        the candidate vector — cone PI values plus a random completion — is
        simulated once and the survivors are taken from the *actual* node
        values.  A vector that fails to realize a pair of opposite OUTgold
        values is skipped (paper §3).
        """
        claimed = [
            uid for uid, gold in outgold.items() if assignment.value(uid) == gold
        ]
        if {outgold[uid] for uid in claimed} != {0, 1}:
            report.vector = None
            report.skipped = True
            report.survivors = claimed
            return report
        candidate = InputVector(assignment.pi_values())
        full = candidate.completed(self.network.pis, self.rng)
        values = self._verifier.run_vector(full.values)
        report.survivors = [
            uid for uid, gold in outgold.items() if values[uid] == gold
        ]
        gold_values = {outgold[uid] for uid in report.survivors}
        if gold_values == {0, 1}:
            # Emit the verified completion (survivorship holds for exactly
            # these PI values, free PIs included).
            report.vector = InputVector(dict(full.values))
            report.skipped = False
        else:
            report.vector = None
            report.skipped = True
        return report


class SimGenGenerator(TargetedVectorGenerator):
    """The paper's contribution: ATPG-guided reverse simulation.

    Combines an implication strategy (§4) with a decision strategy (§5)
    inside Algorithm 1.  The default configuration is the full method,
    AI+DC+MFFC, which the paper calls simply *SimGen*.
    """

    name = "simgen"

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
            network, seed, vectors_per_iteration, max_targets, outgold_strategy
        )
        self.implication = ImplicationEngine(network, implication_strategy)
        self.decision = DecisionEngine(
            network, decision_strategy, self.rng, alpha, beta
        )
        self.name = (
            f"simgen[{implication_strategy.value}+{decision_strategy.value}]"
        )
        # Cone caches: the network is static for the generator's lifetime.
        self._dfs_cache: dict[int, list[int]] = {}
        self._cone_pi_cache: dict[int, list[int]] = {}

    def _cone_of(self, target: int) -> tuple[list[int], list[int]]:
        """(DFS list, cone PIs) of a target, cached."""
        if target not in self._dfs_cache:
            list_dfs = dfs_fanin(self.network, target)
            self._dfs_cache[target] = list_dfs
            self._cone_pi_cache[target] = [
                uid for uid in list_dfs if self.network.node(uid).is_pi
            ]
        return self._dfs_cache[target], self._cone_pi_cache[target]

    def generate_for_targets(
        self, outgold: Mapping[int, int]
    ) -> GenerationReport:
        """Algorithm 1 (getInputVectors)."""
        assignment = Assignment(self.network)
        report = GenerationReport(vector=None)
        for target in self._order_targets(outgold):
            self._process_target(assignment, target, outgold[target], report)
        return self._finalize(assignment, outgold, report)

    def _process_target(
        self,
        assignment: Assignment,
        target: int,
        gold: int,
        report: GenerationReport,
    ) -> None:
        marker = assignment.checkpoint()  # line 4: initVals
        list_dfs, cone_pis = self._cone_of(target)  # line 6
        try:
            fresh = assignment.assign(target, gold)  # line 5
        except Conflict:
            report.conflicts += 1
            return
        if not fresh and assignment.pis_set(cone_pis):
            return  # already consistent and fully propagated
        cone = set(list_dfs)
        exhausted: set[int] = set()
        seeds = [target]  # line 7: candidateNode = targetNode
        while not assignment.pis_set(cone_pis):  # line 8
            outcome = self.implication.propagate(assignment, seeds)  # line 9
            report.implications += outcome.assigned
            if outcome.conflict:  # lines 10-13
                assignment.revert(marker)
                report.conflicts += 1
                return
            if assignment.pis_set(cone_pis):
                break
            candidate = self._pick_candidate(assignment, cone, exhausted)
            if candidate is None:
                # The remaining unset cone PIs are unconstrained by the
                # target; they will be randomized at simulation time.
                break
            result = self.decision.decide(assignment, candidate)  # line 16
            if result.conflict:
                assignment.revert(marker)
                report.conflicts += 1
                return
            if not result.assigned:
                exhausted.add(candidate)
                seeds = []
                continue
            report.decisions += 1
            seeds = [uid for uid, _ in result.assigned]

    def _pick_candidate(
        self, assignment: Assignment, cone: set[int], exhausted: set[int]
    ) -> Optional[int]:
        """Line 15: latest-updated cone node still needing a decision."""
        gate_info = self.implication._gate_info  # hot path: lowered gates
        values = assignment._values
        for uid in reversed(assignment.trail()):
            if uid not in cone or uid in exhausted:
                continue
            info = gate_info[uid]
            if info is None:  # PI or constant
                continue
            for f in info[0]:
                if f not in values:
                    return uid
        return None
