"""Reverse simulation — the paper's baseline (Zhang et al., DAC 2021).

Reverse simulation propagates a desired value from a target node backward
to the PIs, choosing a random compatible input assignment at every gate and
failing outright on the first conflict (paper §1, Figure 1).  It performs
the *backward* subset of implication implicitly — when only one compatible
row exists there is nothing to choose — but it never propagates forward,
never uses advanced implication, and never ranks its choices, which is
exactly the gap SimGen fills.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.core.assignment import Assignment, Conflict
from repro.core.generator import GenerationReport, TargetedVectorGenerator
from repro.logic.truthtable import TruthTable


class ReverseSimGenerator(TargetedVectorGenerator):
    """The RevS baseline of the paper's evaluation.

    The classic formulation targets a *pair* of same-class nodes with
    complementary values (paper §1 step 1); ``max_targets`` therefore
    defaults to 2, but the implementation accepts any target count for
    apples-to-apples comparisons with SimGen.
    """

    name = "revsim"

    def __init__(
        self,
        network,
        seed: int = 0,
        vectors_per_iteration: int = 4,
        max_targets: int = 2,
        outgold_strategy=None,
    ):
        from repro.core.outgold import alternating_outgold

        super().__init__(
            network,
            seed,
            vectors_per_iteration,
            max_targets,
            outgold_strategy or alternating_outgold,
        )
        #: (table, output) -> the minterms producing ``output``, ascending.
        self._minterms: dict[tuple[TruthTable, int], tuple[int, ...]] = {}

    def compatible_minterms(
        self,
        table: TruthTable,
        inputs: Sequence[Optional[int]],
        output: Optional[int],
    ) -> list[int]:
        """The complete input patterns, ascending, that produce ``output``
        and agree with every assigned pin in ``inputs``."""
        key = (table, output)
        minterms = self._minterms.get(key)
        if minterms is None:
            bits = table.bits
            minterms = self._minterms[key] = tuple(
                m for m in range(table.size) if (bits >> m) & 1 == output
            )
        care = values = 0
        for i, value in enumerate(inputs):
            if value is not None:
                care |= 1 << i
                values |= value << i
        return [m for m in minterms if m & care == values]

    def generate_for_targets(
        self, outgold: Mapping[int, int]
    ) -> GenerationReport:
        assignment = Assignment(self.network)
        report = GenerationReport(vector=None)
        for target in self._order_targets(outgold):
            self._propagate_backward(assignment, target, outgold[target], report)
        return self._finalize(assignment, outgold, report)

    def _propagate_backward(
        self,
        assignment: Assignment,
        target: int,
        gold: int,
        report: GenerationReport,
    ) -> None:
        """Steps 2-5 of the reverse-simulation procedure (paper §1)."""
        marker = assignment.checkpoint()
        try:
            assignment.assign(target, gold)
        except Conflict:
            report.conflicts += 1
            return
        stack = [target]
        while stack:
            uid = stack.pop()
            node = self.network.node(uid)
            if node.is_pi or node.is_const:
                continue
            inputs, output = assignment.pins_of(uid)
            # Reverse simulation chooses among *complete* input assignments
            # producing the desired output (paper §1 / Figure 1: "'0' to one
            # input and '1' to the other or '0' to both" — full minterms, no
            # don't-cares).  Exploiting DCs is precisely what SimGen adds.
            minterms = self.compatible_minterms(node.table, inputs, output)
            if not minterms:
                # Step 5: a conflicting assignment terminates the attempt.
                assignment.revert(marker)
                report.conflicts += 1
                return
            if len(minterms) == 1:
                chosen = minterms[0]  # forced: backward-implication case
                report.implications += 1
            else:
                chosen = self.rng.choice(minterms)  # step 3: pick randomly
                report.decisions += 1
            try:
                for i in range(node.num_fanins):
                    if inputs[i] is None:
                        value = (chosen >> i) & 1
                        if assignment.assign(node.fanins[i], value):
                            stack.append(node.fanins[i])
            except Conflict:
                assignment.revert(marker)
                report.conflicts += 1
                return
