"""Combinational equivalence checking built on the sweeping engine.

CEC of two circuits (paper §2.2): place both over shared PIs in one
*union* network, sweep it so internal equivalences are proven cheaply and
internal differences are disproven by simulation, then resolve each output
pair — by the sweep's verdict when available, by a fallback SAT call
otherwise.  The fallback miters are answered by the sweep engine's own
verdict seam (:meth:`SweepEngine.answer`), so they share the sweep's
journal, metric accounting and budget for any worker count.

Verdicts are tri-state: a run cut short by a :class:`Budget` deadline or
an interrupt reports the unresolved outputs ``"unknown"`` and sets
``conclusive=False`` — it is **never** folded into ``"different"``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.generator import BaseVectorGenerator
from repro.errors import SweepError
from repro.network.network import Network
from repro.obs import NULL_TRACER
from repro.sat.solver import SatResult
from repro.simulation.patterns import InputVector, PatternBatch
from repro.sweep.engine import SweepConfig, SweepEngine, SweepMetrics


@dataclass(slots=True)
class CecResult:
    """Verdict of a CEC run."""

    #: True if every output pair was proven equivalent.
    equivalent: bool
    #: Per-output verdicts: name -> "equal" | "different" | "unknown".
    outputs: dict[str, str] = field(default_factory=dict)
    #: A distinguishing input vector if any output pair differs.
    counterexample: Optional[InputVector] = None
    #: Metrics of the underlying sweep (plus the fallback miter calls).
    metrics: Optional[SweepMetrics] = None
    #: False when any output is "unknown" (budget expiry, conflict limit,
    #: or interrupt): the circuits were neither proven equal nor different.
    conclusive: bool = True

    @property
    def verdict(self) -> str:
        """``"equivalent"`` | ``"different"`` | ``"inconclusive"``."""
        if any(state == "different" for state in self.outputs.values()):
            return "different"
        if not self.conclusive:
            return "inconclusive"
        return "equivalent"


def union_network(network_a: Network, network_b: Network) -> tuple[
    Network, list[tuple[str, int, int]]
]:
    """Both circuits over shared PIs; returns (union, PO pair list).

    PIs are matched by position, POs by position; the returned pair list
    holds ``(po_name, node_in_a_copy, node_in_b_copy)``.
    """
    if len(network_a.pis) != len(network_b.pis):
        raise SweepError("PI count mismatch")
    if len(network_a.pos) != len(network_b.pos):
        raise SweepError("PO count mismatch")
    union = Network(f"union({network_a.name},{network_b.name})")
    shared = [union.add_pi(network_a.node(pi).name) for pi in network_a.pis]

    def copy(source: Network) -> dict[int, int]:
        mapping = dict(zip(source.pis, shared))
        for uid in source.topological_order():
            node = source.node(uid)
            if node.is_pi:
                continue
            mapping[uid] = union.add_gate(
                node.table, tuple(mapping[f] for f in node.fanins)
            )
        return mapping

    map_a = copy(network_a)
    map_b = copy(network_b)
    pairs = []
    for (name, uid_a), (_, uid_b) in zip(network_a.pos, network_b.pos):
        node_a = map_a[uid_a]
        node_b = map_b[uid_b]
        union.add_po(node_a, f"a_{name}")
        union.add_po(node_b, f"b_{name}")
        pairs.append((name, node_a, node_b))
    return union, pairs


def check_equivalence(
    network_a: Network,
    network_b: Network,
    generator_factory=None,
    config: Optional[SweepConfig] = None,
) -> CecResult:
    """Sweep-accelerated CEC of two circuits.

    Args:
        network_a, network_b: Circuits with matching PI/PO interfaces.
        generator_factory: ``(network, seed) -> BaseVectorGenerator`` used
            for guided simulation inside the sweep (None = random only).
        config: Sweep configuration; its ``budget`` (if any) governs the
            sweep *and* the per-output fallback SAT calls.
    """
    config = config or SweepConfig()
    tracer = config.tracer if config.tracer is not None else NULL_TRACER
    with tracer.span("run", kind="cec"):
        return _check_equivalence_traced(
            network_a, network_b, generator_factory, config, tracer
        )


def _check_equivalence_traced(
    network_a: Network,
    network_b: Network,
    generator_factory,
    config: SweepConfig,
    tracer,
) -> CecResult:
    budget = config.budget
    with tracer.span("phase", phase="cec.build"):
        union, pairs = union_network(network_a, network_b)
        generator: Optional[BaseVectorGenerator] = None
        if generator_factory is not None:
            generator = generator_factory(union, config.seed)
        engine = SweepEngine(union, generator, config)
    sweep = engine.run()

    proven = {(a, b) for a, b, comp in sweep.equivalences if not comp}
    proven |= {(b, a) for a, b in proven}
    # A PO pair proven *complement*-equivalent differs on every input, so
    # it resolves to "different" for free — one cheap simulation recovers
    # a counterexample instead of a fresh SAT call.
    comp_proven = {(a, b) for a, b, comp in sweep.equivalences if comp}
    comp_proven |= {(b, a) for a, b in comp_proven}

    result = CecResult(equivalent=True, metrics=sweep.metrics)
    #: One lazily simulated total vector, shared by every complement-proven
    #: pair (any input distinguishes complements).
    witness: Optional[tuple[InputVector, dict[int, int]]] = None

    def complement_witness() -> Optional[tuple[InputVector, dict[int, int]]]:
        nonlocal witness
        if witness is None:
            batch = PatternBatch(union.pis, random.Random(config.seed))
            batch.add_random(1)
            values = engine._sim_batch(engine.simulator, batch, sweep.metrics)
            if values is None:
                return None
            witness = (batch.vector_at(0), values)
        return witness

    def resolve_from_sweep(name: str, node_a: int, node_b: int) -> bool:
        """Resolve a PO pair from the sweep's verdicts alone, if possible."""
        if node_a == node_b or (node_a, node_b) in proven:
            result.outputs[name] = "equal"
            return True
        if (node_a, node_b) in comp_proven:
            result.outputs[name] = "different"
            result.equivalent = False
            if result.counterexample is None:
                data = complement_witness()
                if data is not None and (
                    (data[1][node_a] ^ data[1][node_b]) & 1
                ):
                    result.counterexample = data[0]
            return True
        return False

    metrics = sweep.metrics
    pending: list[tuple[str, int, int]] = []
    fallback_calls = 0
    try:
        with tracer.span("phase", phase="cec.resolve"):
            for name, node_a, node_b in pairs:
                if resolve_from_sweep(name, node_a, node_b):
                    continue
                if metrics.interrupted or (
                    budget is not None and budget.expired()
                ):
                    result.outputs[name] = "unknown"
                    result.equivalent = False
                    continue
                pending.append((name, node_a, node_b))
        if pending:
            # One SAT back end answers every fallback miter, through the
            # sweep's verdict seam: journal replay, budget and one timer
            # owner per attempt (``sat_time == sum(sat_time_per_attempt)``)
            # as for any sweep pair; the wall window goes to
            # ``sat_phase_time``.  Verdicts merge in PO order, so the
            # counterexample (the first differing PO) is
            # worker-count-invariant.
            queries = [(a, b, False, 0) for _, a, b in pending]
            start = time.perf_counter()
            with tracer.span("phase", phase="cec.sat"):
                solver = engine.open_solver(union)
                try:
                    verdicts = engine.answer(solver, queries, metrics)
                finally:
                    engine.close_solver(solver, metrics)
                    metrics.sat_phase_time += time.perf_counter() - start
            fallback_calls = len(verdicts)
            metrics.sat_calls += fallback_calls
            for (name, _, _), verdict in zip(pending, verdicts):
                if verdict.outcome is SatResult.UNSAT:
                    result.outputs[name] = "equal"
                elif verdict.outcome is SatResult.SAT:
                    result.outputs[name] = "different"
                    result.equivalent = False
                    if result.counterexample is None:
                        result.counterexample = verdict.vector
                else:
                    result.outputs[name] = "unknown"
                    result.equivalent = False
    except KeyboardInterrupt:
        metrics.interrupted = True
        for name, _, _ in pairs:
            if name not in result.outputs:
                result.outputs[name] = "unknown"
                result.equivalent = False

    result.conclusive = "unknown" not in result.outputs.values()
    engine.registry.inc_many(
        "cec",
        {
            "fallback_calls": fallback_calls,
            "outputs_equal": sum(
                1 for s in result.outputs.values() if s == "equal"
            ),
            "outputs_different": sum(
                1 for s in result.outputs.values() if s == "different"
            ),
            "outputs_unknown": sum(
                1 for s in result.outputs.values() if s == "unknown"
            ),
        },
    )
    if tracer.enabled:
        tracer.counters(engine.registry.as_dict())
    return result
