"""``SweepConfig.backend``: compiled and reference solvers, one sweep.

The backend selects the simulator and the solver the SAT phase runs on,
and both choices must land on the *same* sweep — identical verdicts,
counterexamples, cost histories, equivalences, and conflict/propagation
counts — serially and through the worker pool.
"""

import pytest

from repro.errors import SweepError
from repro.sweep.cec import union_network
from repro.sweep.checker import PairChecker
from repro.sweep.engine import SweepConfig, SweepEngine
from tests.conftest import random_network


def _redundant_instance(seed: int, num_gates: int = 30):
    """Two copies of one random circuit over shared PIs: every gate has an
    equivalent twin, so the sweep's SAT phase has real proving to do."""
    base = random_network(seed=seed, num_gates=num_gates)
    union, _ = union_network(base, base)
    return union


def _sweep_signature(network_seed: int, backend: str, jobs: int = 1):
    network = _redundant_instance(network_seed)
    config = SweepConfig(seed=7, iterations=4, jobs=jobs, backend=backend)
    engine = SweepEngine(network, None, config)
    result = engine.run()
    metrics = result.metrics
    counters = engine.registry.as_dict()
    return (
        metrics.proven,
        metrics.disproven,
        metrics.unknown,
        metrics.sat_calls,
        tuple(metrics.cost_history),
        tuple(result.equivalences),
        tuple(map(tuple, result.classes.all_classes())),
        counters.get("sat.solver.conflicts", 0),
        counters.get("sat.solver.propagations", 0),
    )


class TestSweepIdentity:
    @pytest.mark.parametrize("network_seed", [0, 4])
    def test_serial_identity(self, network_seed):
        compiled = _sweep_signature(network_seed, "compiled")
        reference = _sweep_signature(network_seed, "reference")
        assert compiled == reference
        assert compiled[0] > 0  # the stacked instance must prove merges

    def test_pooled_identity(self):
        compiled = _sweep_signature(2, "compiled", jobs=2)
        reference = _sweep_signature(2, "reference", jobs=2)
        assert compiled == reference

    def test_unknown_backend_rejected(self):
        network = random_network(seed=0)
        with pytest.raises(SweepError, match="unknown backend"):
            SweepEngine(network, None, SweepConfig(backend="picosat"))

    def test_checker_counts_propagations(self):
        network = _redundant_instance(1, num_gates=20)
        checker = PairChecker(network, backend="compiled")
        gates = [n.uid for n in network.gates()]
        checker.check(gates[0], gates[-1])
        assert checker.stats.propagations > 0
        assert checker.stats.calls == 1
