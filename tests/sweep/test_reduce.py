"""Network reduction from proven equivalences."""

import pytest

from repro.core import make_generator
from repro.network import NetworkBuilder, validate
from repro.sweep import (
    SweepConfig,
    SweepEngine,
    reduce_network,
    sweep_and_reduce,
)
from tests.conftest import networks_equal, random_network


def redundant_network():
    builder = NetworkBuilder()
    a, b, c = builder.pis(3)
    g1 = builder.and_(a, b)
    g2 = builder.not_(builder.nand_(a, b))  # == g1
    g3 = builder.nand_(a, b)  # == NOT g1
    builder.po(builder.or_(g1, c), "o0")
    builder.po(builder.or_(g2, c), "o1")
    builder.po(g3, "o2")
    return builder.build(), (g1, g2, g3)


class TestReduceNetwork:
    def test_merge_preserves_function(self):
        net, (g1, g2, g3) = redundant_network()
        reduced, stats = reduce_network(net, [(g1, g2, False)])
        validate(reduced)
        assert networks_equal(net, reduced)
        assert stats.merged == 1
        assert stats.gates_after < stats.gates_before

    def test_complemented_merge_adds_inverter(self):
        net, (g1, g2, g3) = redundant_network()
        reduced, stats = reduce_network(net, [(g1, g3, True)])
        validate(reduced)
        assert networks_equal(net, reduced)
        assert stats.inverters_added == 1

    def test_chained_equivalences_resolve(self):
        net, (g1, g2, g3) = redundant_network()
        reduced, stats = reduce_network(
            net, [(g1, g2, False), (g2, g3, True)]
        )
        validate(reduced)
        assert networks_equal(net, reduced)
        assert stats.merged == 2

    def test_duplicate_equivalence_ignored(self):
        net, (g1, g2, g3) = redundant_network()
        reduced, stats = reduce_network(
            net, [(g1, g2, False), (g2, g1, False)]
        )
        assert stats.merged == 1

    def test_original_untouched(self):
        net, (g1, g2, g3) = redundant_network()
        before = net.num_gates
        reduce_network(net, [(g1, g2, False)])
        assert net.num_gates == before


class TestSweepAndReduce:
    @pytest.mark.parametrize("seed", [2, 11, 23])
    def test_end_to_end_function_preserved(self, seed):
        net = random_network(seed=seed, num_inputs=5, num_gates=18)
        engine = SweepEngine(
            net,
            make_generator("AI+DC+MFFC", net, seed=1),
            SweepConfig(seed=3, iterations=5),
        )
        result = engine.run()
        reduced, stats = sweep_and_reduce(net, result)
        validate(reduced)
        assert networks_equal(net, reduced)
        assert stats.merged == len(
            {frozenset((a, b)) for a, b, _ in result.equivalences}
        )

    def test_reduction_with_complements_enabled(self):
        net = random_network(seed=5, num_inputs=5, num_gates=18)
        engine = SweepEngine(
            net,
            make_generator("AI+DC+MFFC", net, seed=1),
            SweepConfig(seed=3, iterations=5, match_complements=True,
                        random_width=16),
        )
        result = engine.run()
        reduced, _ = sweep_and_reduce(net, result)
        validate(reduced)
        assert networks_equal(net, reduced)


class TestLevels:
    def test_reducing_a_swept_network_builds_no_clone_levels(
        self, monkeypatch
    ):
        """The merge loop ranks nodes by the swept network's levels; the
        fresh clone (same ids and fanins until the loop ends) never
        rebuilds its own."""
        from repro.network.network import Network

        net = random_network(seed=11, num_inputs=5, num_gates=18)
        engine = SweepEngine(
            net,
            make_generator("AI+DC+MFFC", net, seed=1),
            SweepConfig(seed=3, iterations=5),
        )
        result = engine.run()
        assert result.equivalences
        builds = []
        original = Network.levels

        def counted(network):
            if network._levels is None:
                builds.append(network)
            return original(network)

        monkeypatch.setattr(Network, "levels", counted)
        reduced, stats = sweep_and_reduce(net, result)
        assert stats.merged
        assert all(network is net for network in builds)
        assert networks_equal(net, reduced)
