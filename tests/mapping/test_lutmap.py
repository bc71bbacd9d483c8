"""LUT mapping: function preservation, K bound, structure."""

import pytest

from repro.errors import MappingError
from repro.mapping import compiled, lutmap, map_to_luts
from repro.network import NetworkBuilder, validate
from repro.simulation import cone_function
from tests.conftest import networks_equal, random_network


class TestFunctionPreservation:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_random_networks(self, seed, k):
        net = random_network(seed=seed, num_inputs=5, num_gates=14)
        mapped, stats = map_to_luts(net, k=k)
        validate(mapped)
        assert networks_equal(net, mapped)

    def test_exhaustive_small(self):
        builder = NetworkBuilder()
        a, b, c, d = builder.pis(4)
        g1 = builder.xor_(a, b)
        g2 = builder.and_(g1, c)
        g3 = builder.or_(g2, d)
        g4 = builder.nand_(g3, g1)
        builder.po(g4, "f")
        net = builder.build()
        mapped, _ = map_to_luts(net, k=3)
        ref, sup_a = cone_function(net, g4)
        got, sup_b = cone_function(mapped, mapped.pos[0][1])
        assert ref == got

    def test_adder_mapping(self):
        builder = NetworkBuilder()
        a = builder.pis(3, "a")
        b = builder.pis(3, "b")
        sums, carry = builder.ripple_adder(a, b)
        for s in sums:
            builder.po(s)
        builder.po(carry)
        net = builder.build()
        mapped, stats = map_to_luts(net, k=6)
        assert networks_equal(net, mapped, width=64)
        assert stats.luts < net.num_gates  # 6-LUTs absorb several gates


class TestStructure:
    def test_k_bound_respected(self):
        net = random_network(seed=7, num_inputs=6, num_gates=25)
        for k in (2, 4, 6):
            mapped, _ = map_to_luts(net, k=k)
            for node in mapped.gates():
                assert node.num_fanins <= k

    def test_po_names_preserved(self):
        net = random_network(seed=8)
        mapped, _ = map_to_luts(net)
        assert [n for n, _ in mapped.pos] == [n for n, _ in net.pos]

    def test_pi_names_and_order_preserved(self):
        net = random_network(seed=9)
        mapped, _ = map_to_luts(net)
        assert [mapped.node(p).name for p in mapped.pis] == [
            net.node(p).name for p in net.pis
        ]

    def test_stats(self):
        net = random_network(seed=10)
        mapped, stats = map_to_luts(net, k=4)
        assert stats.k == 4
        assert stats.luts == mapped.num_gates
        assert stats.depth == mapped.depth()

    def test_constant_output(self):
        builder = NetworkBuilder()
        a = builder.pi()
        g = builder.and_(a, builder.not_(a))  # constant 0
        builder.po(g, "zero")
        net = builder.build()
        mapped, _ = map_to_luts(net)
        table, _ = cone_function(mapped, mapped.pos[0][1], max_support=4)
        assert table.const_value() == 0

    def test_depth_no_worse_than_gates(self):
        net = random_network(seed=11, num_inputs=6, num_gates=30)
        mapped, stats = map_to_luts(net, k=6)
        assert stats.depth <= net.depth()

    def test_chain_deeper_than_the_recursion_limit(self):
        """k = 7 computes cut functions on the Python path: a best cut
        whose cone is a chain of 5,000 inverters is one LUT."""
        chain = NetworkBuilder("chain")
        signal = chain.pi("a")
        for _ in range(5000):
            signal = chain.not_(signal)
        chain.po(signal, "f")
        mapped, stats = map_to_luts(chain.network, k=7)
        assert (stats.luts, stats.depth) == (1, 1)
        assert networks_equal(chain.network, mapped)


class TestParameters:
    @pytest.mark.parametrize("k", [0, 17])
    def test_unbuildable_k_refused_before_any_work(self, k, monkeypatch):
        def no_work(*args):
            raise AssertionError("mapping work started")

        monkeypatch.setattr(lutmap, "enumerate_cuts", no_work)
        monkeypatch.setattr(compiled, "best_luts", no_work)
        net = random_network(seed=12)
        with pytest.raises(MappingError, match=r"k must be in \[1, 16\]"):
            map_to_luts(net, k=k)

    def test_cut_limit_below_one_refused(self):
        with pytest.raises(MappingError, match="cut_limit must be >= 1"):
            map_to_luts(random_network(seed=12), cut_limit=0)

    def test_widest_table_maps_on_the_python_path(self):
        net = random_network(seed=13, num_inputs=6, num_gates=20)
        mapped, stats = map_to_luts(net, k=16)
        assert stats.k == 16
        assert networks_equal(net, mapped)
