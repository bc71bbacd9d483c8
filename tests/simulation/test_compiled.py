"""CompiledSimulator: bit-identical to Simulator on the C core.

Without the core (no C compiler, ``REPRO_CCORES=python``) the class cannot
be built and the sweep engine runs :class:`Simulator` itself, so every test
here skips.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.logic import TruthTable
from repro.network import NetworkBuilder
from repro.network.network import Network
from repro.network.traversal import cone_topological_order
from repro.simulation import CompiledSimulator, PatternBatch, Simulator
from repro.simulation import compiled as compiled_mod
from tests.conftest import random_network

#: Widths straddling the 64-bit word boundary, and the empty batch.
WIDTHS = (0, 1, 63, 64, 65, 128, 130, 200)

pytestmark = pytest.mark.skipif(
    compiled_mod.SIM_CORE != "c", reason="no C compiler available"
)

#: The core in the ids of the tests that also ran a Python evaluator,
#: which ``CompiledSimulator`` no longer has.
CORES = ("c",)


@st.composite
def networks(draw):
    """Networks with constants, constant-function gates, repeated fanins
    (every fanin is drawn with replacement) and 1-6-input gates."""
    network = Network("fuzz")
    nodes = [network.add_pi() for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["gate", "gate", "gate", "const", "flat"]))
        if kind == "const":
            nodes.append(network.add_const(draw(st.booleans())))
            continue
        arity = draw(st.integers(1, 6))
        fanins = [draw(st.sampled_from(nodes)) for _ in range(arity)]
        if kind == "flat":
            table = TruthTable.const(arity, draw(st.booleans()))
        else:
            table = TruthTable(arity, draw(st.integers(0, (1 << (1 << arity)) - 1)))
        nodes.append(network.add_gate(table, fanins))
    return network


class TestDifferential:
    """Random networks, widths and target sets against the reference."""

    @pytest.mark.parametrize("core", CORES)
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_reference_on_the_cone(self, core, data):
        network = data.draw(networks())
        uids = network.node_ids()
        width = data.draw(st.sampled_from(WIDTHS))
        # Oversized PI words: bits at or above `width` must not leak.
        words = {
            pi: data.draw(st.integers(0, (1 << (width + 70)) - 1))
            for pi in network.pis
        }
        targets = data.draw(
            st.one_of(st.none(), st.lists(st.sampled_from(uids), max_size=5))
        )
        reference = Simulator(network).run_words(words, width)
        full = CompiledSimulator(network)
        direct = CompiledSimulator(network, targets=targets)
        before = compiled_mod.tape_cache_info()
        view = full if targets is None else full.restrict(targets)
        after = compiled_mod.tape_cache_info()
        # restrict() builds a view over the same lowering.
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + (targets is not None)
        assert view.stats is full.stats
        if targets is None:
            order = network.topological_order()
        else:
            order = cone_topological_order(network, targets)
        cone_pis = tuple(uid for uid in order if network.node(uid).is_pi)
        for sim in (direct, view):
            assert sim.compiled_pis == cone_pis
            assert sim.num_nodes == len(order)
            # Only the cone PIs are required.
            values = sim.run_words(
                {pi: words[pi] for pi in cone_pis}, width
            )
            assert set(values) == set(order)
            for uid, word in values.items():
                assert word == reference[uid], uid

    @pytest.mark.parametrize("core", CORES)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_buffers_survive_width_changes(self, core, width):
        """One instance runs batches of every width in turn."""
        net = random_network(seed=width, num_inputs=6, num_gates=30)
        rng = random.Random(width)
        sim = CompiledSimulator(net)
        view = sim.restrict([next(uid for _, uid in net.pos)])
        for w in (width, 200, 1, width):
            words = {pi: rng.getrandbits(w + 64) for pi in net.pis}
            reference = Simulator(net).run_words(words, w)
            assert sim.run_words(words, w) == reference
            for uid, word in view.run_words(words, w).items():
                assert word == reference[uid]


class TestAgainstSimulator:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_networks(self, seed):
        net = random_network(seed=seed, num_inputs=6, num_gates=20)
        batch = PatternBatch.random_for(net, 100, random.Random(seed))
        expected = Simulator(net).run_batch(batch)
        actual = CompiledSimulator(net).run_batch(batch)
        assert actual == expected

    @pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 130])
    def test_partial_width_masking(self, width):
        net = random_network(seed=3, num_inputs=5, num_gates=15)
        rng = random.Random(width)
        # Deliberately oversized PI words: bits above `width` must be masked.
        words = {pi: rng.getrandbits(192) for pi in net.pis}
        expected = Simulator(net).run_words(words, width)
        actual = CompiledSimulator(net).run_words(words, width)
        assert actual == expected

    def test_run_vector_and_output_words(self, and_or_network):
        net, ids = and_or_network
        sim = CompiledSimulator(net)
        out = sim.run_vector({ids["a"]: 1, ids["b"]: 1, ids["c"]: 0})
        assert out[ids["out"]] == 1
        batch = PatternBatch.random_for(net, 16, random.Random(0))
        values = sim.run_batch(batch)
        assert sim.output_words(values) == Simulator(net).output_words(
            Simulator(net).run_batch(batch)
        )


class TestConstantFolding:
    """Constant nodes and gates over them: nothing is folded at lowering
    (a constant node is one store per word), and values stay identical."""

    def build_with_consts(self):
        builder = NetworkBuilder()
        a, b = builder.pis(2)
        one = builder.const(True)
        zero = builder.const(False)
        g1 = builder.and_(a, one)       # equals a
        g2 = builder.or_(b, zero)       # equals b
        g3 = builder.and_(g1, zero)     # constant 0
        g4 = builder.or_(g2, one)       # constant 1
        out = builder.xor_(g3, g4)
        builder.po(out)
        return builder.build(), (a, b, one, zero, g1, g2, g3, g4, out)

    def test_folded_constants_bit_identical(self):
        net, _ = self.build_with_consts()
        batch = PatternBatch.random_for(net, 64, random.Random(1))
        assert CompiledSimulator(net).run_batch(batch) == Simulator(
            net
        ).run_batch(batch)

    def test_const_only_network(self):
        builder = NetworkBuilder()
        one = builder.const(True)
        builder.po(one)
        net = builder.build()
        sim = CompiledSimulator(net)
        assert sim.run_words({}, 5)[one] == 0b11111
        assert sim.num_gate_ops == 0


class TestConeRestriction:
    def test_targets_restrict_nodes_and_pis(self, fig4_network):
        net, ids = fig4_network
        sim = CompiledSimulator(net, targets=[ids["x"]])
        values = sim.run_batch(PatternBatch.random_for(net, 8, random.Random(0)))
        # Only x's cone (m, n, x and their PIs) is simulated.
        assert ids["x"] in values
        assert ids["t"] not in values and ids["y"] not in values
        assert set(sim.compiled_pis) < set(net.pis)

    def test_cone_values_match_full_simulation(self, fig4_network):
        net, ids = fig4_network
        batch = PatternBatch.random_for(net, 64, random.Random(7))
        full = Simulator(net).run_batch(batch)
        cone = CompiledSimulator(net, targets=[ids["z"], ids["t"]]).run_batch(
            batch
        )
        for uid, word in cone.items():
            assert word == full[uid]

    def test_cone_run_accepts_only_cone_pis(self, fig4_network):
        net, ids = fig4_network
        sim = CompiledSimulator(net, targets=[ids["m"]])
        rng = random.Random(3)
        words = {pi: rng.getrandbits(4) for pi in sim.compiled_pis}
        out = sim.run_words(words, 4)  # non-cone PIs not required
        assert ids["m"] in out

    def test_unknown_target_rejected(self, fig4_network):
        net, _ = fig4_network
        with pytest.raises(Exception):
            CompiledSimulator(net, targets=[10**9])


class TestErrorsAndFallback:
    def test_missing_pi_rejected(self, and_or_network):
        net, ids = and_or_network
        with pytest.raises(SimulationError, match="missing word"):
            CompiledSimulator(net).run_words({ids["a"]: 1}, 1)

    def test_negative_width_rejected(self, and_or_network):
        net, _ = and_or_network
        with pytest.raises(SimulationError):
            CompiledSimulator(net).run_words({}, -1)

    @pytest.mark.parametrize("core", CORES)
    def test_missing_cone_pi_rejected(self, core, fig4_network):
        net, ids = fig4_network
        sim = CompiledSimulator(net).restrict([ids["x"]])
        words = {pi: 1 for pi in sim.compiled_pis[1:]}
        with pytest.raises(SimulationError, match="missing word"):
            sim.run_words(words, 1)

    def test_no_core_falls_back_to_simulator(self, monkeypatch, fig4_network):
        """Without the core the class refuses to build, and a sweep on the
        ``compiled`` backend simulates on the reference Simulator."""
        from repro.sweep import engine as engine_mod

        net, _ = fig4_network
        monkeypatch.setattr(compiled_mod, "_LIB", None)
        with pytest.raises(SimulationError, match="needs its C core"):
            CompiledSimulator(net)
        monkeypatch.setattr(engine_mod, "SIM_CORE", "python")
        engine = engine_mod.SweepEngine(net)
        assert type(engine.simulator) is Simulator
        assert engine._compiled_sim is None


class TestTapeCache:
    """``tape_cache_info`` counts lowerings and the views that skip one."""

    def test_restrict_does_not_lower(self):
        net = random_network(seed=21, num_inputs=6, num_gates=24)
        before = compiled_mod.tape_cache_info()
        full = CompiledSimulator(net)
        roots = [uid for _, uid in net.pos]
        views = [full.restrict(roots[:k]) for k in (1, 2, 3)]
        info = compiled_mod.tape_cache_info()
        assert info["misses"] == before["misses"] + 1
        assert info["hits"] == before["hits"] + 3
        batch = PatternBatch.random_for(net, 64, random.Random(21))
        for view in views:
            view.run_batch(batch)
        # Every view's batches count in the simulator it was made from.
        assert full.stats["batches"] == 3
        assert full.stats["patterns"] == 3 * 64

    def test_concurrent_compiles_are_consistent(self):
        import threading

        net = random_network(seed=25, num_inputs=6, num_gates=24)
        batch = PatternBatch.random_for(net, 64, random.Random(25))
        expected = Simulator(net).run_batch(batch)
        results = []
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait()
            results.append(CompiledSimulator(net).run_batch(batch))

        pool = [threading.Thread(target=worker) for _ in range(6)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert len(results) == 6
        assert all(r == expected for r in results)
