"""One lowering per network: shared by every core, dropped on every edit.

The simulator, the SAT cone encoder and the SimGen core all read the
network's :class:`~repro.network.lowering.Lowering`, which the network
keeps until it changes.  These tests hold it to that: one lowering across
all six strategies, a pool and a CEC fallback; an in-place table edit or a
``replace_fanin`` between two sweeps gives what a sweep of a fresh copy
gives; a pickled lowering leaves its C handles behind; and the one-pass
MFFC depths equal :func:`~repro.network.cones.mffc_depth` bit for bit.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.suite import sweep_instance
from repro.core import batch, make_generator
from repro.io import bench_text, parse_bench
from repro.logic import TruthTable
from repro.network import Network, mffc_depth
from repro.network.lowering import Lowering, lowering_cache_info
from repro.sat.compiled import SAT_CORE
from repro.simulation import compiled as sim_compiled
from repro.sweep import SweepConfig, SweepEngine, check_equivalence
from repro.sweep.reduce import reduce_network
from tests.conftest import random_network

STRATEGIES = ("SI+RD", "AI+RD", "AI+DC", "AI+DC+MFFC", "RevS", "RandS")

needs_c_cores = pytest.mark.skipif(
    batch.SIMGEN_CORE != "c"
    or sim_compiled.SIM_CORE != "c"
    or SAT_CORE != "c",
    reason="the C cores are not available",
)


def lowerings_built() -> int:
    return lowering_cache_info()["misses"]


def sweep_outcome(network, strategy="AI+DC+MFFC", seed=0, jobs=1):
    """Everything a sweep decides: verdicts, costs, SAT calls, netlist."""
    generator = make_generator(strategy, network, seed=seed)
    result = SweepEngine(
        network, generator, SweepConfig(seed=seed, jobs=jobs)
    ).run()
    reduced, _ = reduce_network(network, result.equivalences)
    metrics = result.metrics
    return (
        tuple(result.equivalences),
        tuple(metrics.cost_history),
        metrics.sat_calls,
        bench_text(reduced),
    )


def fields(lowering: Lowering) -> tuple:
    return (
        lowering.uids,
        lowering.kinds,
        lowering.funcs,
        lowering.fanin_off,
        lowering.fanins,
        lowering.fanout_off,
        lowering.fanouts,
        lowering.levels,
        lowering.pis,
        lowering.pi_slots,
        lowering.tables,
    )


# ----------------------------------------------------------------------
# One lowering, many consumers
# ----------------------------------------------------------------------
@needs_c_cores
class TestOneLowering:
    def test_every_strategy_and_a_pool_share_one_lowering(self):
        network = sweep_instance("cps")
        before = lowerings_built()
        for strategy in STRATEGIES:
            sweep_outcome(network, strategy)
        sweep_outcome(network, "AI+DC+MFFC", jobs=2)
        assert lowerings_built() == before + 1

    def test_a_cec_lowers_its_union_once(self):
        golden = sweep_instance("cps")
        revised, _ = golden.map_clone("revised")
        before = lowerings_built()
        result = check_equivalence(
            golden,
            revised,
            lambda net, seed: make_generator("AI+DC+MFFC", net, seed=seed),
            SweepConfig(seed=0, iterations=2),
        )
        assert result.equivalent
        assert lowerings_built() == before + 1

    def test_repeated_sweeps_equal_fresh_ones(self):
        text = bench_text(sweep_instance("cps"))
        network = parse_bench(text)
        for strategy in STRATEGIES:
            first = sweep_outcome(network, strategy)
            assert sweep_outcome(network, strategy) == first
            assert sweep_outcome(parse_bench(text), strategy) == first


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
def middle_gate(network) -> int:
    gates = [g.uid for g in network.gates() if g.num_fanins >= 2]
    return gates[len(gates) // 2]


class TestInvalidation:
    def test_in_place_table_edit_between_sweeps(self):
        network = sweep_instance("cps")
        sweep_outcome(network)
        node = network.node(middle_gate(network))
        node.table = ~node.table
        assert sweep_outcome(network) == sweep_outcome(network.clone())

    def test_replace_fanin_between_sweeps(self):
        network = sweep_instance("cps")
        sweep_outcome(network)
        uid = middle_gate(network)
        old = network.node(uid).fanins[0]
        new = network.pis[0] if old != network.pis[0] else network.pis[1]
        network.replace_fanin(uid, old, new)
        assert sweep_outcome(network) == sweep_outcome(network.clone())

    def test_kept_while_unchanged_rebuilt_after_an_edit(self):
        network = random_network(seed=4, num_inputs=6, num_gates=30)
        lowering = network.lowering()
        assert network.lowering() is lowering
        uid = middle_gate(network)
        node = network.node(uid)
        node.table = ~node.table
        fresh = network.lowering()
        assert fresh is not lowering
        assert fields(fresh) == fields(Lowering(network))
        slot = fresh.slot_of[uid]
        assert fresh.tables[fresh.funcs[slot]] == node.table
        assert lowering.tables[lowering.funcs[slot]] == ~node.table

    def test_holds_no_reference_to_its_network(self):
        network = random_network(seed=5)
        lowering = network.lowering()
        assert not any(
            value is network for value in vars(lowering).values()
        )


# ----------------------------------------------------------------------
# Pickling: spawn workers get the lowering, never its C handles
# ----------------------------------------------------------------------
def _simulate_in_child(conn, network, words):
    from repro.simulation.compiled import CompiledSimulator

    conn.send(CompiledSimulator(network).run_words(words, 64))


class TestPickling:
    def test_unpickled_network_keeps_its_lowering(self):
        network = random_network(seed=6, num_inputs=6, num_gates=30)
        lowering = network.lowering()
        copy = pickle.loads(pickle.dumps(network))
        before = lowerings_built()
        assert fields(copy.lowering()) == fields(lowering)
        assert lowerings_built() == before

    @pytest.mark.skipif(
        sim_compiled.SIM_CORE != "c", reason="the simulator core is not available"
    )
    def test_a_spawned_process_simulates_a_pickled_lowering(self):
        network = random_network(seed=7, num_inputs=6, num_gates=40)
        rng = random.Random(7)
        words = {pi: rng.getrandbits(64) for pi in network.pis}
        # The lowering now holds its simulator core's C handle.
        expected = sim_compiled.CompiledSimulator(network).run_words(words, 64)
        ctx = multiprocessing.get_context("spawn")
        parent, child = ctx.Pipe()
        process = ctx.Process(
            target=_simulate_in_child, args=(child, network, words)
        )
        process.start()
        child.close()
        try:
            got = parent.recv() if parent.poll(120) else None
        except EOFError:  # the child died before answering
            got = None
        process.join(120)
        assert process.exitcode == 0
        assert got == expected

    @needs_c_cores
    def test_spawn_pool_answers_like_fork_pool(self, monkeypatch):
        network = sweep_instance("cps")
        forked = sweep_outcome(network, "AI+DC+MFFC", jobs=2)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert sweep_outcome(network, "AI+DC+MFFC", jobs=2) == forked


# ----------------------------------------------------------------------
# MFFC depths in one pass
# ----------------------------------------------------------------------
@st.composite
def reconvergent_networks(draw) -> Network:
    """Random DAGs with repeated fanins, constants, long chains and
    reconvergence (fanins drawn mostly from the last few nodes)."""
    network = Network("mffc")
    nodes = [network.add_pi() for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        nodes.append(network.add_const(draw(st.booleans())))
    for _ in range(draw(st.integers(1, 30))):
        arity = draw(st.integers(1, 3))
        fanins = []
        for _ in range(arity):
            low = max(0, len(nodes) - 4) if draw(st.booleans()) else 0
            fanins.append(nodes[draw(st.integers(low, len(nodes) - 1))])
        bits = draw(st.integers(0, (1 << (1 << arity)) - 1))
        nodes.append(network.add_gate(TruthTable(arity, bits), fanins))
    return network


@pytest.mark.skipif(
    batch.SIMGEN_CORE != "c", reason="the SimGen core is not available"
)
class TestMffcDepths:
    @settings(max_examples=300, deadline=None)
    @given(reconvergent_networks())
    def test_one_pass_equals_mffc_depth(self, network):
        lowering = network.lowering()
        depths = batch.mffc_depths(lowering)
        for slot, uid in enumerate(lowering.uids):
            assert depths[slot] == mffc_depth(network, uid), uid

    def test_benchmark_circuit(self):
        network = sweep_instance("cps")
        lowering = network.lowering()
        depths = batch.mffc_depths(lowering)
        for slot, uid in enumerate(lowering.uids):
            assert depths[slot] == mffc_depth(network, uid), uid
