"""The mapping core against the Python mapper: same LUTs, same bytes."""

import os
import subprocess
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.io import bench_text
from repro.logic.truthtable import TruthTable
from repro.mapping import compiled, lutmap, map_to_luts
from repro.network import Network
from repro.network.lowering import lowering_cache_info
from repro.transforms.decompose import decompose_to_arity
from tests.conftest import random_network
from tests.mapping.test_cuts import mapping_cases

needs_core = pytest.mark.skipif(
    compiled.MAP_CORE != "c", reason="no C compiler available"
)


@contextmanager
def python_path():
    """Run ``map_to_luts`` on its Python path, as without the core."""
    saved = compiled._LIB
    compiled._LIB = None
    try:
        yield
    finally:
        compiled._LIB = saved


@st.composite
def mapping_networks(draw):
    """``mapping_cases`` plus a dangling gate and POs driven by a PI and
    by a constant."""
    net, k, cut_limit = draw(mapping_cases())
    signals = net.node_ids()
    fanins = [draw(st.sampled_from(signals)) for _ in range(2)]
    net.add_gate(TruthTable(2, draw(st.integers(0, 15))), fanins)
    consts = [node.uid for node in net.gates() if node.is_const]
    const = consts[0] if consts else net.add_const(draw(st.booleans()))
    net.add_po(draw(st.sampled_from(net.pis)))
    net.add_po(const)
    return net, k, cut_limit


def mapped_text(net, k, cut_limit):
    return bench_text(map_to_luts(net, k=k, cut_limit=cut_limit)[0])


def core_luts(network, k, cut_limit):
    """The core's LUT of every gate, as if each were a PO."""
    lowering = network.lowering()
    order = lowering.uids
    every = array("i", range(len(order)))
    result, sizes, leaves, tables, _ = compiled.run_core(
        lowering, compiled.table_words(lowering), every, k, cut_limit
    )
    assert result == compiled.MAP_OK
    luts = {}
    for slot, uid in enumerate(order):
        at, size = slot * compiled.MAX_K, sizes[slot]
        if size >= 0:
            inputs = [order[leaf] for leaf in leaves[at : at + size]]
            luts[uid] = (TruthTable(size, tables[slot]), inputs)
    return luts


@needs_core
class TestAgainstPythonPath:
    @settings(max_examples=300, deadline=None)
    @given(mapping_networks())
    def test_same_luts_and_same_bytes(self, case):
        net, k, cut_limit = case
        # The network map_to_luts maps: no gate wider than k.
        flat = decompose_to_arity(net, max(2, k), name=net.name)
        expected = lutmap.reference_luts(flat, k, cut_limit)
        got = core_luts(flat, k, cut_limit)
        gates = [node.uid for node in flat.gates() if not node.is_const]
        assert sorted(got) == gates
        for uid in gates:
            assert got[uid] == expected(uid), uid
        with python_path():
            reference = mapped_text(net, k, cut_limit)
        assert mapped_text(net, k, cut_limit) == reference

    def test_same_error_for_a_gate_without_a_cut(self):
        """k = 1 leaves a two-input gate nothing but its trivial cut."""
        net = Network("narrow")
        a, b = net.add_pi(), net.add_pi()
        net.add_po(net.add_gate(TruthTable(2, 0b1000), (a, b)))
        with python_path():
            with pytest.raises(MappingError) as reference:
                map_to_luts(net, k=1)
        with pytest.raises(MappingError) as got:
            map_to_luts(net, k=1)
        assert str(got.value) == str(reference.value)

    def test_long_chain_cone(self):
        """A best cut whose cone is a chain of 20,001 inverters: one LUT,
        the inverter."""
        net = Network("chain")
        signal = net.add_pi()
        for _ in range(20001):
            signal = net.add_gate(TruthTable(1, 0b01), (signal,))
        net.add_po(signal)
        mapped, stats = map_to_luts(net)
        assert (stats.luts, stats.depth) == (1, 1)
        (lut,) = mapped.gates()
        assert lut.table == TruthTable(1, 0b01)


@needs_core
class TestDeepCones:
    def test_chain_deeper_than_the_recursion_limit(self):
        """A best cut whose cone is a chain of 5,000 inverters maps to the
        same bytes on the Python path as on the core; k = 7 runs the
        Python path's cut functions either way."""
        net = Network("chain")
        signal = net.add_pi()
        for _ in range(5000):
            signal = net.add_gate(TruthTable(1, 0b01), (signal,))
        net.add_po(signal)
        core = mapped_text(net, 6, 8)
        with python_path():
            assert mapped_text(net, 6, 8) == core
        assert mapped_text(net, 7, 8) == core


@needs_core
class TestFlowSum:
    """The core's area-flow sum is this interpreter's ``sum()`` of floats,
    compensated or not, to the last bit."""

    @staticmethod
    def core_sum(terms):
        buffer = array("d", terms)
        return compiled._LIB.map_flow_sum(
            buffer.buffer_info()[0], len(terms), int(compiled.COMPENSATED_SUM)
        )

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.floats(-1e300, 1e300) | st.integers(1, 50).map(lambda n: 1 / n),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_sum(self, terms):
        assert self.core_sum(terms) == sum(terms)

    def test_cancellation(self):
        terms = [1.0, 1e100, 1.0, -1e100]
        assert self.core_sum(terms) == sum(terms)


@needs_core
class TestLoadChecks:
    """Buffers the core cannot read are refused, and map_to_luts then
    runs the Python path."""

    @staticmethod
    def lowered():
        """A fresh network's lowering, its table words and its POs' slots
        (the lowering is the test's own, free to corrupt)."""
        net = random_network(seed=5, num_inputs=4, num_gates=10)
        lowering = net.lowering()
        roots = array("i", [lowering.slot_of[uid] for _, uid in net.pos])
        return lowering, compiled.table_words(lowering), roots

    @staticmethod
    def first_gate(lowering):
        offsets = lowering.fanin_off
        return next(s for s in range(len(offsets) - 1) if offsets[s + 1] > offsets[s])

    def test_well_formed_buffers_map(self):
        lowering, words, roots = self.lowered()
        result = compiled.run_core(lowering, words, roots, 6, 8)[0]
        assert result == compiled.MAP_OK

    def test_fanin_not_earlier_in_the_order_is_refused(self):
        lowering, words, roots = self.lowered()
        slot = self.first_gate(lowering)
        lowering.fanins[lowering.fanin_off[slot]] = slot
        result = compiled.run_core(lowering, words, roots, 6, 8)[0]
        assert result == compiled.MAP_MALFORMED

    @pytest.mark.parametrize("k", [0, compiled.MAX_K + 1])
    def test_k_out_of_range_is_refused(self, k):
        lowering, words, roots = self.lowered()
        result = compiled.run_core(lowering, words, roots, k, 8)[0]
        assert result == compiled.MAP_MALFORMED

    def test_table_wider_than_its_arity_is_refused(self):
        lowering, words, roots = self.lowered()
        slot = self.first_gate(lowering)
        arity = lowering.fanin_off[slot + 1] - lowering.fanin_off[slot]
        words[lowering.funcs[slot]] |= 1 << (1 << arity)
        result = compiled.run_core(lowering, words, roots, 6, 8)[0]
        assert result == compiled.MAP_MALFORMED

    def test_map_to_luts_falls_back(self, monkeypatch):
        net = random_network(seed=6, num_inputs=5, num_gates=30)
        with python_path():
            reference = mapped_text(net, 6, 8)

        def overfull_words(lowering):
            # Every bit set: wider than any table of fewer than 6 inputs.
            return array("Q", [(1 << 64) - 1] * len(lowering.tables))

        ran = []
        reference_luts = lutmap.reference_luts
        monkeypatch.setattr(compiled, "table_words", overfull_words)
        monkeypatch.setattr(
            lutmap,
            "reference_luts",
            lambda *args: ran.append(args) or reference_luts(*args),
        )
        assert mapped_text(net, 6, 8) == reference
        assert ran


@needs_core
class TestOneLowering:
    def test_mapper_reads_the_network_lowering(self):
        """The core maps the network's own lowering: after mapping, the
        network answers ``lowering()`` with the kept one."""
        net = random_network(seed=8, num_inputs=6, num_gates=40)
        map_to_luts(net)
        before = lowering_cache_info()
        lowering = net.lowering()
        after = lowering_cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert net.lowering() is lowering


class TestPythonOptOut:
    def test_same_bytes_with_and_without_the_core(self):
        """``REPRO_CCORES=python`` maps on the Python path, to the same
        bytes."""
        probe = (
            "import sys\n"
            "from repro.benchgen import sweep_instance\n"
            "from repro.io import bench_text\n"
            "from repro.mapping.compiled import MAP_CORE\n"
            "sys.stdout.write(MAP_CORE + '\\n' + bench_text(sweep_instance('cps')))\n"
        )
        outputs = {}
        for cores in (None, "python"):
            env = dict(os.environ)
            env.pop("REPRO_CCORES", None)
            if cores is not None:
                env["REPRO_CCORES"] = cores
            env["PYTHONPATH"] = str(
                Path(__file__).resolve().parents[2] / "src"
            ) + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", probe],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[cores] = proc.stdout.split("\n", 1)
        assert outputs["python"][0] == "python"
        assert outputs[None][1] == outputs["python"][1]
