"""Property test: both simulation backends are bit-identical.

Random benchgen-style networks, random packed batches (including widths
that exercise partial top-word masking), constant nodes, and cone
restriction — the reference ``Simulator`` and ``CompiledSimulator`` must
agree on every node word.
"""

import random

import pytest

from repro.network import NetworkBuilder
from repro.simulation import CompiledSimulator, PatternBatch, Simulator
from repro.simulation.compiled import SIM_CORE
from tests.conftest import random_network

pytestmark = pytest.mark.skipif(
    SIM_CORE != "c", reason="CompiledSimulator needs its C core"
)

#: Widths straddling the 64-bit word boundary (partial top-word masking).
WIDTHS = (1, 7, 63, 64, 65, 130)


def network_with_consts(seed):
    """A random network plus constant nodes mixed into the fanin graph."""
    net = random_network(seed=seed, num_inputs=6, num_gates=18)
    builder = NetworkBuilder(f"const{seed}")
    remap = {}
    for uid in net.topological_order():
        node = net.node(uid)
        if node.is_pi:
            remap[uid] = builder.pi()
        elif node.is_const:
            remap[uid] = builder.const(bool(node.table.bits))
        else:
            remap[uid] = builder.table(
                node.table, [remap[f] for f in node.fanins]
            )
    one = builder.const(True)
    zero = builder.const(False)
    gates = [remap[uid] for uid in net.node_ids() if net.node(uid).is_gate]
    mixed = builder.and_(gates[-1], one)
    builder.po(builder.or_(mixed, zero))
    for name, uid in net.pos:
        builder.po(remap[uid], name)
    return builder.build()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("width", WIDTHS)
def test_backends_bit_identical(seed, width):
    net = network_with_consts(seed)
    batch = PatternBatch.random_for(net, width, random.Random(seed * 31 + width))
    reference = Simulator(net).run_batch(batch)
    assert CompiledSimulator(net).run_batch(batch) == reference


@pytest.mark.parametrize("width", WIDTHS)
def test_oversized_pi_words_masked_identically(width):
    net = random_network(seed=9, num_inputs=5, num_gates=14)
    rng = random.Random(width * 7)
    words = {pi: rng.getrandbits(256) for pi in net.pis}
    reference = Simulator(net).run_words(words, width)
    assert CompiledSimulator(net).run_words(words, width) == reference


def test_cone_restricted_compiled_agrees_with_reference():
    net = network_with_consts(2)
    targets = [uid for uid in net.node_ids() if net.node(uid).is_gate][:3]
    batch = PatternBatch.random_for(net, 65, random.Random(5))
    full = Simulator(net).run_batch(batch)
    cone = CompiledSimulator(net, targets=targets).run_batch(batch)
    for uid, word in cone.items():
        assert word == full[uid]
