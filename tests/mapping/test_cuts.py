"""Cut enumeration invariants and cut functions."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.logic.truthtable import TruthTable
from repro.mapping.cuts import Cut, cut_function, enumerate_cuts
from repro.network import Network, NetworkBuilder, fanin_cone
from repro.simulation import cone_function
from tests.conftest import random_network


def is_valid_cut(net, cut):
    """Every PI-to-root path must cross a leaf."""
    leaves = set(cut.leaves)
    # walk the cone from root down; stop at leaves; must never hit a PI.
    stack = [cut.root]
    seen = set()
    while stack:
        uid = stack.pop()
        if uid in leaves or uid in seen:
            continue
        seen.add(uid)
        node = net.node(uid)
        if node.is_pi:
            return False
        stack.extend(node.fanins)
    return True


class TestEnumerate:
    def test_pi_has_only_trivial_cut(self, and_or_network):
        net, ids = and_or_network
        cuts = enumerate_cuts(net, k=4)
        assert cuts[ids["a"]] == [Cut(ids["a"], (ids["a"],))]

    def test_all_cuts_valid_and_k_feasible(self):
        net = random_network(seed=3, num_inputs=5, num_gates=15)
        k = 4
        cuts = enumerate_cuts(net, k=k)
        for uid, cut_list in cuts.items():
            assert cut_list, uid
            for cut in cut_list:
                assert cut.size <= max(
                    k, 1
                ), f"cut {cut} too wide"
                assert is_valid_cut(net, cut), f"invalid cut {cut}"

    def test_trivial_cut_always_present(self):
        net = random_network(seed=1)
        cuts = enumerate_cuts(net, k=3)
        for uid, cut_list in cuts.items():
            assert any(c.is_trivial() for c in cut_list)

    def test_cut_limit_respected(self):
        net = random_network(seed=2, num_inputs=6, num_gates=20)
        cuts = enumerate_cuts(net, k=6, cut_limit=3)
        for cut_list in cuts.values():
            # limit + the trivial cut
            assert len(cut_list) <= 4

    def test_no_dominated_cuts(self):
        net = random_network(seed=4)
        cuts = enumerate_cuts(net, k=4)
        for cut_list in cuts.values():
            nontrivial = [c for c in cut_list if not c.is_trivial()]
            for i, a in enumerate(nontrivial):
                for j, b in enumerate(nontrivial):
                    if i != j:
                        assert not (
                            set(a.leaves) < set(b.leaves)
                        ), (a, b)

    def test_bad_parameters(self, and_or_network):
        net, _ = and_or_network
        with pytest.raises(MappingError):
            enumerate_cuts(net, k=0)
        with pytest.raises(MappingError):
            enumerate_cuts(net, cut_limit=0)


class TestCutFunction:
    def test_matches_cone_function_on_pi_cut(self, and_or_network):
        net, ids = and_or_network
        cut = Cut(ids["out"], tuple(sorted([ids["a"], ids["b"], ids["c"]])))
        table = cut_function(net, cut)
        reference, support = cone_function(net, ids["out"])
        assert support == list(cut.leaves)
        assert table == reference

    def test_internal_cut(self, and_or_network):
        net, ids = and_or_network
        cut = Cut(ids["out"], tuple(sorted([ids["inner"], ids["c"]])))
        table = cut_function(net, cut)
        # out = inner | c with leaves (inner, c) in sorted order
        leaves = sorted([ids["inner"], ids["c"]])
        for m in range(4):
            bits = {leaves[0]: m & 1, leaves[1]: (m >> 1) & 1}
            assert table.output_for(m) == (
                bits[ids["inner"]] | bits[ids["c"]]
            )

    def test_trivial_cut_is_identity(self, and_or_network):
        net, ids = and_or_network
        table = cut_function(net, Cut(ids["out"], (ids["out"],)))
        assert table.bits == 0b10

    def test_pi_inside_cone_rejected(self, and_or_network):
        net, ids = and_or_network
        # A "cut" that does not cover PI b.
        bad = Cut(ids["out"], (ids["a"], ids["c"]))
        with pytest.raises(MappingError):
            cut_function(net, bad)


def oracle_cuts(network, k, cut_limit):
    """Priority cuts by brute force: every combination of one cut per
    fanin, then drop dominated cuts and keep the best by
    ``(depth, size, leaves)``."""
    levels = network.levels()
    cuts = {}
    for uid in network.topological_order():
        node = network.node(uid)
        trivial = Cut(uid, (uid,))
        if node.is_pi or node.is_const:
            cuts[uid] = [trivial]
            continue
        candidates = {}
        for combo in product(*(cuts[f] for f in node.fanins)):
            leaves = set()
            for cut in combo:
                leaves.update(cut.leaves)
            if len(leaves) <= k:
                key = tuple(sorted(leaves))
                candidates.setdefault(key, Cut(uid, key))
        kept = []
        for cut in sorted(candidates.values(), key=lambda c: c.size):
            if not any(set(o.leaves) <= set(cut.leaves) for o in kept):
                kept.append(cut)
        kept.sort(
            key=lambda c: (max(levels[l] for l in c.leaves), c.size, c.leaves)
        )
        cuts[uid] = kept[:cut_limit] + [trivial]
    return cuts


#: Upper bound on the fanin-cut combinations the oracle walks per gate.
ORACLE_COMBOS = 6561


@st.composite
def mapping_cases(draw):
    """A random network of 1- to 6-input gates (fanins may repeat, and a
    constant may feed gates), with k in 2..6 and cut_limit in 1..8."""
    k = draw(st.integers(2, 6))
    cut_limit = draw(st.integers(1, 8))
    net = Network("hyp")
    pis = [net.add_pi() for _ in range(draw(st.integers(1, 6)))]
    signals = list(pis)
    if draw(st.booleans()):
        signals.append(net.add_const(draw(st.booleans())))
    for _ in range(draw(st.integers(1, 14))):
        arity = draw(st.integers(1, 6))
        fanins, combos = [], 1
        for _ in range(arity):
            fanin = draw(st.sampled_from(signals))
            # A gate has at most cut_limit + 1 cuts; keep the oracle's
            # product small by taking a PI once the bound is reached.
            if fanin not in pis and combos * (cut_limit + 1) > ORACLE_COMBOS:
                fanin = draw(st.sampled_from(pis))
            if fanin not in pis:
                combos *= cut_limit + 1
            fanins.append(fanin)
        bits = draw(st.integers(0, TruthTable.full_mask(arity)))
        signals.append(net.add_gate(TruthTable(arity, bits), fanins))
    net.add_po(signals[-1])
    return net, k, cut_limit


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(mapping_cases())
    def test_same_cuts_in_the_same_order(self, case):
        net, k, cut_limit = case
        expected = oracle_cuts(net, k, cut_limit)
        assert enumerate_cuts(net, k, cut_limit) == expected
