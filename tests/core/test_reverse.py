"""Reverse simulation baseline: semantics, fidelity to the paper."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReverseSimGenerator, SimGenGenerator
from repro.logic import TruthTable
from repro.simulation import Simulator
from tests.conftest import random_network


class TestRealization:
    """RevS vectors are complete backward assignments: always realized."""

    @pytest.mark.parametrize("seed", range(8))
    def test_non_skipped_vectors_split_the_pair(self, seed):
        net = random_network(seed=seed, num_inputs=5, num_gates=12)
        sim = Simulator(net)
        gates = [uid for uid in net.node_ids() if net.node(uid).is_gate]
        rng = random.Random(seed)
        generator = ReverseSimGenerator(net, seed=seed)
        produced = 0
        for _ in range(25):
            pair = rng.sample(gates, 2)
            outgold = {pair[0]: 0, pair[1]: 1}
            report = generator.generate_for_targets(outgold)
            if report.skipped or report.vector is None:
                continue
            produced += 1
            full = report.vector.completed(net.pis, rng)
            values = sim.run_vector(full.values)
            golds = {
                outgold[uid]
                for uid in report.survivors
                if values[uid] == outgold[uid]
            }
            assert golds == {0, 1}
        assert produced > 0


class TestCompleteAssignments:
    def test_revs_binds_full_minterms(self, and_or_network):
        """Unlike SimGen, RevS assigns every input of a visited gate."""
        net, ids = and_or_network
        hits = 0
        for seed in range(40):
            generator = ReverseSimGenerator(net, seed=seed)
            report = generator.generate_for_targets(
                {ids["out"]: 1, ids["inner"]: 0}
            )
            if report.vector is None:
                continue
            # A successful generation must have assigned all three PIs
            # before completion (complete rows reach every cone PI).
            hits += 1
        assert hits > 0


class TestFigure1Scenario:
    """The paper's motivating example: RevS conflicts where SimGen succeeds."""

    def test_revs_sometimes_fails_where_simgen_always_succeeds(
        self, fig1_network
    ):
        net, ids = fig1_network
        # Target: D (= z) must become 1.  The only consistent input is
        # A=1, B=0, C=0 — reverse simulation reaches it only if its random
        # choices at gate y happen to avoid inv_b=0.
        revs_fail = 0
        revs_ok = 0
        for seed in range(200):
            generator = ReverseSimGenerator(net, seed=seed, max_targets=2)
            report = generator.generate_for_targets({ids["z"]: 1})
            if report.conflicts:
                revs_fail += 1
            elif ids["z"] in report.survivors:
                revs_ok += 1
        assert revs_fail > 0, "reverse simulation never conflicted"
        assert revs_ok > 0

        sim = Simulator(net)
        for seed in range(50):
            generator = SimGenGenerator(net, seed=seed)
            report = generator.generate_for_targets({ids["z"]: 1})
            assert report.conflicts == 0, (
                "SimGen conflicted on the Figure 1 circuit"
            )
            assert ids["z"] in report.survivors
        # And the implied vector really sets D=1: A=1, B=0, C=0.
        generator = SimGenGenerator(net, seed=1)
        report = generator.generate_for_targets({ids["z"]: 1})
        vector = {ids["A"]: 1, ids["B"]: 0, ids["C"]: 0}
        assert sim.run_vector(vector)[ids["z"]] == 1


class TestStats:
    def test_conflict_counting(self, fig1_network):
        net, ids = fig1_network
        total_conflicts = 0
        for seed in range(100):
            generator = ReverseSimGenerator(net, seed=seed)
            report = generator.generate_for_targets({ids["z"]: 1})
            total_conflicts += report.conflicts
        assert total_conflicts > 0

    def test_implication_vs_decision_counts(self, and_or_network):
        net, ids = and_or_network
        generator = ReverseSimGenerator(net, seed=3)
        report = generator.generate_for_targets({ids["out"]: 0})
        # out=0 forces inner=0 and c=0 (single minterm): implications.
        assert report.implications >= 1


class TestCompatibleMinterms:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        num_vars=st.integers(0, 6),
        output=st.integers(0, 1),
    )
    def test_matches_the_per_minterm_scan(self, data, num_vars, output):
        """The cached minterm list, filtered by the pins' care/value
        masks, is the list the per-minterm scan builds: same members,
        same ascending order (so ``rng.choice`` draws the same one)."""
        bits = data.draw(st.integers(0, (1 << (1 << num_vars)) - 1))
        table = TruthTable(num_vars, bits)
        inputs = data.draw(
            st.lists(
                st.sampled_from((None, 0, 1)),
                min_size=num_vars,
                max_size=num_vars,
            )
        )
        net = random_network(seed=0)
        gen = ReverseSimGenerator(net)
        scan = [
            m
            for m in range(1 << num_vars)
            if table.output_for(m) == output
            and all(
                inputs[i] is None or inputs[i] == ((m >> i) & 1)
                for i in range(num_vars)
            )
        ]
        assert gen.compatible_minterms(table, inputs, output) == scan
        # The second call reads the generator's cached list.
        assert gen.compatible_minterms(table, inputs, output) == scan
