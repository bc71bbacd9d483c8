"""PairChecker: incremental vs fresh agreement, counterexample validity,
and proven equivalences kept as clauses by the incremental solver."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import sweep_instance
from repro.logic import TruthTable
from repro.network import NetworkBuilder
from repro.runtime import FlakySolver
from repro.sat.solver import SatResult
from repro.simulation import PatternBatch, Simulator
from repro.sweep.cec import union_network
from repro.sweep.checker import PairChecker
from repro.transforms.rewrite import rewrite
from tests.conftest import random_network


class TestBasics:
    def test_equivalent_pair_unsat(self):
        builder = NetworkBuilder()
        a, b = builder.pis(2)
        g1 = builder.and_(a, b)
        g2 = builder.not_(builder.nand_(a, b))
        builder.po(g1)
        builder.po(g2)
        net = builder.build()
        for incremental in (True, False):
            checker = PairChecker(net, incremental=incremental)
            result, vector = checker.check(g1, g2)
            assert result is SatResult.UNSAT
            assert vector is None
            assert checker.stats.proven == 1

    def test_different_pair_sat_with_valid_cex(self):
        builder = NetworkBuilder()
        a, b = builder.pis(2)
        g1 = builder.and_(a, b)
        g2 = builder.xor_(a, b)
        builder.po(g1)
        builder.po(g2)
        net = builder.build()
        sim = Simulator(net)
        for incremental in (True, False):
            checker = PairChecker(net, incremental=incremental)
            result, vector = checker.check(g1, g2)
            assert result is SatResult.SAT
            full = vector.completed(net.pis, random.Random(0))
            values = sim.run_vector(full.values)
            assert values[g1] != values[g2]

    def test_complement_check(self):
        builder = NetworkBuilder()
        a, b = builder.pis(2)
        g1 = builder.and_(a, b)
        g2 = builder.nand_(a, b)
        builder.po(g1)
        builder.po(g2)
        net = builder.build()
        checker = PairChecker(net, incremental=True)
        result, _ = checker.check(g1, g2, complement=True)
        assert result is SatResult.UNSAT  # g1 == NOT g2 proven


class TestIncrementalAgreement:
    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_fresh_over_many_queries(self, seed):
        net = random_network(seed=seed, num_inputs=6, num_gates=25)
        gates = [uid for uid in net.node_ids() if net.node(uid).is_gate]
        rng = random.Random(seed)
        incremental = PairChecker(net, incremental=True)
        fresh = PairChecker(net, incremental=False)
        for _ in range(30):
            a, b = rng.sample(gates, 2)
            complement = rng.random() < 0.3
            result_inc, _ = incremental.check(a, b, complement)
            result_fresh, _ = fresh.check(a, b, complement)
            assert result_inc == result_fresh, (a, b, complement)

    def test_stats_accumulate(self):
        net = random_network(seed=1)
        gates = [uid for uid in net.node_ids() if net.node(uid).is_gate]
        checker = PairChecker(net)
        checker.check(gates[0], gates[1])
        checker.check(gates[1], gates[2])
        assert checker.stats.calls == 2
        assert checker.stats.sat_time > 0
        assert (
            checker.stats.proven
            + checker.stats.disproven
            + checker.stats.unknown
            == 2
        )


# ----------------------------------------------------------------------
# Proofs survive their query
# ----------------------------------------------------------------------
def refutation_cost(checker, node_a, node_b, complement=False):
    """Solve the checker's solver under the assumptions that contradict a
    proven pair ({a, -b}, or {a, b} for a complement pair); returns the
    verdict and the conflicts and decisions that took."""
    solver = checker._solver
    var_a = checker._encoder.var_of(node_a)
    var_b = checker._encoder.var_of(node_b)
    before = dict(solver.stats)
    outcome = solver.solve(assumptions=[var_a, var_b if complement else -var_b])
    after = solver.stats
    return (
        outcome,
        after["conflicts"] - before["conflicts"],
        after["decisions"] - before["decisions"],
    )


@pytest.fixture(scope="module")
def b14_rewrite_union():
    """b14_C united with a rewritten copy, plus an inverter on every
    rewritten PO: (union, equal PO pairs, complement pairs)."""
    golden = sweep_instance("b14_C")
    union, pairs = union_network(golden, rewrite(golden, seed=1, intensity=0.3))
    equal = [(a, b) for _, a, b in pairs]
    inverted = [
        (a, union.add_gate(TruthTable(1, 0b01), (b,))) for a, b in equal
    ]
    return union, equal, inverted


class TestProofsPersist:
    """An UNSAT verdict leaves two permanent binary clauses behind, so a
    later query propagates the proven equivalence instead of re-deriving
    it.  (Without them, refuting the first three b14_C PO pairs below
    costs 2, 19 and 23 conflicts.)"""

    @pytest.mark.parametrize("backend", ["compiled", "reference"])
    @pytest.mark.parametrize("complement", [False, True])
    def test_proven_pair_refutes_by_propagation(
        self, b14_rewrite_union, backend, complement
    ):
        union, equal, inverted = b14_rewrite_union
        checker = PairChecker(union, conflict_limit=None, backend=backend)
        for node_a, node_b in (inverted if complement else equal)[:3]:
            outcome, _ = checker.check(node_a, node_b, complement)
            assert outcome is SatResult.UNSAT
            assert refutation_cost(checker, node_a, node_b, complement) == (
                SatResult.UNSAT, 0, 0
            )

    def test_rebuilt_solver_gets_the_proofs_back(self, b14_rewrite_union):
        """After a TransientSolverError the fresh solver holds the proofs
        of earlier queries, not only the encoded cones."""
        union, equal, _ = b14_rewrite_union
        script = iter(["ok", "raise", "raise", "raise"])

        class Scripted:
            def next_action(self):
                return next(script, "ok")

        schedule = Scripted()
        checker = PairChecker(
            union,
            conflict_limit=None,
            solver_factory=lambda: FlakySolver(schedule=schedule),
        )
        (a1, b1), (a2, b2) = equal[1:3]
        assert checker.check(a1, b1)[0] is SatResult.UNSAT
        first = checker._solver
        # Every attempt at the second pair fails: the solver is rebuilt
        # after each and the query gives up without solving on the last.
        assert checker.check(a2, b2)[0] is SatResult.UNKNOWN
        assert checker.stats.retries == 3
        assert checker._solver is not first
        assert refutation_cost(checker, a1, b1) == (SatResult.UNSAT, 0, 0)
        # The rebuilt solver still answers the failed pair soundly.
        assert checker.check(a2, b2)[0] is SatResult.UNSAT


def simulation_candidates(network, seed, width=8):
    """Pairs ``(a, b, complement)`` of nodes that agree (or are
    complements) on ``width`` seeded random patterns: few patterns, so
    many candidates are disproven."""
    batch = PatternBatch(network.pis, random.Random(seed))
    batch.add_random(width)
    words = Simulator(network).run_batch(batch)
    mask = (1 << width) - 1
    groups: dict[int, list[tuple[int, bool]]] = {}
    for uid in network.node_ids():
        word = words[uid]
        flipped = bool(word & 1)
        groups.setdefault(word ^ mask if flipped else word, []).append(
            (uid, flipped)
        )
    return [
        (rep, member, rep_flip != member_flip)
        for group in groups.values()
        for (rep, rep_flip), (member, member_flip) in zip(group, group[1:])
    ]


class TestIncrementalProofsAreSound:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        order=st.randoms(use_true_random=False),
    )
    def test_interleaved_queries_match_fresh_checks(self, seed, order):
        """Interleaved queries of both polarities over a network and its
        rewritten copy: the incremental verdicts (with every earlier proof
        asserted) equal query-pure ones, every counterexample separates
        its pair on the reference simulator, and the compiled and
        reference backends agree on verdicts, vectors and conflicts."""
        base = random_network(seed=seed, num_inputs=6, num_gates=24)
        union, _ = union_network(base, rewrite(base, seed=seed, intensity=0.5))
        candidates = simulation_candidates(union, seed)
        order.shuffle(candidates)
        queries = candidates[:40]
        compiled = PairChecker(union, conflict_limit=None)
        reference = PairChecker(
            union, conflict_limit=None, backend="reference"
        )
        fresh = PairChecker(union, conflict_limit=None, incremental=False)
        simulator = Simulator(union)
        rng = random.Random(seed)
        for node_a, node_b, complement in queries:
            conflicts = compiled.stats.conflicts
            outcome, vector = compiled.check(node_a, node_b, complement)
            spent = compiled.stats.conflicts - conflicts
            conflicts = reference.stats.conflicts
            ref_outcome, ref_vector = reference.check(node_a, node_b, complement)
            assert ref_outcome is outcome
            assert reference.stats.conflicts - conflicts == spent
            assert fresh.check(node_a, node_b, complement)[0] is outcome
            if outcome is SatResult.UNSAT:
                assert vector is None and ref_vector is None
                continue
            assert outcome is SatResult.SAT
            assert vector.values == ref_vector.values
            values = simulator.run_vector(
                vector.completed(union.pis, rng).values
            )
            assert (values[node_a] != values[node_b]) is not complement
