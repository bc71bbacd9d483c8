"""CheckerPool: canonical-order verdicts, supervised retry, budgets."""

import os
import random
import time

import pytest

from repro.errors import SweepError
from repro.network import NetworkBuilder
from repro.runtime import Budget, CheckerPool, RetryPolicy
from repro.runtime import pool as pool_module
from repro.sat.solver import SatResult
from repro.simulation.simulator import Simulator
from repro.sweep.cec import union_network
from tests.conftest import random_network


def triple_network():
    """g1 == g2 (same AND), g3 differs, g4 == NOT g1 (NAND)."""
    builder = NetworkBuilder("pool")
    a, b = builder.pis(2)
    g1 = builder.and_(a, b, "g1")
    g2 = builder.and_(a, b, "g2")
    g3 = builder.or_(a, b, "g3")
    g4 = builder.nand_(a, b, "g4")
    builder.po(g3, "f")
    return builder.build(), (g1, g2, g3, g4)


def standard_pairs(nodes):
    g1, g2, g3, g4 = nodes
    return [
        (g1, g2, False),  # equal -> UNSAT
        (g1, g3, False),  # different -> SAT + counterexample
        (g1, g4, True),  # complement-equal -> UNSAT
    ]


class TestCheckPairs:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_verdicts_in_dispatch_order(self, jobs):
        net, nodes = triple_network()
        with CheckerPool(net, jobs) as pool:
            verdicts = pool.check_pairs(standard_pairs(nodes))
        assert [v.outcome for v in verdicts] == [
            SatResult.UNSAT,
            SatResult.SAT,
            SatResult.UNSAT,
        ]
        assert not any(v.degraded for v in verdicts)

    def test_counterexample_vector_distinguishes_the_pair(self):
        net, nodes = triple_network()
        g1, _, g3, _ = nodes
        with CheckerPool(net, 2) as pool:
            (_, sat, _) = pool.check_pairs(standard_pairs(nodes))
        import random

        total = sat.vector.completed(net.pis, random.Random(0))
        values = Simulator(net).run_vector(total.values)
        assert (values[g1] ^ values[g3]) & 1

    def test_repeated_calls_reuse_the_pool(self):
        net, nodes = triple_network()
        g1, g2, _, _ = nodes
        with CheckerPool(net, 2) as pool:
            first = pool.check_pairs([(g1, g2, False)])
            second = pool.check_pairs([(g1, g2, False)])
        assert first[0].outcome is SatResult.UNSAT
        assert second[0].outcome is SatResult.UNSAT

    def test_worker_conflicts_and_time_are_reported(self):
        net, nodes = triple_network()
        with CheckerPool(net, 2) as pool:
            verdicts = pool.check_pairs(standard_pairs(nodes))
        assert all(v.sat_time >= 0.0 for v in verdicts)
        assert all(v.conflicts >= 0 for v in verdicts)


class TestFaults:
    def test_killed_worker_pair_is_redispatched_and_resolved(self):
        """A SIGKILLed worker's pair is retried, not abandoned: the respawn
        runs disarmed (chaos_kill_limit=1) and answers it for real."""
        net, nodes = triple_network()
        g1, g2, _, _ = nodes
        with CheckerPool(
            net, 2, chaos_kill_pair=(g1, g2),
            retry_policy=RetryPolicy(backoff_base=0.01),
        ) as pool:
            verdicts = pool.check_pairs(standard_pairs(nodes))
            assert pool.worker_failures == 1
            stats = pool.supervision_stats
        retried, sat, comp = verdicts
        assert not retried.degraded
        assert retried.outcome is SatResult.UNSAT
        assert stats["respawns"] >= 1
        assert stats["retries"] >= 1
        assert stats["pairs_redispatched"] >= 1
        # The surviving pairs still get real answers (respawned worker
        # serves the tasks that were queued behind the poisoned one).
        assert sat.outcome is SatResult.SAT and not sat.degraded
        assert comp.outcome is SatResult.UNSAT and not comp.degraded

    def test_zero_retry_policy_degrades_on_first_loss(self):
        """RetryPolicy(max_retries=0) restores the legacy behaviour: the
        lost pair degrades to UNKNOWN immediately, never fabricated."""
        net, nodes = triple_network()
        g1, g2, _, _ = nodes
        with CheckerPool(
            net, 2, chaos_kill_pair=(g1, g2),
            retry_policy=RetryPolicy(max_retries=0),
        ) as pool:
            verdicts = pool.check_pairs(standard_pairs(nodes))
            assert pool.worker_failures == 1
        poisoned, sat, comp = verdicts
        assert poisoned.degraded
        assert poisoned.outcome is SatResult.UNKNOWN
        assert poisoned.vector is None
        assert sat.outcome is SatResult.SAT and not sat.degraded
        assert comp.outcome is SatResult.UNSAT and not comp.degraded

    def test_persistent_killer_exhausts_retry_budget_then_degrades(self):
        """chaos_kill_limit=None keeps every respawn armed: the pair keeps
        dying, the bounded retry budget runs out, and only then does the
        verdict degrade to UNKNOWN."""
        net, nodes = triple_network()
        g1, g2, _, _ = nodes
        with CheckerPool(
            net, 2, chaos_kill_pair=(g1, g2), chaos_kill_limit=None,
            retry_policy=RetryPolicy(max_retries=1, backoff_base=0.01),
        ) as pool:
            verdicts = pool.check_pairs(standard_pairs(nodes))
            # Initial dispatch + one retry, both killed.
            assert pool.worker_failures == 2
            stats = pool.supervision_stats
        poisoned, sat, comp = verdicts
        assert poisoned.degraded
        assert poisoned.outcome is SatResult.UNKNOWN
        assert stats["retries"] == 1
        assert sat.outcome is SatResult.SAT and not sat.degraded
        assert comp.outcome is SatResult.UNSAT and not comp.degraded

    def test_workers_dying_at_startup_degrade_instead_of_hanging(
        self, monkeypatch
    ):
        """Every replacement dies before reading its fence: the fenced
        tasks are charged as lost at the next reap, so the call returns
        all-degraded once the retry budget is spent (it used to respawn
        forever)."""
        if "fork" not in pool_module.multiprocessing.get_all_start_methods():
            pytest.skip("the exiting worker is a closure: needs fork")
        monkeypatch.setattr(
            pool_module, "_worker_main", lambda *args: os._exit(1)
        )
        net, nodes = triple_network()
        pairs = standard_pairs(nodes)[:2]
        # The deadline only bounds a regression; the call must not need it.
        budget = Budget(seconds=60)
        start = time.monotonic()
        with CheckerPool(
            net, 2, retry_policy=RetryPolicy(max_retries=2, backoff_base=0.01)
        ) as pool:
            verdicts = pool.check_pairs(pairs, budget=budget)
            stats = pool.supervision_stats
        assert time.monotonic() - start < 30
        assert not budget.time_expired()
        assert all(v.degraded for v in verdicts)
        assert all(v.outcome is SatResult.UNKNOWN for v in verdicts)
        assert stats["retries"] == len(pairs) * 2

    def test_expired_deadline_degrades_outstanding_pairs(self):
        net, nodes = triple_network()
        with CheckerPool(net, 2) as pool:
            verdicts = pool.check_pairs(
                standard_pairs(nodes), budget=Budget(seconds=0)
            )
        assert all(v.degraded for v in verdicts)
        assert all(v.outcome is SatResult.UNKNOWN for v in verdicts)

    def test_closed_pool_rejects_work(self):
        net, nodes = triple_network()
        pool = CheckerPool(net, 1)
        pool.close()
        with pytest.raises(SweepError):
            pool.check_pairs(standard_pairs(nodes))

    def test_invalid_worker_count_rejected(self):
        net, _ = triple_network()
        with pytest.raises(SweepError):
            CheckerPool(net, 0)


class TestRouting:
    def test_shard_routing_is_stable_and_jobs_independent(self):
        net, _ = triple_network()
        with CheckerPool(net, 1) as one, CheckerPool(net, 4) as four:
            for rep, member in [(3, 4), (3, 5), (10, 99)]:
                assert one.shard_of(rep, member) == four.shard_of(rep, member)
                assert 0 <= one.shard_of(rep, member) < one.shards


class TestStartMethods:
    def test_spawn_workers_match_fork(self, monkeypatch):
        """Under ``spawn`` the workers unpickle the network and its lowered
        tape instead of inheriting them; verdicts must not change."""
        if "fork" not in pool_module.multiprocessing.get_all_start_methods():
            pytest.skip("compares spawn against fork")
        base = random_network(seed=5, num_gates=20)
        net, _ = union_network(base, base)
        gates = [n.uid for n in net.gates()]
        rng = random.Random(5)
        pairs = [
            (*sorted(rng.sample(gates, 2)), rng.random() < 0.3)
            for _ in range(12)
        ]

        def run(method):
            with CheckerPool(net, 2) as pool:
                assert pool._ctx.get_start_method() == method
                return [
                    (
                        v.outcome,
                        None if v.vector is None else v.vector.values,
                        v.conflicts,
                        v.propagations,
                        v.degraded,
                    )
                    for v in pool.check_pairs(pairs)
                ]

        forked = run("fork")
        monkeypatch.setattr(
            pool_module.multiprocessing,
            "get_all_start_methods",
            lambda: ["spawn"],
        )
        spawned = run("spawn")
        assert spawned == forked
        assert not any(v[4] for v in spawned)
