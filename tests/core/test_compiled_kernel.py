"""The SimGen table cache, the bounded caches, and the backend seam.

:mod:`repro.core.compiled` keeps one packed transition table per distinct
gate function, shared by every C core a process builds; the cache is
LRU-bounded, thread-safe, and counts hits, misses and evictions for its
whole lifetime.  A core lowered from that cache must stay on the
reference trajectory whatever state the cache is in — cold, warm from an
earlier core, or evicting under a tiny cap while the core is lowered —
and must fold its work into the reference engines' stats dicts.  The
other SimGen caches — the implication memo and the decision rows cache
— are bounded too: evictions must count, and must never change a
trajectory.

The lane machinery of the batch generator (speculation, flushes,
rewinds) is the subject of ``tests/core/test_batch_kernel.py``.
"""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.batch as batch_mod
import repro.core.compiled as compiled_mod
from repro.core import make_generator
from repro.core.assignment import Assignment
from repro.core.batch import BatchSimGenGenerator
from repro.core.decision import DecisionEngine
from repro.core.implication import ImplicationEngine
from repro.errors import GenerationError
from repro.sweep import SweepConfig, SweepEngine
from tests.conftest import random_network
from tests.core.test_batch_kernel import (
    SIMGEN_STRATEGIES,
    needs_c_core,
    sweep_trace,
)


def seed_values(net, seed, count=3):
    """A deterministic handful of (uid, value) seed assignments."""
    rng = random.Random(seed)
    nodes = [n.uid for n in net.nodes() if not n.is_const]
    picks = rng.sample(nodes, min(count, len(nodes)))
    return [(uid, rng.randint(0, 1)) for uid in picks]


# ----------------------------------------------------------------------
# Generator / sweep identity through the shared table cache
# ----------------------------------------------------------------------

def lowered_trace(net, strategy, seed, cap=None, iterations=6):
    """(trace, new cache evictions) of a batch sweep whose core is lowered
    from a cold table cache, capped at ``cap`` tables while it lowers."""
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(compiled_mod, "TRANSITION_CACHE_CAP", cap)
        compiled_mod.clear_transition_cache()
        before = compiled_mod.transition_cache_info()["evictions"]
        _, trace = sweep_trace(
            net, strategy, "batch", seed=seed, iterations=iterations
        )
        after = compiled_mod.transition_cache_info()["evictions"]
    return trace, after - before


class TestGeneratorIdentity:
    @pytest.mark.parametrize("strategy", SIMGEN_STRATEGIES)
    def test_sweep_trajectory_identical(self, strategy):
        """Cold, warm and evicting lowerings all land on the reference
        trace.  Under a one-table cap a gate function seen again after
        its eviction is a new table object, so the core receives
        duplicate (equal) tables — which must not matter."""
        net = random_network(seed=21, num_inputs=6, num_gates=24)
        _, reference = sweep_trace(net, strategy, "reference", seed=5)
        cold, _ = lowered_trace(net, strategy, seed=5)
        _, warm = sweep_trace(net, strategy, "batch", seed=5)
        evicting, evictions = lowered_trace(net, strategy, seed=5, cap=1)
        assert cold == warm == evicting == reference
        if batch_mod.SIMGEN_CORE == "c":
            assert evictions > 0

    @settings(max_examples=12, deadline=None)
    @given(
        net_seed=st.integers(0, 1 << 12),
        run_seed=st.integers(0, 1 << 12),
        strategy=st.sampled_from(SIMGEN_STRATEGIES),
        cap=st.sampled_from((None, 1, 2)),
    )
    def test_random_networks_trajectory_identical(
        self, net_seed, run_seed, strategy, cap
    ):
        net = random_network(seed=net_seed, num_inputs=5, num_gates=16)
        batch, _ = lowered_trace(net, strategy, seed=run_seed, cap=cap)
        _, reference = sweep_trace(net, strategy, "reference", seed=run_seed)
        assert batch == reference

    def test_stats_shared_with_reference_engines(self):
        """The C core folds its work into the reference engines' stats
        dicts, and those are what the engine publishes as
        ``simgen.implication.*`` and ``simgen.decision.*``."""
        net = random_network(seed=3, num_inputs=5, num_gates=16)
        gen = make_generator("AI+DC+MFFC", net, seed=1)
        assert isinstance(gen, BatchSimGenGenerator)
        if batch_mod.SIMGEN_CORE == "c":
            assert gen.kernel is not None
        impl, dec = gen.implication.stats, gen.decision.stats
        engine = SweepEngine(net, gen, SweepConfig(seed=1, iterations=3))
        engine.run()
        assert gen.implication.stats is impl
        assert gen.decision.stats is dec
        assert impl["propagate_calls"] > 0
        assert dec["decisions"] > 0
        published = engine.registry.as_dict()
        for prefix, stats in (("implication", impl), ("decision", dec)):
            for key, value in stats.items():
                assert published.get(f"simgen.{prefix}.{key}", 0) == value


# ----------------------------------------------------------------------
# Backend plumbing
# ----------------------------------------------------------------------

class TestBackendSelection:
    def test_make_generator_rejects_unknown_backend(self):
        net = random_network(seed=1)
        # "compiled" named the removed Python kernel.
        for backend in ("vectorized", "compiled"):
            with pytest.raises(GenerationError, match="unknown simgen backend"):
                make_generator("AI+DC+MFFC", net, simgen_backend=backend)


# ----------------------------------------------------------------------
# Bounded caches: evictions count, trajectories never change
# ----------------------------------------------------------------------

class TestBoundedCaches:
    def test_implication_memo_cap_validates(self):
        net = random_network(seed=1)
        with pytest.raises(ValueError, match="memo_cap"):
            ImplicationEngine(net, memo_cap=0)

    def test_implication_memo_eviction_counts_and_preserves_results(self):
        net = random_network(seed=4, num_inputs=5, num_gates=16)
        seeds = seed_values(net, 11)
        bounded = ImplicationEngine(net, memo_cap=1)
        unbounded = ImplicationEngine(net)

        def run(engine):
            assignment = Assignment(net)
            for uid, value in seeds:
                assignment.assign(uid, value)
            outcome = engine.propagate(assignment, [u for u, _ in seeds])
            return outcome.conflict, list(assignment.as_dict().items())

        assert run(bounded) == run(unbounded)
        assert run(bounded) == run(unbounded)  # memo-hit path, post-eviction
        assert bounded.stats["memo_evictions"] > 0
        assert unbounded.stats["memo_evictions"] == 0

    def test_decision_rows_cache_cap_validates(self):
        net = random_network(seed=1)
        with pytest.raises(ValueError, match="rows_cache_cap"):
            DecisionEngine(net, rows_cache_cap=0)

    def test_decision_rows_cache_eviction_counts(self):
        net = random_network(seed=4, num_inputs=5, num_gates=16)
        bounded = DecisionEngine(net, rows_cache_cap=1)
        assignment = Assignment(net)
        for node in net.nodes():
            if not (node.is_pi or node.is_const):
                bounded.candidate_rows(assignment, node.uid)
        assert bounded.stats["cache_evictions"] > 0

    def test_transition_cache_lru_eviction_counts(self, monkeypatch):
        """The shared transition-table cache is LRU-bounded: hits reinsert
        (the hot tail survives an insert past the cap), the coldest entry
        is evicted, and the lifetime eviction counter climbs.  Eviction
        only drops the cache's reference — cores built earlier keep
        their tables."""
        monkeypatch.setattr(compiled_mod, "TRANSITION_CACHE_CAP", 2)
        compiled_mod.clear_transition_cache()
        base = compiled_mod.transition_cache_info()["evictions"]
        rows = ((1, 1, 0),)  # one row over pin 0 — valid for any k >= 1
        a = compiled_mod.transition_table(rows, 1, False)
        b = compiled_mod.transition_table(rows, 2, False)
        # Touch `a` so `b` becomes the LRU victim of the next insert.
        assert compiled_mod.transition_table(rows, 1, False) is a
        compiled_mod.transition_table(rows, 3, False)
        assert compiled_mod.transition_table(rows, 1, False) is a
        rebuilt = compiled_mod.transition_table(rows, 2, False)
        assert rebuilt is not b
        info = compiled_mod.transition_cache_info()
        assert info["cap"] == 2
        assert info["size"] <= 2
        assert info["evictions"] - base >= 2
        # The evicted table object itself is untouched for live holders.
        assert b.rows == rows and b.k == 2
        assert list(b.masks) == [1] and list(b.outputs) == [0]

    @needs_c_core
    def test_transition_cache_shared_across_kernels(self):
        """Two generators over the same network lower every gate function
        through the shared cache: the second one only hits (the cache key
        is the gate function, not the gate)."""
        compiled_mod.clear_transition_cache()
        net = random_network(seed=4, num_inputs=5, num_gates=16)
        first = make_generator("AI+DC+MFFC", net, seed=1)
        after_first = compiled_mod.transition_cache_info()
        second = make_generator("AI+DC+MFFC", net, seed=2)
        after_second = compiled_mod.transition_cache_info()
        tables = first.kernel.stats["transition_tables"]
        assert 0 < tables == second.kernel.stats["transition_tables"]
        assert after_first["size"] == tables
        assert after_second["size"] == tables
        assert after_second["misses"] == after_first["misses"]
        assert after_second["hits"] - after_first["hits"] == len(
            list(net.gates())
        )


class TestTransitionCacheConcurrency:
    """The process-wide table cache is hit from service worker threads."""

    def test_concurrent_sessions_conserve_counters(self):
        """hits + misses == lookups under contention, and every miss is a
        real construction (no lost updates from read-modify-write races)."""
        compiled_mod.clear_transition_cache()
        before = compiled_mod.transition_cache_info()
        distinct = [((1, 1, 0),), ((1, 0, 0),), ((3, 3, 0),), ((2, 2, 1),)]
        threads, rounds = 8, 50
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for _ in range(rounds):
                for rows in distinct:
                    compiled_mod.transition_table(rows, 4, False)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        info = compiled_mod.transition_cache_info()
        lookups = threads * rounds * len(distinct)
        hits = info["hits"] - before["hits"]
        misses = info["misses"] - before["misses"]
        assert hits + misses == lookups
        # Under the cap nothing evicts, so misses == resident entries:
        # each table was constructed exactly once across all threads.
        assert info["evictions"] == before["evictions"]
        assert misses == len(distinct)

    def test_counters_survive_clear(self):
        compiled_mod.clear_transition_cache()
        before = compiled_mod.transition_cache_info()
        compiled_mod.transition_table(((1, 1, 0),), 5, False)
        compiled_mod.clear_transition_cache()
        info = compiled_mod.transition_cache_info()
        assert info["size"] == 0
        assert info["misses"] == before["misses"] + 1
