"""The SimGen core's lowering, the bounded caches, and the backend seam.

Each batch generator lowers its network into its own C core in one call,
handing every distinct gate function over once, and counts those
hand-overs in process-wide counters that the serve daemon's threads bump
concurrently.  A core must stay on the reference trajectory whether or
not other cores were lowered before it, and must fold its work into the
reference engines' stats dicts.  The
other SimGen caches — the implication memo and the decision rows cache —
are bounded: evictions must count, and must never change a trajectory.

The one-call generate() driver is the subject of
``tests/core/test_batch_kernel.py``.
"""

import random
import sys
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
from repro.core.generator import SimGenGenerator
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
# Generator / sweep identity of the lowered core
# ----------------------------------------------------------------------

class TestGeneratorIdentity:
    @pytest.mark.parametrize("strategy", SIMGEN_STRATEGIES)
    def test_sweep_trajectory_identical(self, strategy):
        """A core lowered first and one lowered after it (each core gets
        its own copy of every gate function) land on the reference
        trace."""
        net = random_network(seed=21, num_inputs=6, num_gates=24)
        _, reference = sweep_trace(net, strategy, "reference", seed=5)
        _, first = sweep_trace(net, strategy, "compiled", seed=5)
        _, second = sweep_trace(net, strategy, "compiled", seed=5)
        assert first == second == reference

    @settings(max_examples=12, deadline=None)
    @given(
        net_seed=st.integers(0, 1 << 12),
        run_seed=st.integers(0, 1 << 12),
        strategy=st.sampled_from(SIMGEN_STRATEGIES),
    )
    def test_random_networks_trajectory_identical(
        self, net_seed, run_seed, strategy
    ):
        net = random_network(seed=net_seed, num_inputs=5, num_gates=16)
        _, batch = sweep_trace(net, strategy, "compiled", seed=run_seed)
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
        # "batch" was the C core's name before one backend value named
        # every layer's.
        for backend in ("vectorized", "batch"):
            with pytest.raises(GenerationError, match="unknown backend"):
                make_generator("AI+DC+MFFC", net, backend=backend)

    def test_backend_picks_the_generator_class(self):
        net = random_network(seed=1)
        compiled = make_generator("AI+DC+MFFC", net, backend="compiled")
        reference = make_generator("AI+DC+MFFC", net, backend="reference")
        assert type(compiled) is BatchSimGenGenerator
        assert type(reference) is SimGenGenerator


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


class TestTransitionCacheConcurrency:
    """The lowering counters behind ``transition_cache_info`` are bumped
    from the serve daemon's job threads."""

    @needs_c_core
    def test_concurrent_sessions_conserve_counters(self):
        """Every lowering counts each of its gates once, as a function the
        core already had (hit) or a new one (miss), and no update is lost
        to threads lowering at the same time."""
        net = random_network(seed=4, num_inputs=5, num_gates=16)
        gates = len(list(net.gates()))
        tables = make_generator("AI+DC+MFFC", net).kernel.stats[
            "transition_tables"
        ]
        threads, rounds = 8, 10
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for _ in range(rounds):
                make_generator("AI+DC+MFFC", net, seed=1)

        before = compiled_mod.transition_cache_info()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        info = compiled_mod.transition_cache_info()
        hits = info["hits"] - before["hits"]
        misses = info["misses"] - before["misses"]
        assert misses == threads * rounds * tables
        assert hits + misses == threads * rounds * gates
