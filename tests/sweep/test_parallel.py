"""Process-parallel SAT phase: deterministic merge, chaos, budgets.

The contract (docs/PERFORMANCE.md): for any worker count the parallel
path's refinement trajectory is bit-identical, and its final merges,
classes, and cost equal the serial path's — the serial path itself is
untouched when ``jobs=1``.
"""

import pytest

from repro.core.strategies import factory, make_generator
from repro.errors import SweepError
from repro.runtime import Budget
from repro.sat.tseitin import po_miter
from repro.sweep import SweepConfig, SweepEngine, check_equivalence
from tests.conftest import random_network
from tests.runtime.conftest import assert_equivalences_sound, parity_pair_network


def duplicated_network(seed=3):
    """Two copies of a random circuit over shared PIs: rich in provable
    equivalences, so the SAT phase has real parallel work."""
    base = random_network(seed=seed, num_inputs=5, num_gates=25)
    return po_miter(base, base)


def run_sweep(net, jobs, **overrides):
    config = SweepConfig(seed=11, jobs=jobs, **overrides)
    generator = make_generator("RandS", net, seed=11)
    return SweepEngine(net, generator, config).run()


def merge_projection(result):
    """What every schedule must agree on (see SweepTrace.same_merges)."""
    return (
        sorted(result.equivalences),
        sorted(map(tuple, result.classes.all_classes())),
        result.classes.cost(),
        result.metrics.proven,
    )


class TestDeterministicMerge:
    def test_parallel_merges_equal_serial(self):
        net = duplicated_network()
        serial = run_sweep(net, jobs=1)
        parallel = run_sweep(net, jobs=4)
        assert merge_projection(serial) == merge_projection(parallel)
        assert serial.metrics.cost_history == parallel.metrics.cost_history
        assert_equivalences_sound(net, parallel.equivalences)

    def test_trajectory_is_worker_count_invariant(self):
        net = duplicated_network()
        results = {jobs: run_sweep(net, jobs=jobs) for jobs in (2, 3, 4)}
        reference = results[2]
        for jobs in (3, 4):
            other = results[jobs]
            # Bit-identical, not merely merge-equal: same verdict sequence,
            # same counterexamples, same waves.
            assert other.equivalences == reference.equivalences
            assert other.metrics.sat_calls == reference.metrics.sat_calls
            assert other.metrics.disproven == reference.metrics.disproven
            assert other.metrics.unknown == reference.metrics.unknown
            assert (
                other.metrics.vectors_simulated
                == reference.metrics.vectors_simulated
            )
            assert other.metrics.waves == reference.metrics.waves
            assert other.classes.all_classes() == reference.classes.all_classes()

    def test_reference_engine_pooled_matches_compiled(self):
        """The reference backend's simulator and pooled solvers drive the
        same waves, merges and resimulation as the compiled ones."""
        net = duplicated_network()
        compiled = run_sweep(net, jobs=2)
        reference = run_sweep(net, jobs=2, backend="reference")
        assert compiled.metrics.sat_calls > 0
        assert merge_projection(reference) == merge_projection(compiled)
        assert (
            reference.metrics.cost_history == compiled.metrics.cost_history
        )

    def test_serial_path_reports_no_waves(self):
        net = duplicated_network()
        serial = run_sweep(net, jobs=1)
        assert serial.metrics.waves == 0
        assert serial.metrics.worker_failures == 0

    def test_parallel_escalation_ladder_matches_serial(self):
        net = parity_pair_network(n=10, pairs=2)
        def run(jobs):
            config = SweepConfig(
                seed=3,
                sat_conflict_limit=100,
                escalation_factor=4,
                max_escalations=2,
                jobs=jobs,
            )
            return SweepEngine(net, None, config).run()

        serial, parallel = run(1), run(2)
        assert merge_projection(serial) == merge_projection(parallel)
        assert parallel.metrics.escalations > 0
        assert parallel.metrics.unknown == 0
        assert_equivalences_sound(net, parallel.equivalences)


class TestCecParallel:
    def test_equivalent_verdicts_match(self):
        base = random_network(seed=5, num_inputs=5, num_gates=20)
        results = {}
        for jobs in (1, 2):
            results[jobs] = check_equivalence(
                base,
                base,
                generator_factory=factory("RandS"),
                config=SweepConfig(seed=7, jobs=jobs),
            )
        assert results[1].verdict == results[2].verdict == "equivalent"
        assert results[1].outputs == results[2].outputs

    def test_different_verdicts_match(self):
        golden = random_network(seed=5, num_inputs=5, num_gates=20)
        revised = random_network(seed=6, num_inputs=5, num_gates=20)
        results = {}
        for jobs in (1, 2):
            results[jobs] = check_equivalence(
                golden,
                revised,
                generator_factory=factory("RandS"),
                config=SweepConfig(seed=7, jobs=jobs),
            )
        assert results[1].verdict == results[2].verdict == "different"
        assert results[1].outputs == results[2].outputs
        assert results[2].counterexample is not None


class TestChaos:
    def test_killed_worker_pair_is_retried_and_merge_matches_clean_run(self):
        """A worker SIGKILLed mid-wave costs a respawn, not a verdict: the
        lost pair is re-dispatched and the merged result equals both an
        undisturbed jobs=2 run and the serial jobs=1 run."""
        net = duplicated_network()
        clean = run_sweep(net, jobs=2)
        assert clean.equivalences, "workload must have provable pairs"
        target = clean.equivalences[0][:2]
        chaotic = run_sweep(net, jobs=2, chaos_kill_pair=target)
        assert chaotic.metrics.worker_failures == 1
        assert chaotic.metrics.unknown == clean.metrics.unknown
        assert merge_projection(chaotic) == merge_projection(clean)
        assert merge_projection(chaotic) == merge_projection(
            run_sweep(net, jobs=1)
        )
        assert_equivalences_sound(net, chaotic.equivalences)

    def test_persistent_killer_degrades_pair_without_corrupting_merge(self):
        """When every respawn is re-armed (chaos_kill_limit=None) the retry
        budget exhausts and the pair degrades to UNKNOWN — never guessed."""
        net = duplicated_network()
        clean = run_sweep(net, jobs=2)
        target = clean.equivalences[0][:2]
        chaotic = run_sweep(
            net, jobs=2, chaos_kill_pair=target,
            chaos_kill_limit=None, pair_retry_limit=1,
        )
        metrics = chaotic.metrics
        # Initial dispatch + one retry, both killed.
        assert metrics.worker_failures == 2
        assert metrics.unknown >= 1
        assert target not in {(a, b) for a, b, _ in chaotic.equivalences}
        # Everything that WAS merged is still a true equivalence.
        assert_equivalences_sound(net, chaotic.equivalences)

    def test_expired_budget_yields_sound_partial_result(self):
        net = duplicated_network()
        result = run_sweep(net, jobs=2, budget=Budget(seconds=0))
        assert result.metrics.deadline_expired
        assert result.metrics.sat_calls == 0
        assert result.equivalences == []


class TestValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(SweepError):
            SweepEngine(duplicated_network(), None, SweepConfig(jobs=0))

    def test_solver_factory_incompatible_with_jobs(self):
        with pytest.raises(SweepError):
            SweepEngine(
                duplicated_network(),
                None,
                SweepConfig(jobs=2, solver_factory=object),
            )
