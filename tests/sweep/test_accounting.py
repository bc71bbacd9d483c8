"""Time/counter accounting invariants of the sweep and CEC flows.

The accounting model (docs/OBSERVABILITY.md):

* ``sat_time`` is owned by exactly ONE clock per query — the checker's on
  the serial path, the worker-local clock on the pooled path — and always
  equals ``sum(sat_time_per_attempt)``.
* ``sat_phase_time`` is the coordinator's wall window; it is never folded
  into ``sat_time`` (the historical CEC fallback double count).
* Every stats window closes on every exit path: expired deadline, solver
  exception, worker death.
* Counterexample resimulation is ``resim_time``'s, never ``sim_time``'s.
"""

import pytest

from repro.core.batch import SIMGEN_CORE
from repro.core.strategies import factory, make_generator
from repro.runtime import Budget
from repro.sat.solver import SatResult
from repro.sweep import SweepConfig, SweepEngine, check_equivalence
from repro.sweep.checker import PairChecker
from tests.conftest import random_network
from tests.runtime.conftest import parity_pair_network
from tests.sweep.test_parallel import duplicated_network


def run_engine(net, jobs, **overrides):
    config = SweepConfig(seed=11, jobs=jobs, **overrides)
    generator = make_generator("RandS", net, seed=11)
    engine = SweepEngine(net, generator, config)
    return engine, engine.run()


def assert_one_timer_owner(metrics):
    """The core invariant: every attempt window charged exactly once."""
    assert metrics.sat_time == pytest.approx(
        sum(metrics.sat_time_per_attempt), abs=1e-9
    )


class TestSweepAccounting:
    def test_serial_sat_time_owned_by_checker(self):
        _, result = run_engine(duplicated_network(), jobs=1)
        metrics = result.metrics
        assert metrics.sat_calls > 0
        assert_one_timer_owner(metrics)
        assert metrics.worker_sat_time == 0.0  # no pool involved
        # The phase wall window strictly contains every checker window.
        assert metrics.sat_phase_time >= metrics.sat_time - 1e-9

    def test_parallel_sat_time_owned_by_worker_clocks(self):
        _, result = run_engine(duplicated_network(), jobs=2)
        metrics = result.metrics
        assert metrics.sat_calls > 0
        assert_one_timer_owner(metrics)
        # Fully-pooled run: every window came from a worker clock.
        assert metrics.sat_time == pytest.approx(
            metrics.worker_sat_time, abs=1e-9
        )
        assert metrics.sat_phase_time > 0.0

    def test_escalation_rungs_sum_to_sat_time(self):
        net = parity_pair_network(n=10, pairs=2)
        for jobs in (1, 2):
            config = SweepConfig(
                seed=3,
                sat_conflict_limit=100,
                escalation_factor=4,
                max_escalations=2,
                jobs=jobs,
            )
            result = SweepEngine(net, None, config).run()
            assert result.metrics.escalations > 0
            assert len(result.metrics.sat_time_per_attempt) > 1
            assert_one_timer_owner(result.metrics)

    def test_integer_counters_identical_across_worker_counts(self):
        net = duplicated_network()
        snapshots = {}
        for jobs in (2, 4):
            engine, result = run_engine(net, jobs=jobs)
            assert_one_timer_owner(result.metrics)
            snapshots[jobs] = {
                k: v
                for k, v in engine.registry.as_dict().items()
                if not k.endswith("_s")
            }
        assert snapshots[2] == snapshots[4]

    def test_serial_and_parallel_agree_on_merge_counters(self):
        net = duplicated_network()
        _, serial = run_engine(net, jobs=1)
        _, parallel = run_engine(net, jobs=4)
        assert serial.metrics.proven == parallel.metrics.proven
        assert serial.metrics.cost_history == parallel.metrics.cost_history

    def test_killed_worker_is_retried_and_accounting_survives(self):
        net = duplicated_network()
        _, clean = run_engine(net, jobs=2)
        target = clean.equivalences[0][:2]
        engine, chaotic = run_engine(net, jobs=2, chaos_kill_pair=target)
        metrics = chaotic.metrics
        # Supervision re-dispatches the lost pair: a real verdict, no
        # degradation, one absorbed worker death.
        assert metrics.degraded_pairs == 0
        assert metrics.worker_failures == 1
        assert metrics.proven == clean.metrics.proven
        assert engine.registry.as_dict().get("pool.pairs_redispatched") == 1
        assert_one_timer_owner(metrics)

    def test_exhausted_retry_budget_degrades_and_accounting_survives(self):
        net = duplicated_network()
        _, clean = run_engine(net, jobs=2)
        target = clean.equivalences[0][:2]
        _, chaotic = run_engine(
            net, jobs=2, chaos_kill_pair=target,
            chaos_kill_limit=None, pair_retry_limit=0,
        )
        metrics = chaotic.metrics
        assert metrics.degraded_pairs >= 1
        assert metrics.worker_failures == 1
        assert_one_timer_owner(metrics)

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_counterexample_resimulation_owns_resim_time(self, jobs):
        """The SAT phase's counterexample flushes are charged to
        ``resim_time``: ``sim_time``, which the paper's runtime columns
        read, stays the simulation phase's."""
        config = SweepConfig(seed=0, random_width=1, jobs=jobs)
        engine = SweepEngine(duplicated_network(), None, config)
        classes, metrics = engine.run_simulation_phase()
        sim_time = metrics.sim_time
        result = engine.run_sat_phase(classes, metrics)
        assert result.metrics.disproven > 0
        assert result.metrics.sim_time == sim_time
        assert result.metrics.resim_time > 0.0
        engine.publish_metrics(result.metrics)
        assert engine.registry.as_dict()[
            "sweep.resim_time.total_s"
        ] == pytest.approx(result.metrics.resim_time)

    def test_sim_counters_count_every_batch(self):
        """``sim.*`` counts every simulator batch the engine runs,
        counterexample resimulation on restricted views included."""
        from repro.benchgen import sweep_instance

        widths = []

        class Counting:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def run_batch(self, batch):
                widths.append(batch.width)
                return self._inner.run_batch(batch)

        net = sweep_instance("cps", copies=2)
        engine = SweepEngine(
            net,
            make_generator("RandS", net, seed=0),
            SweepConfig(seed=0, simulator_wrapper=Counting),
        )
        result = engine.run()
        assert result.metrics.disproven > 0  # resimulation ran
        snapshot = engine.registry.as_dict()
        assert snapshot["sim.batches"] == len(widths)
        assert snapshot["sim.patterns"] == sum(widths)
        assert snapshot["sim.patterns"] == result.metrics.vectors_simulated

    def test_registry_mirrors_metrics(self):
        engine, result = run_engine(duplicated_network(), jobs=1)
        metrics = result.metrics
        snapshot = engine.registry.as_dict()
        assert snapshot["sweep.sat_calls"] == metrics.sat_calls
        assert snapshot["sweep.proven"] == metrics.proven
        assert snapshot["sweep.sat_time.total_s"] == pytest.approx(
            metrics.sat_time
        )
        assert snapshot["sweep.sim_time.total_s"] == pytest.approx(
            metrics.sim_time
        )
        # Component stats surfaced through the same registry.
        assert snapshot["sim.batches"] > 0
        assert snapshot["sat.conflicts_per_call.bucket_count"] == (
            metrics.sat_calls
        )


class TestGenerationAccounting:
    """Batch-boundary accounting for the guided phase.

    Each ``generate()`` wall window is appended to ``generation_times``
    and charged to ``simgen_time`` exactly once, so
    ``simgen_time == sum(generation_times)`` holds on every backend and
    at every pool width (generation always runs coordinator-side; jobs
    only widen the SAT pool)."""

    def run_simgen(self, jobs, backend):
        net = duplicated_network()
        config = SweepConfig(seed=11, jobs=jobs)
        generator = make_generator(
            "AI+DC+MFFC", net, seed=11, backend=backend
        )
        engine = SweepEngine(net, generator, config)
        return engine, engine.run()

    @pytest.mark.parametrize("jobs", (1, 4))
    def test_batch_simgen_time_is_sum_of_generation_windows(self, jobs):
        _, result = self.run_simgen(jobs, backend="compiled")
        metrics = result.metrics
        assert metrics.generation_times  # the guided phase ran
        assert metrics.simgen_time == pytest.approx(
            sum(metrics.generation_times), abs=1e-9
        )
        # One window per guided iteration, each contained in that
        # iteration's wall window (the remainder is sim_time's share).
        assert len(metrics.generation_times) == len(metrics.iteration_times)
        for gen_s, iter_s in zip(
            metrics.generation_times, metrics.iteration_times
        ):
            assert 0.0 <= gen_s <= iter_s + 1e-9

    @pytest.mark.parametrize("backend", ("compiled", "reference"))
    def test_invariant_holds_on_every_backend(self, backend):
        _, result = self.run_simgen(1, backend=backend)
        metrics = result.metrics
        assert metrics.generation_times
        assert metrics.simgen_time == pytest.approx(
            sum(metrics.generation_times), abs=1e-9
        )

    @pytest.mark.skipif(
        SIMGEN_CORE != "c", reason="kernel counters need the SimGen C core"
    )
    def test_batch_counters_surface_in_registry(self):
        engine, _ = self.run_simgen(1, backend="compiled")
        snapshot = engine.registry.as_dict()
        kernel = engine.generator.kernel.stats
        assert snapshot["simgen.kernel.attempts"] == kernel["attempts"] > 0
        assert snapshot["simgen.kernel.simulated"] == kernel["simulated"] > 0
        assert kernel["simulated"] <= kernel["attempts"]


class TestCecAccounting:
    def check(self, jobs):
        golden = random_network(seed=5, num_inputs=5, num_gates=20)
        revised = random_network(seed=6, num_inputs=5, num_gates=20)
        return check_equivalence(
            golden,
            revised,
            generator_factory=factory("RandS"),
            config=SweepConfig(seed=7, jobs=jobs),
        )

    def test_serial_fallback_single_timer_owner(self):
        result = self.check(jobs=1)
        assert_one_timer_owner(result.metrics)

    def test_pooled_fallback_never_double_counts(self):
        """Satellite fix: the CEC fallback batch adds its wall window to
        ``sat_phase_time`` ONLY; worker seconds land in ``sat_time`` once,
        via ``charge_attempt`` — historically both were added to
        ``sat_time``, double-counting every pooled fallback miter."""
        result = self.check(jobs=2)
        metrics = result.metrics
        assert_one_timer_owner(metrics)
        assert metrics.sat_time == pytest.approx(
            metrics.worker_sat_time, abs=1e-9
        )

    def test_serial_and_pooled_cec_count_same_calls(self):
        serial, pooled = self.check(jobs=1), self.check(jobs=2)
        assert serial.verdict == pooled.verdict
        assert serial.metrics.sat_calls == pooled.metrics.sat_calls
        assert len(serial.metrics.sat_time_per_attempt) == len(
            pooled.metrics.sat_time_per_attempt
        )


class TestWindowClosure:
    def test_expired_budget_still_closes_stats_window(self):
        net = random_network(seed=2, num_inputs=4, num_gates=10)
        checker = PairChecker(net, budget=Budget(seconds=0))
        nodes = [n.uid for n in net.gates()]
        result, vector = checker.check(nodes[0], nodes[1])
        assert result is SatResult.UNKNOWN and vector is None
        assert checker.stats.calls == 1
        assert checker.stats.unknown == 1
        assert checker.stats.sat_time > 0.0

    def test_solver_crash_still_closes_stats_window(self):
        class BoomSolver:
            def add_cnf(self, cnf):
                pass

            def add_clause(self, clause):
                pass

            def solve(self, *args, **kwargs):
                raise RuntimeError("hard solver fault")

        net = random_network(seed=2, num_inputs=4, num_gates=10)
        checker = PairChecker(
            net, incremental=False, solver_factory=BoomSolver
        )
        nodes = [n.uid for n in net.gates()]
        with pytest.raises(RuntimeError):
            checker.check(nodes[0], nodes[1])
        # The window closed on the exception path: the aborted query is an
        # UNKNOWN call, not a leaked half-open timer.
        assert checker.stats.calls == 1
        assert checker.stats.unknown == 1
        assert checker.stats.sat_time > 0.0
