"""Graceful degradation: deadlines and interrupts yield sound partial results."""

import time

import pytest

from repro.runtime import Budget
from repro.sweep import SweepConfig, SweepEngine
from repro.sweep.cec import check_equivalence
from repro.sweep.checker import PairChecker
from repro.sat.solver import SatResult
from tests.runtime.conftest import assert_equivalences_sound, parity_pair_network


def hard_network():
    """Three 14-input parity pairs: on the reference solver an unbudgeted
    unbounded sweep takes several seconds (~11k conflicts), so a 1-second
    deadline reliably fires mid-SAT-phase.  The arena-backed compiled core
    clears the same conflicts in tens of milliseconds, so deadline tests
    pin ``backend="reference"`` to keep the instance slow; the compiled
    core's budget polling is covered by the expiry-identity fuzz suite in
    ``tests/sat/test_compiled.py``."""
    return parity_pair_network(n=14, pairs=3)


class TestDeadline:
    def test_one_second_deadline_returns_partial_result_in_time(self):
        net = hard_network()
        config = SweepConfig(
            seed=3,
            sat_conflict_limit=None,
            budget=Budget(seconds=1.0),
            backend="reference",
        )
        engine = SweepEngine(net, None, config)
        start = time.perf_counter()
        result = engine.run()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.5, f"overran the deadline by {elapsed - 1.0:.2f}s"
        metrics = result.metrics
        assert metrics.deadline_expired
        assert not metrics.interrupted
        # Whatever was proven before the cut is genuinely equivalent, and
        # re-verifies UNSAT with a fresh unbounded checker.
        assert_equivalences_sound(net, result.equivalences)
        fresh = PairChecker(net, conflict_limit=None)
        for rep, member, complemented in result.equivalences:
            outcome, _ = fresh.check(rep, member, complemented)
            assert outcome is SatResult.UNSAT
        # The unresolved pairs are reported, not guessed.
        assert metrics.proven + metrics.disproven + metrics.unknown >= 0
        assert metrics.sat_calls >= metrics.proven + metrics.disproven

    def test_zero_deadline_stops_before_guided_iterations(self):
        net = parity_pair_network(n=6)
        config = SweepConfig(seed=3, budget=Budget(seconds=0.0))
        engine = SweepEngine(net, None, config)
        classes, metrics = engine.run_simulation_phase()
        assert len(metrics.cost_history) >= 1
        result = engine.run_sat_phase(classes, metrics)
        assert result.metrics.deadline_expired
        assert result.metrics.sat_calls == 0
        assert result.equivalences == []

    def test_expired_run_is_never_reported_different_by_cec(self):
        # Ground truth: identical circuits. A timed-out CEC must degrade to
        # "inconclusive", never flip to "different".
        net = parity_pair_network(n=10)
        config = SweepConfig(
            seed=3, sat_conflict_limit=None, budget=Budget(seconds=0.0)
        )
        result = check_equivalence(net, net, config=config)
        assert result.verdict == "inconclusive"
        assert not result.conclusive
        assert not result.equivalent
        assert set(result.outputs.values()) == {"unknown"}

    def test_unbudgeted_cec_on_same_instance_is_conclusive(self):
        net = parity_pair_network(n=6)
        result = check_equivalence(net, net, config=SweepConfig(seed=3))
        assert result.verdict == "equivalent"
        assert result.conclusive


class _InterruptAfter:
    """Observer that raises KeyboardInterrupt on the n-th matching event."""

    def __init__(self, phase: str, count: int):
        self.phase = phase
        self.count = count

    def __call__(self, phase, step, cost):
        if phase == self.phase:
            self.count -= 1
            if self.count <= 0:
                raise KeyboardInterrupt


class TestInterrupt:
    def test_interrupt_in_sat_phase_returns_sound_partial_result(self):
        net = parity_pair_network(n=6, pairs=4)
        engine = SweepEngine(
            net, None, SweepConfig(seed=3), observer=_InterruptAfter("sat", 2)
        )
        result = engine.run()
        assert result.metrics.interrupted
        assert result.metrics.sat_calls <= 2
        assert_equivalences_sound(net, result.equivalences)

    def test_interrupt_in_simulation_phase_skips_sat(self):
        net = parity_pair_network(n=6)
        engine = SweepEngine(
            net,
            None,
            SweepConfig(seed=3),
            observer=_InterruptAfter("random", 1),
        )
        result = engine.run()
        assert result.metrics.interrupted
        assert result.metrics.sat_calls == 0
        assert result.equivalences == []

    def test_interrupted_cec_reports_unknown_outputs(self):
        net = parity_pair_network(n=6, pairs=2)
        config = SweepConfig(seed=3)
        with pytest.MonkeyPatch.context() as mp:
            calls = {"n": 0}
            original = PairChecker.check

            def exploding_check(self, *args, **kwargs):
                calls["n"] += 1
                if calls["n"] > 1:
                    raise KeyboardInterrupt
                return original(self, *args, **kwargs)

            mp.setattr(PairChecker, "check", exploding_check)
            result = check_equivalence(net, net, config=config)
        assert result.verdict in ("equivalent", "inconclusive")
        assert "different" not in result.outputs.values()
