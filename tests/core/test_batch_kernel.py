"""Batch SimGen generator vs the reference engines: exact equivalence.

The batch generator of :mod:`repro.core.batch` runs Algorithm 1's inner
loop on a C core lowered straight from the network, and verifies
finished attempts up to 64 per simulator word, speculating past each
attempt and rewinding when the reference loop would have stopped
earlier.  Its contract is the same as every backend seam in this
repository: *bit-identical* trajectories, not merely functional
equivalence.  The differential suite here drives the batch generator and
the reference :class:`~repro.core.generator.SimGenGenerator` with the
same networks, seeds, and sweep schedules and requires identical
vectors, reports, survivor lists, RNG end states, and
implication/decision stats streams.

Lane-masking edge cases are pinned separately: a flush whose lanes all
retired pre-verify must not touch the simulator, a single live lane must
verify alone, and a mid-batch quota fill must rewind the over-speculated
lanes exactly to their marks.  Where the C core cannot run, the
generator takes the reference path; the fallback tests pin that it stays
identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.batch as batch_mod
from repro.benchgen.suite import sweep_instance
from repro.core import make_generator
from repro.core.batch import BatchSimGenGenerator, _PendingAttempt
from repro.core.generator import GenerationReport, SimGenGenerator
from repro.core.outgold import alternating_outgold, level_alternating_outgold
from repro.sweep import SweepConfig, SweepEngine
from tests.conftest import random_network

SIMGEN_STRATEGIES = ("AI+DC+MFFC", "AI+DC", "AI+RD", "SI+RD")

#: The lane machinery (speculation, flushes, rewinds) runs only on the C
#: core; without it the generator is the reference generator.
needs_c_core = pytest.mark.skipif(
    batch_mod.SIMGEN_CORE != "c", reason="no SimGen C core in this process"
)


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------

def freeze_reports(gen):
    return [
        (
            r.skipped,
            r.survivors,
            r.implications,
            r.decisions,
            r.conflicts,
            None
            if r.vector is None
            else tuple(sorted(r.vector.values.items())),
        )
        for r in gen.reports
    ]


def run_trace(net, gen, seed, iterations=6, **config):
    """Everything observable about one guided sweep, frozen for comparison.

    Includes the implication/decision stats dicts: the C core folds its
    counters into the same streams the reference engines feed, so they
    must match number for number.
    """
    engine = SweepEngine(
        net, gen, SweepConfig(seed=seed, iterations=iterations, **config)
    )
    classes, metrics = engine.run_simulation_phase()
    return (
        classes.all_classes(),
        metrics.cost_history,
        freeze_reports(gen),
        gen.rng.getstate(),
        dict(gen.implication.stats),
        dict(gen.decision.stats),
    )


def sweep_trace(net, strategy, backend, seed, vpi=4, iterations=6, **config):
    gen = make_generator(
        strategy,
        net,
        seed=seed,
        simgen_backend=backend,
        vectors_per_iteration=vpi,
    )
    if backend == "batch" and batch_mod._LIB is not None:
        # The differential must exercise the C core wherever it loads.
        assert gen.kernel is not None
    return gen, run_trace(net, gen, seed, iterations, **config)


def two_real_attempts(net, seed, vpi=1):
    """A batch generator plus its first two attempts, parked un-flushed.

    Replays exactly the body of ``generate()`` up to (not including) the
    flush, over one class holding every gate, so flush behaviour can be
    probed at a chosen quota.  Also returns, per attempt, what its mark
    must restore: the core's stream and counters, the rotation, and the
    report list.
    """
    gen = make_generator(
        "AI+DC+MFFC",
        net,
        seed=seed,
        simgen_backend="batch",
        vectors_per_iteration=vpi,
    )
    splittable = [[n.uid for n in net.gates()]]
    lowered = {}
    core = gen.kernel
    core.load_rng(gen.rng)
    records, marks = [], []
    for mark in range(2):
        marks.append(
            (core.rng_state(), core.counters(), gen._rotation, list(gen.reports))
        )
        lane = sum(rec.lane >= 0 for rec in records)
        records.append(gen._attempt(splittable, lowered, mark, lane))
    return gen, records, marks


# ----------------------------------------------------------------------
# Differential identity: batch == reference, bit for bit
# ----------------------------------------------------------------------

class TestBatchIdentity:
    @pytest.mark.parametrize("strategy", SIMGEN_STRATEGIES)
    def test_sweep_trajectory_identical(self, strategy):
        net = random_network(seed=21, num_inputs=6, num_gates=24)
        _, batch = sweep_trace(net, strategy, "batch", seed=5)
        _, reference = sweep_trace(net, strategy, "reference", seed=5)
        assert batch == reference

    @pytest.mark.parametrize("strategy", SIMGEN_STRATEGIES)
    def test_six_input_lut_circuit_identical(self, strategy):
        """``random_network`` gates have at most 4 inputs; the log2
        suite circuit mapped to 6-LUTs puts the core's k = 5 and k = 6
        tables on the differential too (it decides at dozens of them
        under every strategy)."""
        net = sweep_instance("log2")
        assert max(len(n.fanins) for n in net.gates()) == 6
        _, batch = sweep_trace(net, strategy, "batch", seed=3)
        _, reference = sweep_trace(net, strategy, "reference", seed=3)
        assert batch == reference
        assert reference[-1]["rows_committed"] > 0

    @settings(max_examples=10, deadline=None)
    @given(
        net_seed=st.integers(0, 5000),
        sweep_seed=st.integers(0, 5000),
        num_inputs=st.integers(4, 6),
        num_gates=st.integers(12, 24),
    )
    def test_random_networks_identical(
        self, net_seed, sweep_seed, num_inputs, num_gates
    ):
        net = random_network(
            seed=net_seed, num_inputs=num_inputs, num_gates=num_gates
        )
        _, batch = sweep_trace(
            net, "AI+DC+MFFC", "batch", seed=sweep_seed, iterations=4
        )
        _, reference = sweep_trace(
            net, "AI+DC+MFFC", "reference", seed=sweep_seed, iterations=4
        )
        assert batch == reference

    @pytest.mark.parametrize("jobs", (1, 4))
    def test_full_sweep_identical_across_backends(self, jobs):
        """End-to-end gate: the full sweep (guided phase + pooled SAT
        phase) lands on the same verdicts, classes, and integer counters
        whichever generator backend ran.  ``simgen.batch.*`` and
        ``simgen.kernel.*`` describe the C core and have no reference
        counterpart."""
        net = random_network(seed=31, num_inputs=6, num_gates=26)

        def run(backend):
            gen = make_generator(
                "AI+DC+MFFC", net, seed=8, simgen_backend=backend
            )
            engine = SweepEngine(net, gen, SweepConfig(seed=8, jobs=jobs))
            result = engine.run()
            counters = {
                k: v
                for k, v in engine.registry.as_dict().items()
                if not k.endswith("_s")
                and not k.startswith(("simgen.batch", "simgen.kernel"))
            }
            return (
                result.equivalences,
                result.classes.all_classes(),
                result.metrics.cost_history,
                result.metrics.sat_calls,
                result.metrics.proven,
                freeze_reports(gen),
                counters,
            )

        assert run("batch") == run("reference")

    @pytest.mark.parametrize("strategy", ("AI+DC+MFFC", "SI+RD"))
    @pytest.mark.parametrize("circuit", ("cps", "apex2"))
    def test_sample_above_set_threshold_identical(self, circuit, strategy):
        """Above 85 members ``random.sample`` switches from its pool to
        set rejection at ``max_targets`` 8.  One random pattern leaves
        classes that large for the guided phase, so the core's port of
        both branches, and of the roulette and ``choice`` draws that
        follow, meets the reference stream there."""
        net = sweep_instance(circuit)
        config = {"random_width": 1}
        classes, _ = SweepEngine(
            net, None, SweepConfig(seed=0, **config)
        ).run_simulation_phase()
        assert max(len(c) for c in classes.splittable()) > 85
        _, batch = sweep_trace(net, strategy, "batch", seed=0, **config)
        _, reference = sweep_trace(net, strategy, "reference", seed=0, **config)
        assert batch == reference

    @pytest.mark.parametrize("max_targets", (None, 1, 3))
    def test_target_cap_edges_identical(self, max_targets):
        """The core's ``select_targets``: no cap at all, a cap below the
        clamp to 2 (the cap test still reads it unclamped), and a sample
        under ``random.sample``'s fixed 21-member threshold."""
        net = random_network(seed=41, num_inputs=5, num_gates=24)

        def run(cls):
            gen = cls(net, seed=2, max_targets=max_targets)
            return run_trace(net, gen, seed=2, iterations=5)

        assert run(BatchSimGenGenerator) == run(SimGenGenerator)

    def test_level_alternating_outgold_identical(self):
        """The other speculation-eligible builtin outgold strategy."""
        net = random_network(seed=13, num_inputs=5, num_gates=20)

        def run(cls):
            gen = cls(net, seed=7, outgold_strategy=level_alternating_outgold)
            return run_trace(net, gen, seed=7, iterations=5)

        assert run(BatchSimGenGenerator) == run(SimGenGenerator)

    def test_skip_heavy_runs_identical_through_trailing_flush(self):
        """Seeds whose attempts mostly mask out exhaust the attempt budget
        with lanes still parked; the trailing flush must resolve them and
        stay on the reference trajectory."""
        for seed in (1, 2, 3, 4):
            net = random_network(seed=seed, num_inputs=5, num_gates=18)
            gen, batch = sweep_trace(net, "AI+DC+MFFC", "batch", seed=seed)
            _, reference = sweep_trace(
                net, "AI+DC+MFFC", "reference", seed=seed
            )
            assert batch == reference
            if batch_mod.SIMGEN_CORE == "c":
                assert gen.batch.stats["masked_lane_steps"] > 0


# ----------------------------------------------------------------------
# Lane masking and speculation edge cases
# ----------------------------------------------------------------------

@needs_c_core
class TestLaneMasking:
    def test_all_lanes_masked_flush_never_touches_simulator(self):
        """Lanes whose skip criterion already failed on the claimed values
        retire before the lockstep verify: a flush of only masked lanes is
        a no-op for the simulator, the flush counter, and the occupancy
        histogram feed."""
        net = random_network(seed=3, num_inputs=5, num_gates=16)
        gen = make_generator("AI+DC+MFFC", net, seed=3, simgen_backend="batch")
        gen._verifier = None  # any simulator touch would raise
        pending = [
            _PendingAttempt(
                report=GenerationReport(vector=None, skipped=True),
                rotation=i,
                n_reports=0,
                lane=-1,
                targets=[],
            )
            for i in range(3)
        ]
        vectors = []
        assert gen._flush(pending, vectors) == (False, 0)
        assert vectors == []
        assert gen.batch.stats["batch_flushes"] == 0
        assert gen.batch.lane_occupancy == []

    def test_single_live_lane_verifies_alone(self):
        """``vectors_per_iteration=1`` keeps the flush width at one: every
        verification word carries a single live lane, and the trajectory
        still matches the reference generator."""
        net = random_network(seed=2, num_inputs=6, num_gates=22)
        gen, batch = sweep_trace(net, "AI+DC+MFFC", "batch", seed=2, vpi=1)
        _, reference = sweep_trace(
            net, "AI+DC+MFFC", "reference", seed=2, vpi=1
        )
        assert batch == reference
        assert gen.batch.lane_occupancy
        assert all(width == 1 for width in gen.batch.lane_occupancy)

    def test_mid_batch_quota_fill_rewinds_over_speculation(self):
        """When the quota fills mid-flush, every later lane never happened:
        the core's stream and counters, the rotation, and the report list
        rewind to that lane's mark.  (Seed 0 pins the precondition: both
        attempts park for verification and the first one commits.)"""
        net = random_network(seed=0, num_inputs=5, num_gates=16)
        gen, (first, second), (_, mark) = two_real_attempts(net, seed=0, vpi=1)
        assert (first.lane, second.lane) == (0, 1)
        core = gen.kernel
        speculated = (
            core.rng_state(), core.counters(), gen._rotation, list(gen.reports)
        )
        assert speculated != mark
        vectors = []
        progress, discarded = gen._flush([first, second], vectors)
        assert progress and discarded == 1
        assert len(vectors) == 1
        assert gen.batch.stats["speculative_rewinds"] == 1
        assert gen.batch.stats["discarded_attempts"] == 1
        # The rewind restored exactly the second attempt's mark.
        rng_state, counters, rotation, reports = mark
        assert core.rng_state() == rng_state
        assert core.counters() == counters
        assert gen._rotation == rotation
        assert gen.reports == reports


# ----------------------------------------------------------------------
# Fallback paths: no C core, unsupported arity, stateful outgold
# ----------------------------------------------------------------------

class TestFallbackPaths:
    """Where the C core cannot run, the generator runs the inherited
    reference Algorithm 1; each case must reproduce the reference
    generator's trajectory, RNG end state, and stats."""

    def test_pure_python_attempt_path_identical(self, monkeypatch):
        """With no loaded core (no toolchain, ``REPRO_SIMGENCORE=python``)
        every attempt runs on the reference engines."""
        net = random_network(seed=17, num_inputs=5, num_gates=20)
        _, reference = sweep_trace(net, "AI+DC+MFFC", "reference", seed=4)
        monkeypatch.setattr(batch_mod, "_LIB", None)
        gen, fallback = sweep_trace(net, "AI+DC+MFFC", "batch", seed=4)
        assert isinstance(gen, BatchSimGenGenerator)
        assert gen.kernel is None
        assert gen.batch.stats["lane_attempts"] == 0
        assert fallback == reference

    def test_oversized_arity_falls_back_silently(self, monkeypatch):
        """Gates wider than ``SG_MAX_K`` can't be lowered into the C
        tables; the generator quietly runs the reference path."""
        net = random_network(seed=17, num_inputs=5, num_gates=20)
        _, reference = sweep_trace(net, "AI+DC+MFFC", "reference", seed=4)
        monkeypatch.setattr(batch_mod, "SG_MAX_K", 0)
        gen = make_generator("AI+DC+MFFC", net, seed=4, simgen_backend="batch")
        assert gen.kernel is None
        assert run_trace(net, gen, seed=4) == reference

    def test_stateful_outgold_disables_speculation_not_identity(self):
        """Arbitrary outgold callables may hold state the RNG checkpoint
        cannot rewind, so the generator runs the reference loop — still
        bit-identical to the reference generator."""
        net = random_network(seed=23, num_inputs=5, num_gates=18)

        def custom_outgold(network, targets):
            return alternating_outgold(network, targets)

        def run(cls):
            gen = cls(net, seed=6, outgold_strategy=custom_outgold)
            return gen, run_trace(net, gen, seed=6, iterations=5)

        gen, batch = run(BatchSimGenGenerator)
        assert gen.kernel is None
        assert gen.batch.stats["lane_attempts"] == 0
        _, reference = run(SimGenGenerator)
        assert batch == reference
