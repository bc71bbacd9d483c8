"""Batch SimGen generator vs the reference engines: exact equivalence.

The batch generator of :mod:`repro.core.batch` runs each ``generate()``
call — the class rotation, every Algorithm-1 attempt and the simulation
that verifies each completed vector on its targets' cones — as one call
into a C core lowered straight from the network.  Its contract is the
same as every backend seam in this repository: *bit-identical*
trajectories, not merely functional equivalence.  The differential suite
here drives the batch generator and the reference
:class:`~repro.core.generator.SimGenGenerator` with the same networks,
seeds, classes and sweep schedules and requires identical vectors,
reports, survivor lists, RNG end states, and implication/decision stats
streams.  Where the C core cannot run, the generator takes the reference
path; the fallback tests pin that it stays identical.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.batch as batch_mod
import repro.simulation.compiled as sim_compiled
from repro.benchgen.suite import sweep_instance
from repro.core import make_generator
from repro.core.batch import BatchSimGenGenerator
from repro.core.decision import DecisionStrategy
from repro.core.generator import SimGenGenerator
from repro.core.implication import ImplicationStrategy
from repro.core.outgold import alternating_outgold, level_alternating_outgold
from repro.errors import GenerationError
from repro.logic import TruthTable
from repro.network.network import Network
from repro.sweep import SweepConfig, SweepEngine
from tests.conftest import random_network

SIMGEN_STRATEGIES = ("AI+DC+MFFC", "AI+DC", "AI+RD", "SI+RD")

#: The one-call driver runs only on the C core; without it the generator
#: is the reference generator.
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
        backend=backend,
        vectors_per_iteration=vpi,
    )
    if backend == "compiled" and batch_mod._LIB is not None:
        # The differential must exercise the C core wherever it loads.
        assert gen.kernel is not None
    return gen, run_trace(net, gen, seed, iterations, **config)


def wide_network(seed, num_inputs=5, num_gates=14):
    """A random network with both constants, duplicated fanins and gates
    of 1 to 8 inputs (k = 7 and 8 take multi-word truth tables)."""
    rng = random.Random(seed)
    net = Network(f"wide{seed}")
    signals = [net.add_pi() for _ in range(num_inputs)]
    signals += [net.add_const(True), net.add_const(False)]
    for _ in range(num_gates):
        k = rng.randint(1, 8)
        fanins = [rng.choice(signals) for _ in range(k)]
        if k > 1 and rng.random() < 0.3:
            fanins[-1] = fanins[0]
        table = TruthTable(k, rng.getrandbits(1 << k))
        signals.append(net.add_gate(table, fanins))
    for j in range(3):
        net.add_po(signals[-(j + 1)], f"o{j}")
    return net


def frozen_vectors(vectors):
    return [tuple(sorted(v.values.items())) for v in vectors]


# ----------------------------------------------------------------------
# Differential identity: batch == reference, bit for bit
# ----------------------------------------------------------------------

class TestBatchIdentity:
    @pytest.mark.parametrize("strategy", SIMGEN_STRATEGIES)
    def test_sweep_trajectory_identical(self, strategy):
        net = random_network(seed=21, num_inputs=6, num_gates=24)
        _, batch = sweep_trace(net, strategy, "compiled", seed=5)
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
        _, batch = sweep_trace(net, strategy, "compiled", seed=3)
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
            net, "AI+DC+MFFC", "compiled", seed=sweep_seed, iterations=4
        )
        _, reference = sweep_trace(
            net, "AI+DC+MFFC", "reference", seed=sweep_seed, iterations=4
        )
        assert batch == reference

    @pytest.mark.parametrize("jobs", (1, 4))
    def test_full_sweep_identical_across_backends(self, jobs):
        """End-to-end gate: the full sweep (guided phase + pooled SAT
        phase) lands on the same verdicts, classes, and integer counters
        whichever generator backend ran.  ``simgen.kernel.*`` describes
        the C core and has no reference counterpart."""
        net = random_network(seed=31, num_inputs=6, num_gates=26)

        def run(backend):
            gen = make_generator(
                "AI+DC+MFFC", net, seed=8, backend=backend
            )
            engine = SweepEngine(net, gen, SweepConfig(seed=8, jobs=jobs))
            result = engine.run()
            counters = {
                k: v
                for k, v in engine.registry.as_dict().items()
                if not k.endswith("_s")
                and not k.startswith("simgen.kernel")
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

        assert run("compiled") == run("reference")

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
        _, batch = sweep_trace(net, strategy, "compiled", seed=0, **config)
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
        """The other builtin outgold strategy the core computes."""
        net = random_network(seed=13, num_inputs=5, num_gates=20)

        def run(cls):
            gen = cls(net, seed=7, outgold_strategy=level_alternating_outgold)
            return run_trace(net, gen, seed=7, iterations=5)

        assert run(BatchSimGenGenerator) == run(SimGenGenerator)

    def test_skip_heavy_runs_identical_through_trailing_flush(self):
        """Seeds whose attempts mostly fail the skip check on their
        claimed values (and so are never simulated) exhaust the attempt
        budget; the core must stop where the reference loop stops."""
        for seed in (1, 2, 3, 4):
            net = random_network(seed=seed, num_inputs=5, num_gates=18)
            gen, batch = sweep_trace(net, "AI+DC+MFFC", "compiled", seed=seed)
            _, reference = sweep_trace(
                net, "AI+DC+MFFC", "reference", seed=seed
            )
            assert batch == reference
            if batch_mod.SIMGEN_CORE == "c":
                kernel = gen.kernel.stats
                assert kernel["attempts"] > kernel["simulated"]


# ----------------------------------------------------------------------
# generate() on its own: the in-core verifier against the reference
# ----------------------------------------------------------------------

_CONFIGS = {
    "AI+DC+MFFC": (ImplicationStrategy.ADVANCED, DecisionStrategy.DC_MFFC),
    "AI+DC": (ImplicationStrategy.ADVANCED, DecisionStrategy.DC),
    "AI+RD": (ImplicationStrategy.ADVANCED, DecisionStrategy.RANDOM),
    "SI+RD": (ImplicationStrategy.SIMPLE, DecisionStrategy.RANDOM),
}


def generate_trace(cls, net, rounds, seed, strategy, **options):
    """Every observable of ``generate()`` over a fixed class schedule."""
    impl, dec = _CONFIGS[strategy]
    gen = cls(
        net,
        seed=seed,
        implication_strategy=impl,
        decision_strategy=dec,
        **options,
    )
    if cls is BatchSimGenGenerator and batch_mod._LIB is not None:
        assert gen.kernel is not None
    vectors = [frozen_vectors(gen.generate(classes)) for classes in rounds]
    return (
        vectors,
        freeze_reports(gen),
        gen.rng.getstate(),
        dict(gen.implication.stats),
        dict(gen.decision.stats),
    )


class TestGenerateIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        net_seed=st.integers(0, 1 << 16),
        seed=st.integers(0, 1 << 16),
        strategy=st.sampled_from(SIMGEN_STRATEGIES),
        vpi=st.integers(1, 4),
        max_targets=st.sampled_from((None, 1, 3, 8)),
        level=st.booleans(),
    )
    def test_random_wide_networks_identical(
        self, net_seed, seed, strategy, vpi, max_targets, level
    ):
        """Constants (whose values only the verifier knows), duplicated
        fanins, 1- to 8-input gates, and classes drawn from every node so
        target cones overlap: reports with their survivors, vectors, the
        RNG end state and the engines' stats equal the reference's."""
        net = wide_network(net_seed)
        rng = random.Random(net_seed)
        nodes = [node.uid for node in net.nodes()]
        rounds = []
        for _ in range(3):
            pool = rng.sample(nodes, min(len(nodes), rng.randint(4, 14)))
            cut = rng.randint(2, len(pool))
            rounds.append([pool[:cut], pool[cut:]])
        options = dict(
            vectors_per_iteration=vpi,
            max_targets=max_targets,
            outgold_strategy=(
                level_alternating_outgold if level else alternating_outgold
            ),
        )
        batch = generate_trace(
            BatchSimGenGenerator, net, rounds, seed, strategy, **options
        )
        reference = generate_trace(
            SimGenGenerator, net, rounds, seed, strategy, **options
        )
        assert batch == reference


class _CountingLib:
    """Delegates to the loaded core and counts ``sg_generate`` calls."""

    def __init__(self, lib):
        self.lib = lib
        self.generate_calls = 0

    def sg_generate(self, *args):
        self.generate_calls += 1
        return self.lib.sg_generate(*args)

    def __getattr__(self, name):
        return getattr(self.lib, name)


@needs_c_core
class TestOneCall:
    def test_generate_is_one_core_call(self):
        net = random_network(seed=5, num_inputs=6, num_gates=24)
        gen = make_generator("AI+DC+MFFC", net, seed=5, backend="compiled")
        counting = gen.kernel._lib = _CountingLib(gen.kernel._lib)
        gates = [node.uid for node in net.gates()]
        vectors = gen.generate([gates[:1], gates[1:]])
        assert counting.generate_calls == 1
        attempts = gen.kernel.stats["attempts"]
        assert attempts >= len(vectors)
        # Reports are decoded from the core's log only when read.
        assert gen._reports == []
        assert len(gen.reports) == attempts
        assert gen.generate([gates[:1]]) == []  # nothing splittable
        assert counting.generate_calls == 1

    def test_builds_no_compiled_simulator(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("SimGen built a CompiledSimulator")

        monkeypatch.setattr(sim_compiled.CompiledSimulator, "__init__", refuse)
        net = random_network(seed=6, num_inputs=6, num_gates=24)
        gen = make_generator("AI+DC+MFFC", net, seed=6, backend="compiled")
        assert gen.kernel is not None
        gen.generate([[node.uid for node in net.gates()]])
        assert gen.kernel.stats["simulated"] > 0


@needs_c_core
class TestLoadChecks:
    def test_rows_that_miss_a_minterm_are_rejected(self):
        """The core derives each function's truth table from its rows and
        refuses a row set that leaves a minterm uncovered (each row of an
        irredundant cover is the only one covering some minterm)."""
        net = random_network(seed=7, num_inputs=5, num_gates=12)
        gen = make_generator("AI+DC+MFFC", net, seed=7, backend="compiled")
        gate_info = gen.implication._gate_info
        for uid, info in gate_info.items():
            if info is not None:
                fanins, rows, memo = info
                gate_info[uid] = (fanins, rows[1:], memo)
        with pytest.raises(GenerationError, match="rejected the lowering"):
            batch_mod._SgCore(
                batch_mod._LIB, net, gen.implication, gen.decision, 8, False
            )


# ----------------------------------------------------------------------
# Fallback paths: no C core, unsupported arity, stateful outgold
# ----------------------------------------------------------------------

class TestFallbackPaths:
    """Where the C core cannot run, the generator runs the inherited
    reference Algorithm 1; each case must reproduce the reference
    generator's trajectory, RNG end state, and stats."""

    def test_pure_python_attempt_path_identical(self, monkeypatch):
        """With no loaded core (no toolchain, ``REPRO_CCORES=python``)
        every attempt runs on the reference engines."""
        net = random_network(seed=17, num_inputs=5, num_gates=20)
        _, reference = sweep_trace(net, "AI+DC+MFFC", "reference", seed=4)
        monkeypatch.setattr(batch_mod, "_LIB", None)
        gen, fallback = sweep_trace(net, "AI+DC+MFFC", "compiled", seed=4)
        assert isinstance(gen, BatchSimGenGenerator)
        assert gen.kernel is None
        assert fallback == reference

    def test_oversized_arity_falls_back_silently(self, monkeypatch):
        """Gates wider than ``SG_MAX_K`` can't be lowered into the C
        tables; the generator quietly runs the reference path."""
        net = random_network(seed=17, num_inputs=5, num_gates=20)
        _, reference = sweep_trace(net, "AI+DC+MFFC", "reference", seed=4)
        monkeypatch.setattr(batch_mod, "SG_MAX_K", 0)
        gen = make_generator("AI+DC+MFFC", net, seed=4, backend="compiled")
        assert gen.kernel is None
        assert run_trace(net, gen, seed=4) == reference

    def test_stateful_outgold_disables_speculation_not_identity(self):
        """The core computes only the two builtin outgold strategies, so
        any other callable runs the reference loop — still bit-identical
        to the reference generator."""
        net = random_network(seed=23, num_inputs=5, num_gates=18)

        def custom_outgold(network, targets):
            return alternating_outgold(network, targets)

        def run(cls):
            gen = cls(net, seed=6, outgold_strategy=custom_outgold)
            return gen, run_trace(net, gen, seed=6, iterations=5)

        gen, batch = run(BatchSimGenGenerator)
        assert gen.kernel is None
        _, reference = run(SimGenGenerator)
        assert batch == reference
