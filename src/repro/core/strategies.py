"""Named strategy presets matching the paper's evaluation (§6.2).

The evaluation compares five generators:

====================  ==========================================
Name                  Configuration
====================  ==========================================
``RevS``              reverse simulation (baseline)
``SI+RD``             simple implication + random decision
``AI+RD``             advanced implication + random decision
``AI+DC``             advanced implication + don't-care heuristic
``AI+DC+MFFC``        + MFFC heuristic — this is *SimGen*
``RandS``             fully random vectors
====================  ==========================================

:func:`make_generator` builds any of them by name so experiment scripts and
examples can sweep the whole matrix.
"""

from __future__ import annotations

from typing import Callable

from repro.core.batch import BatchSimGenGenerator
from repro.core.decision import DecisionStrategy
from repro.core.generator import BaseVectorGenerator, SimGenGenerator
from repro.core.implication import ImplicationStrategy
from repro.core.random_gen import RandomGenerator
from repro.core.reverse import ReverseSimGenerator
from repro.errors import GenerationError
from repro.network.network import Network
from repro.runtime.cbuild import check_backend

#: Canonical order used by Table 1.
STRATEGY_NAMES = ("RevS", "SI+RD", "AI+RD", "AI+DC", "AI+DC+MFFC")

#: The paper refers to the full configuration as simply "SimGen".
SIMGEN = "AI+DC+MFFC"

_SIMGEN_CONFIGS: dict[str, tuple[ImplicationStrategy, DecisionStrategy]] = {
    "SI+RD": (ImplicationStrategy.SIMPLE, DecisionStrategy.RANDOM),
    "AI+RD": (ImplicationStrategy.ADVANCED, DecisionStrategy.RANDOM),
    "AI+DC": (ImplicationStrategy.ADVANCED, DecisionStrategy.DC),
    "AI+DC+MFFC": (ImplicationStrategy.ADVANCED, DecisionStrategy.DC_MFFC),
}


def make_generator(
    name: str,
    network: Network,
    seed: int = 0,
    vectors_per_iteration: int = 4,
    max_targets: int = 8,
    backend: str = "compiled",
) -> BaseVectorGenerator:
    """Instantiate a generator by its paper name.

    Args:
        name: One of ``RandS``, ``RevS``, ``SI+RD``, ``AI+RD``, ``AI+DC``,
            ``AI+DC+MFFC`` (alias ``SimGen``), case-insensitive.
        network: The network vectors are generated for.
        seed: RNG seed (deterministic runs).
        vectors_per_iteration: Vectors emitted per guided iteration.
        max_targets: Target-node cap per vector for targeted generators.
        backend: ``"compiled"`` (default) runs the SimGen variants on
            :class:`~repro.core.batch.BatchSimGenGenerator` (each
            ``generate()`` is one C core call, verification included, or
            the reference engines where the C core cannot run);
            ``"reference"`` runs the reference engines of
            :class:`SimGenGenerator`.  Trajectories
            are bit-identical across both; only speed differs.  Ignored
            for non-SimGen generators.
    """
    check_backend(backend, GenerationError)
    key = name.strip().lower()
    if key == "rands":
        # Random simulation covers many patterns per iteration cheaply;
        # scale its per-iteration budget to the guided generators' budget.
        return RandomGenerator(
            network, seed, vectors_per_iteration=vectors_per_iteration * 8
        )
    if key == "revs":
        # Classic reverse simulation targets a *pair* of class nodes with
        # complementary values (paper §1 step 1) — it keeps its pair
        # targeting regardless of the SimGen target budget.
        return ReverseSimGenerator(
            network,
            seed,
            vectors_per_iteration=vectors_per_iteration,
            max_targets=min(2, max_targets),
        )
    if key == "simgen":
        key = SIMGEN.lower()
    cls = BatchSimGenGenerator if backend == "compiled" else SimGenGenerator
    for config_name, (impl, dec) in _SIMGEN_CONFIGS.items():
        if key == config_name.lower():
            return cls(
                network,
                seed,
                implication_strategy=impl,
                decision_strategy=dec,
                vectors_per_iteration=vectors_per_iteration,
                max_targets=max_targets,
            )
    raise GenerationError(f"unknown strategy {name!r}")


#: Type of a generator factory bound to (network, seed).
GeneratorFactory = Callable[[Network, int], BaseVectorGenerator]


def factory(name: str, **kwargs) -> GeneratorFactory:
    """A factory closure for :func:`make_generator` with fixed options."""

    def build(network: Network, seed: int = 0) -> BaseVectorGenerator:
        return make_generator(name, network, seed, **kwargs)

    return build
