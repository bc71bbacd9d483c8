"""SimGen core: Algorithm 1, implication (§4), decision heuristics (§5).

The public entry points are :func:`~repro.core.strategies.make_generator`
(build any of the paper's strategies by name) and the generator classes
themselves for fine-grained control.
"""

from repro.core.assignment import Assignment, Conflict
from repro.core.batch import BatchSimGenGenerator
from repro.core.decision import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DecisionEngine,
    DecisionResult,
    DecisionStrategy,
    roulette_select,
)
from repro.core.generator import (
    BaseVectorGenerator,
    GenerationReport,
    SimGenGenerator,
    TargetedVectorGenerator,
)
from repro.core.hybrid import HybridGenerator, classes_cost
from repro.core.implication import (
    ImplicationEngine,
    ImplicationOutcome,
    ImplicationStrategy,
)
from repro.core.outgold import (
    alternating_outgold,
    level_alternating_outgold,
    random_outgold,
    select_targets,
)
from repro.core.random_gen import OneDistanceGenerator, RandomGenerator
from repro.core.reverse import ReverseSimGenerator
from repro.core.satgen import SatCexGenerator
from repro.core.strategies import (
    SIMGEN,
    STRATEGY_NAMES,
    factory,
    make_generator,
)

__all__ = [
    "Assignment",
    "BaseVectorGenerator",
    "BatchSimGenGenerator",
    "Conflict",
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
    "DecisionEngine",
    "DecisionResult",
    "DecisionStrategy",
    "GenerationReport",
    "HybridGenerator",
    "ImplicationEngine",
    "ImplicationOutcome",
    "ImplicationStrategy",
    "OneDistanceGenerator",
    "RandomGenerator",
    "SatCexGenerator",
    "ReverseSimGenerator",
    "SIMGEN",
    "STRATEGY_NAMES",
    "SimGenGenerator",
    "TargetedVectorGenerator",
    "alternating_outgold",
    "classes_cost",
    "factory",
    "level_alternating_outgold",
    "make_generator",
    "random_outgold",
    "roulette_select",
    "select_targets",
]
