"""Per-benchmark experiment execution (the glue of Figure 2).

One :class:`ExperimentRunner` caches the LUT-mapped sweep instances and
runs (benchmark, strategy) combinations through the sweeping engine,
returning flat :class:`BenchmarkRun` records the table/figure modules
aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.benchgen.suite import sweep_instance
from repro.core.strategies import make_generator
from repro.experiments.config import ExperimentConfig
from repro.network.network import Network
from repro.obs import NULL_TRACER
from repro.runtime.budget import Budget
from repro.sweep.engine import SweepConfig, SweepEngine


@dataclass(slots=True)
class BenchmarkRun:
    """Everything measured for one (benchmark, strategy) combination."""

    benchmark: str
    strategy: str
    luts: int
    pis: int
    cost_initial: int
    cost_final: int
    cost_history: list[int] = field(default_factory=list)
    #: Seconds of the guided simulation stage, the runtime Table 1 and
    #: Figs. 5-6 compare: simulating vectors plus generating them
    #: (``SweepMetrics.sim_time + simgen_time``).  Counterexample
    #: resimulation in the SAT phase is not part of it
    #: (``SweepMetrics.resim_time``).
    sim_time: float = 0.0
    sat_calls: int = 0
    sat_time: float = 0.0
    proven: int = 0
    disproven: int = 0
    unknown: int = 0
    escalations: int = 0
    unknown_after_escalation: int = 0
    deadline_expired: bool = False


class ExperimentRunner:
    """Runs strategies over the benchmark suite with instance caching."""

    def __init__(self, config: Optional[ExperimentConfig] = None):
        self.config = config or ExperimentConfig()
        self._instances: dict[tuple[str, int], Network] = {}
        # Whole runs are deterministic (seeded), so identical requests can
        # be served from cache — e.g. Figure 5 reuses Table 2's sweeps.
        self._runs: dict[tuple[str, str, bool, int, int], BenchmarkRun] = {}
        self._tracer = None  # opened lazily from config.trace_path

    @property
    def tracer(self):
        """The harness-wide tracer (:data:`NULL_TRACER` when disabled).

        All sweeps of one experiment invocation share a single trace file;
        each run gets its own ``run`` span (cache hits emit nothing).
        """
        if self._tracer is None:
            if self.config.trace_path is None:
                self._tracer = NULL_TRACER
            else:
                from repro.obs import Tracer

                self._tracer = Tracer(
                    self.config.trace_path,
                    meta={
                        "command": "experiments",
                        "jobs": self.config.jobs,
                        "seed": self.config.seed,
                    },
                )
        return self._tracer

    def close(self) -> None:
        """Flush and close the trace file (no-op when tracing is off)."""
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.close()

    def instance(self, benchmark: str, copies: int = 1) -> Network:
        """The (cached) LUT-mapped sweep instance of a benchmark."""
        key = (benchmark, copies)
        if key not in self._instances:
            self._instances[key] = sweep_instance(
                benchmark, k=self.config.k, copies=copies
            )
        return self._instances[key]

    def sweep_config(self) -> SweepConfig:
        cfg = self.config
        # A fresh Budget per run: deadlines are monotonic-clock based and
        # must start ticking when the sweep does, not at config time.
        budget = None if cfg.timeout_s is None else Budget(seconds=cfg.timeout_s)
        return SweepConfig(
            seed=cfg.sweep_seed,
            random_rounds=cfg.random_rounds,
            random_width=cfg.random_width,
            iterations=cfg.iterations,
            sat_conflict_limit=cfg.sat_conflict_limit,
            budget=budget,
            max_escalations=cfg.max_escalations,
            escalation_factor=cfg.escalation_factor,
            jobs=cfg.jobs,
            tracer=self.tracer if self.tracer.enabled else None,
        )

    def run(
        self,
        benchmark: str,
        strategy: str,
        with_sat: bool = True,
        copies: int = 1,
        generator_seed: Optional[int] = None,
    ) -> BenchmarkRun:
        """One full (or simulation-only) sweep of a benchmark.

        Args:
            benchmark: Suite benchmark name.
            strategy: Generator name (``RandS``/``RevS``/``SI+RD``/.../
                ``AI+DC+MFFC``) or ``none`` for random-rounds only.
            with_sat: Run the SAT phase (needed for Table 2 / Figs 5-6;
                Table 1 only measures the simulation phase).
            copies: ``&putontop`` copies for the scaled study.
            generator_seed: Overrides the config's generator seed (used by
                Table 1's multi-seed averaging).
        """
        seed = self.config.seed if generator_seed is None else generator_seed
        key = (benchmark, strategy, with_sat, copies, seed)
        if key in self._runs:
            return self._runs[key]
        network = self.instance(benchmark, copies)
        cfg = self.config
        generator = None
        if strategy.lower() != "none":
            generator = make_generator(
                strategy,
                network,
                seed=seed,
                vectors_per_iteration=cfg.vectors_per_iteration,
                max_targets=cfg.max_targets,
            )
        engine = SweepEngine(network, generator, self.sweep_config())
        with self.tracer.span(
            "run",
            kind="experiment",
            benchmark=benchmark,
            strategy=strategy,
            copies=copies,
        ):
            classes, metrics = engine.run_simulation_phase()
            if with_sat:
                engine.run_sat_phase(classes, metrics)
        self._runs[key] = BenchmarkRun(
            benchmark=benchmark,
            strategy=strategy,
            luts=network.num_gates,
            pis=len(network.pis),
            cost_initial=metrics.cost_history[0],
            cost_final=metrics.final_cost,
            cost_history=list(metrics.cost_history),
            sim_time=metrics.sim_time + metrics.simgen_time,
            sat_calls=metrics.sat_calls,
            sat_time=metrics.sat_time,
            proven=metrics.proven,
            disproven=metrics.disproven,
            unknown=metrics.unknown,
            escalations=metrics.escalations,
            unknown_after_escalation=metrics.unknown_after_escalation,
            deadline_expired=metrics.deadline_expired,
        )
        return self._runs[key]
