"""The benchmark's five workloads.

Each workload builds its inputs from the seed (the timed set-up), runs one
*pass* over a fixed job list, and checks the outputs afterwards.  Jobs
run closed loop with one outstanding job, driven from this process.  The
program only ever sees the generated netlists; the seed picks sweep
seeds, rewrite seeds and ECO victims, never the circuits themselves, so
runs at different seeds measure the same amount of work.

Only public entry points are driven.  Names that the traced run wraps
(``make_generator``, ``reduce_network``, ``check_equivalence``) are
looked up on their modules at call time so the wrappers see the call.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.benchgen import sweep_instance
from repro.benchgen.suite import benchmark_names
from repro.core import strategies
from repro.io import bench_text
from repro.serve import daemon
from repro.serve.client import ServeClient
from repro.simulation.patterns import InputVector, PatternBatch
from repro.simulation.simulator import Simulator
from repro.sweep import cec, reduce
from repro.sweep.engine import SweepConfig, SweepEngine
from repro.transforms.rewrite import rewrite

#: Random patterns the correctness gate re-simulates per proven pair.
CHECK_PATTERNS = 256


@dataclass(slots=True)
class JobResult:
    """One job's measurement and the output the correctness gate checks."""

    label: str
    phase: str = ""
    nodes: int = 0
    seconds: float = 0.0
    sat_calls: int = 0
    cost: int = 0
    info: dict = field(default_factory=dict)
    output: object = None
    error: Optional[str] = None


def run_job(tracer, label: str, phase: str, fn: Callable[[], JobResult]) -> JobResult:
    """Time one closed-loop job; an exception fails the job, not the run."""
    frame = None
    if tracer is not None:
        tracer.job = label
        frame = tracer.begin("job")
    start = time.perf_counter()
    try:
        job = fn()
    except Exception as exc:  # a failed job is counted, the run goes on
        job = JobResult(label, error=f"{type(exc).__name__}: {exc}")
    job.seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end(frame)
        tracer.job = None
    job.label = label
    job.phase = phase
    return job


def build_instance(tracer, name: str, copies: int = 1):
    """``sweep_instance`` under the set-up's benchgen span."""
    if tracer is None:
        return sweep_instance(name, copies=copies)
    with tracer.span("benchgen.instance"):
        return sweep_instance(name, copies=copies)


def proven_pairs_error(network, equivalences, seed: int) -> Optional[str]:
    """Re-simulate seeded random patterns on the reference simulator: each
    proven pair must agree, or be complements when marked so."""
    if not equivalences:
        return None
    batch = PatternBatch(network.pis, random.Random(seed))
    batch.add_random(CHECK_PATTERNS)
    values = Simulator(network).run_batch(batch)
    mask = (1 << CHECK_PATTERNS) - 1
    for rep, member, complemented in equivalences:
        if values[rep] ^ values[member] != (mask if complemented else 0):
            return f"proven pair ({rep}, {member}) disagrees in simulation"
    return None


def repeat_error(first: JobResult, later: JobResult) -> Optional[str]:
    """A later pass over the same inputs must reproduce the first pass."""
    if later.error is not None:
        return None
    if (later.sat_calls, later.cost, later.output) != (
        first.sat_calls,
        first.cost,
        first.output,
    ):
        return "result differs from the first pass over the same input"
    return None


def sweep_metrics_info(metrics) -> dict:
    return {
        "unknown": metrics.unknown,
        "degraded": metrics.degraded_pairs,
        "waves": metrics.waves,
        "worker_sat_s": metrics.worker_sat_time,
    }


def unresolved_error(info: dict) -> Optional[str]:
    if info["unknown"] or info["degraded"]:
        return f"{info['unknown']} UNKNOWN pairs ({info['degraded']} degraded)"
    return None


# ----------------------------------------------------------------------
# Sweep workloads
# ----------------------------------------------------------------------
class SuiteSimGen:
    """Table 2 flow: every suite circuit under every SimGen variant."""

    name = "suite_simgen"
    strategies = ("SI+RD", "AI+RD", "AI+DC", "AI+DC+MFFC")

    def __init__(self, smoke: bool = False):
        # Every other suite circuit: all three source suites, and three
        # passes fit in a run.
        self.circuits = ["alu4"] if smoke else benchmark_names()[::2]

    def build(self, seed: int, tracer) -> list:
        return [(name, build_instance(tracer, name)) for name in self.circuits]

    def run_pass(self, inputs, seed: int, tracer) -> tuple[list, float]:
        jobs = []
        for name, network in inputs:
            for strategy in self.strategies:
                jobs.append(
                    run_job(
                        tracer,
                        f"{name}/{strategy}",
                        "",
                        lambda: self._sweep(network, strategy, seed),
                    )
                )
        return jobs, 0.0

    @staticmethod
    def _sweep(network, strategy: str, seed: int) -> JobResult:
        generator = strategies.make_generator(strategy, network, seed=seed)
        result = SweepEngine(network, generator, SweepConfig(seed=seed)).run()
        _, stats = reduce.reduce_network(network, result.equivalences)
        metrics = result.metrics
        return JobResult(
            "",
            nodes=network.num_gates,
            sat_calls=metrics.sat_calls,
            cost=metrics.final_cost,
            info=sweep_metrics_info(metrics),
            output=(tuple(result.equivalences), stats.gates_after),
        )

    def check(self, inputs, seed: int, passes: list) -> None:
        networks = [net for _, net in inputs for _ in self.strategies]
        check_sweep_passes(networks, seed, passes)


def check_sweep_passes(networks: list, seed: int, passes: list) -> None:
    """Gate a sweep workload: job ``i`` of every pass swept ``networks[i]``."""
    first = passes[0]
    for network, job in zip(networks, first):
        if job.error is None:
            job.error = unresolved_error(job.info) or proven_pairs_error(
                network, job.output[0], seed
            )
    for later in passes[1:]:
        for base, job in zip(first, later):
            job.error = job.error or repeat_error(base, job)


class Stacks:
    """§6.4 scaling: ``putontop`` stacks swept with random simulation."""

    #: (benchmark, copies) — five copies each, the low end of §6.4's 5-15.
    #: ``cps`` is the stack whose serial SAT phase is dominated by class
    #: selection; the others are ITC'99-like control and a flat PLA.
    STACKS = (
        ("cps", 5),
        ("b17_C", 5),
        ("apex2", 5),
        ("b14_C", 5),
    )

    def __init__(self, name: str, jobs: int, smoke: bool = False):
        self.name = name
        self.jobs = jobs
        self.stacks = (("b14_C", 2),) if smoke else self.STACKS

    def build(self, seed: int, tracer) -> list:
        return [
            (f"{name}x{copies}", build_instance(tracer, name, copies))
            for name, copies in self.stacks
        ]

    def run_pass(self, inputs, seed: int, tracer) -> tuple[list, float]:
        return [
            run_job(tracer, label, "", lambda: self._sweep(network, seed))
            for label, network in inputs
        ], 0.0

    def _sweep(self, network, seed: int) -> JobResult:
        generator = strategies.make_generator("RandS", network, seed=seed)
        config = SweepConfig(seed=seed, jobs=self.jobs)
        result = SweepEngine(network, generator, config).run()
        metrics = result.metrics
        return JobResult(
            "",
            nodes=network.num_gates,
            sat_calls=metrics.sat_calls,
            cost=metrics.final_cost,
            info=sweep_metrics_info(metrics),
            output=(tuple(result.equivalences),),
        )

    def check(self, inputs, seed: int, passes: list) -> None:
        check_sweep_passes([net for _, net in inputs], seed, passes)


# ----------------------------------------------------------------------
# CEC
# ----------------------------------------------------------------------
def invert_first_po_driver(network):
    """A copy whose first PO driver computes the complement."""
    copy, _ = network.map_clone(f"{network.name}_bug")
    node = copy.node(copy.pos[0][1])
    if not node.is_gate or node.is_const:
        raise ValueError(f"{network.name}: first PO is not driven by a LUT")
    node.table = ~node.table
    return copy


def distinguishes(golden, revised, counterexample) -> bool:
    """True if the counterexample (keyed by the CEC union's PIs) makes some
    PO pair of the two circuits differ on the reference simulator."""
    union, _ = cec.union_network(golden, revised)
    bits = [counterexample.values.get(pi, 0) for pi in union.pis]
    outputs = []
    for network in (golden, revised):
        values = Simulator(network).run_words(dict(zip(network.pis, bits)), 1)
        outputs.append([values[uid] for _, uid in network.pos])
    return outputs[0] != outputs[1]


class CecRewrite:
    """The motivating use: CEC of a circuit against a rewritten copy."""

    name = "cec_rewrite"
    #: Circuits whose SAT work varies least with the rewrite seed, so
    #: runs at different seeds do comparable work (``square`` and
    #: ``i10`` swing by a factor of three and by 50%).
    CIRCUITS = ("b14_C", "cps", "apex2", "log2", "m_ctrl")

    def __init__(self, smoke: bool = False):
        self.circuits = ("alu4",) if smoke else self.CIRCUITS

    def build(self, seed: int, tracer) -> list:
        cases = []
        for name in self.circuits:
            golden = build_instance(tracer, name)
            revised = rewrite(golden, seed=seed + 1, intensity=0.3)
            cases.append((name, golden, revised, "equivalent"))
            cases.append(
                (f"{name}_bug", invert_first_po_driver(golden), revised,
                 "different")
            )
        return cases

    def run_pass(self, inputs, seed: int, tracer) -> tuple[list, float]:
        return [
            run_job(tracer, label, "", lambda: self._cec(golden, revised, seed))
            for label, golden, revised, _ in inputs
        ], 0.0

    @staticmethod
    def _cec(golden, revised, seed: int) -> JobResult:
        result = cec.check_equivalence(
            golden,
            revised,
            strategies.factory("AI+DC+MFFC"),
            SweepConfig(seed=seed),
        )
        metrics = result.metrics
        return JobResult(
            "",
            nodes=golden.num_gates + revised.num_gates,
            sat_calls=metrics.sat_calls,
            cost=metrics.final_cost,
            info=sweep_metrics_info(metrics),
            output=(
                result.verdict,
                None
                if result.counterexample is None
                else tuple(sorted(result.counterexample.values.items())),
            ),
        )

    def check(self, inputs, seed: int, passes: list) -> None:
        for (_, golden, revised, expected), job in zip(inputs, passes[0]):
            if job.error is not None:
                continue
            verdict, counterexample = job.output
            if verdict != expected:
                job.error = f"verdict {verdict}, expected {expected}"
            elif verdict == "different" and (
                counterexample is None
                or not distinguishes(
                    golden, revised, InputVector(dict(counterexample))
                )
            ):
                job.error = "counterexample does not distinguish the circuits"
        for later in passes[1:]:
            for base, job in zip(passes[0], later):
                job.error = job.error or repeat_error(base, job)


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class Daemon:
    """An in-process sweep daemon on 127.0.0.1 with one client."""

    def __init__(self, spool_dir: str):
        self.server = daemon.build_server(
            "127.0.0.1", 0, workers=1, spool_dir=spool_dir
        )
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="bench-serve",
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = ServeClient(f"http://{host}:{port}")
        self.client.health()

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.service.shutdown(wait=True)
        self.server.server_close()


class CostProbe:
    """Records each sweep's Eq. 5 cost after simulation.

    Serve results do not carry the cost, so the serving workload reads it
    where the daemon's engine computes it; one list append per job.
    """

    def __init__(self):
        self.costs: list[int] = []
        self._original = None

    def __enter__(self) -> "CostProbe":
        original = self._original = SweepEngine.run_simulation_phase
        costs = self.costs

        def probe(engine):
            classes, metrics = original(engine)
            if metrics.cost_history:
                costs.append(metrics.cost_history[-1])
            return classes, metrics

        SweepEngine.run_simulation_phase = probe
        return self

    def __exit__(self, *exc_info) -> None:
        SweepEngine.run_simulation_phase = self._original

    def take(self) -> int:
        total = sum(self.costs)
        self.costs.clear()
        return total


class ServeReplay:
    """A daemon's verdict cache used cold, after an ECO, and warm."""

    name = "serve_replay"
    PHASES = ("cold", "eco", "repeat")

    def __init__(self, spool_dir: str, smoke: bool = False):
        self.spool_dir = spool_dir
        # Every third suite circuit: all three source suites, and three
        # passes fit in a run.
        self.circuits = ["alu4"] if smoke else benchmark_names()[::3]

    def build(self, seed: int, tracer) -> list:
        rng = random.Random(seed + 1)
        inputs = []
        for name in self.circuits:
            network = build_instance(tracer, name)
            eco, _ = network.map_clone(f"{name}_eco")
            victims = [
                gate.uid
                for gate in eco.gates()
                if not gate.is_const and gate.num_fanins >= 2
            ]
            victim = eco.node(rng.choice(victims))
            victim.table = ~victim.table
            inputs.append(
                (name, network.num_gates, bench_text(network), bench_text(eco))
            )
        return inputs

    def run_pass(self, inputs, seed: int, tracer) -> tuple[list, float]:
        # The client, the HTTP handlers and the daemon's worker are threads
        # of this process and take the interpreter lock in turn; on one CPU
        # the hand-offs no longer depend on where the OS placed each
        # thread, which otherwise moved whole runs by 15%.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        start = time.perf_counter()
        server = Daemon(self.spool_dir)
        start_s = time.perf_counter() - start
        jobs = []
        try:
            with CostProbe() as probe:
                for phase in self.PHASES:
                    for name, gates, text, eco_text in inputs:
                        netlist = eco_text if phase == "eco" else text
                        jobs.append(
                            run_job(
                                tracer,
                                f"{phase}/{name}",
                                phase,
                                lambda: self._submit(
                                    server.client, netlist, gates, seed,
                                    tracer, probe,
                                ),
                            )
                        )
        finally:
            server.close()
        return jobs, start_s

    @staticmethod
    def _submit(client, netlist, gates, seed, tracer, probe) -> JobResult:
        request = {"netlist": netlist, "client": "bench", "config": {"seed": seed}}
        if tracer is None:
            state = client.wait(client.submit(request), 0.005, timeout=120)
        else:
            with tracer.span("serve.client"):
                state = client.wait(client.submit(request), 0.005, timeout=120)
        result = state["result"]
        metrics = result["metrics"]
        return JobResult(
            "",
            nodes=gates,
            sat_calls=metrics["sat_calls"],
            cost=probe.take(),
            info={
                "unknown": metrics["unknown"],
                "degraded": int(metrics["deadline_expired"]),
                "cache_hits": result["cache"]["hits"],
                "cache_misses": result["cache"]["misses"],
            },
            output=(
                result["netlist"],
                result["sweep_signature"],
                result["gates_after"],
            ),
        )

    def check(self, inputs, seed: int, passes: list) -> None:
        for jobs in passes:
            count = len(inputs)
            cold, repeat = jobs[:count], jobs[2 * count:]
            for job in jobs:
                if job.error is None:
                    job.error = unresolved_error(job.info)
            for base, job in zip(cold, repeat):
                if job.error is None and base.error is None and (
                    job.output != base.output
                ):
                    job.error = "repeat result is not byte-identical to cold"
        for later in passes[1:]:
            for base, job in zip(passes[0], later):
                job.error = job.error or repeat_error(base, job)


def make_workloads(spool_dir: str, smoke: bool = False) -> dict:
    """Workload name -> workload, in BENCHMARK.json order."""
    workloads = [
        SuiteSimGen(smoke),
        Stacks("stack_serial", 1, smoke),
        Stacks("stack_pool", 2, smoke),
        CecRewrite(smoke),
        ServeReplay(spool_dir, smoke),
    ]
    return {workload.name: workload for workload in workloads}
