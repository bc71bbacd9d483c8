"""Outside-in per-layer tracing for the benchmark.

The traced run installs class- and module-level wrappers around the public
functions of each layer (a name is wrapped in the module that looks it
up, e.g. ``repro.sweep.checker.pair_miter``).  Every wrapped call becomes
a span; spans are kept in memory and written to JSONL when the run ends.
A span's *self time* is its duration minus the time its child spans
cover, so the self times of one job partition its wall time and whatever
no layer owns is left on the job's root span (``ledger.other_s``).

Nothing here changes what the program computes: wrappers call the
original function with the original arguments and return its result.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Optional

#: Per-layer metrics reported by a traced run, in BENCHMARK.json order.
#: Seconds and counts are per pass of the workload's job list.
PER_LAYER = [
    ("benchgen.instance_s", "s"),
    ("simulation.compile_s", "s"),
    ("simulation.compiles", "count"),
    ("simulation.tape_hit_rate", "fraction"),
    ("simulation.run_s", "s"),
    ("simulation.patterns", "count"),
    ("core.lower_s", "s"),
    ("core.generate_s", "s"),
    ("core.vectors", "count"),
    ("core.vectors_per_s", "1/s"),
    ("core.transition_hit_rate", "fraction"),
    ("core.cost_drop_per_vector", "count"),
    ("classes.select_s", "s"),
    ("classes.selects", "count"),
    ("classes.update_s", "s"),
    ("classes.refine_s", "s"),
    ("classes.refines", "count"),
    ("checker.self_s", "s"),
    ("checker.window_s", "s"),
    ("checker.calls", "count"),
    ("checker.proven", "count"),
    ("checker.disproven", "count"),
    ("checker.unknown", "count"),
    ("tseitin.encode_s", "s"),
    ("tseitin.clauses", "count"),
    ("tseitin.miter_s", "s"),
    ("tseitin.decode_s", "s"),
    ("sat.solve_s", "s"),
    ("sat.solves", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.propagations_per_s", "1/s"),
    ("engine.init_s", "s"),
    ("engine.sim_phase_self_s", "s"),
    ("engine.sat_phase_self_s", "s"),
    ("engine.publish_s", "s"),
    ("engine.reduce_s", "s"),
    ("cec.self_s", "s"),
    ("cec.union_s", "s"),
    ("cec.fallback_calls", "count"),
    ("pool.start_s", "s"),
    ("pool.dispatch_s", "s"),
    ("pool.close_s", "s"),
    ("pool.waves", "count"),
    ("pool.worker_sat_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.cold_p50_s", "s"),
    ("serve.eco_p50_s", "s"),
    ("serve.repeat_p50_s", "s"),
    ("cache.bind_s", "s"),
    ("cache.lookup_s", "s"),
    ("cache.record_s", "s"),
    ("cache.hit_rate_cold", "fraction"),
    ("cache.hit_rate_eco", "fraction"),
    ("cache.hit_rate_repeat", "fraction"),
    ("ledger.job_s", "s"),
    ("ledger.other_s", "s"),
    ("ledger.other_frac", "fraction"),
    ("trace.spans", "count"),
]

#: Span name -> the self-time metric it feeds.  Every span a traced job
#: records is in this map, so the buckets partition job time.
SELF_TIME_BUCKETS = {
    "simulation.compile": "simulation.compile_s",
    "simulation.run": "simulation.run_s",
    "core.lower": "core.lower_s",
    "core.generate": "core.generate_s",
    "classes.select": "classes.select_s",
    "classes.update": "classes.update_s",
    "classes.refine": "classes.refine_s",
    "checker.check": "checker.self_s",
    "tseitin.encode": "tseitin.encode_s",
    "tseitin.miter": "tseitin.miter_s",
    "tseitin.decode": "tseitin.decode_s",
    "sat.solve": "sat.solve_s",
    "engine.init": "engine.init_s",
    "engine.sim_phase": "engine.sim_phase_self_s",
    "engine.sat_phase": "engine.sat_phase_self_s",
    "engine.run": "engine.publish_s",
    "engine.reduce": "engine.reduce_s",
    "cec.check": "cec.self_s",
    "cec.union": "cec.union_s",
    "pool.start": "pool.start_s",
    "pool.dispatch": "pool.dispatch_s",
    "pool.close": "pool.close_s",
    "serve.client": "serve.overhead_s",
    "cache.bind": "cache.bind_s",
    "cache.lookup": "cache.lookup_s",
    "cache.record": "cache.record_s",
    "job": "ledger.other_s",
}


class Tracer:
    """In-memory span recorder.

    Spans nest per thread.  A span opened on a thread with no open span
    (a serving daemon's worker thread) is parented to the innermost open
    span of the thread that drives the jobs, which is exact for a closed
    loop with one outstanding job.

    A closed span is the tuple ``(id, parent, job, name, start, end,
    self_s, counts)``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.job: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._cross_thread = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        """Open a span; returns its frame for :meth:`end`."""
        stack = self._stack()
        if stack:
            parent, shared = stack[-1], False
        else:
            main = self._main_stack
            parent, shared = (main[-1], True) if main else (None, False)
        # Frame: [id, parent frame, shared parent?, name, start, child_s].
        frame = [next(self._ids), parent, shared, name, 0.0, 0.0]
        stack.append(frame)
        frame[4] = self.clock()
        return frame

    def end(self, frame: list, counts: Optional[dict] = None) -> None:
        """Close the innermost span (``frame``) and record it."""
        end = self.clock()
        self._stack().pop()
        span_id, parent, shared, name, start, child_s = frame
        duration = end - start
        if parent is not None:
            if shared:
                with self._cross_thread:
                    parent[5] += duration
            else:
                parent[5] += duration
        self.spans.append(
            (
                span_id,
                None if parent is None else parent[0],
                self.job,
                name,
                start,
                end,
                duration - child_s,
                counts,
            )
        )

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def write_jsonl(self, path: str) -> None:
        keys = ("id", "parent", "job", "name", "start", "end", "self_s", "counts")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.frame = self.tracer.begin(self.name)

    def __exit__(self, *exc_info) -> None:
        self.tracer.end(self.frame)


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
class Instrumentation:
    """Installs span wrappers on the program's layers; ``restore`` undoes
    every one of them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._installed: list[tuple[object, str, object]] = []
        #: id(job) -> submit time, for the admission queue's wait.
        self._submitted: dict[int, float] = {}
        self.queue_waits: list[float] = []

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        counts: Optional[Callable] = None,
    ) -> None:
        """Wrap ``owner.attr`` (a class or a module) in a span ``name``.

        ``before(args)`` runs before the call; ``counts(args, result,
        token)`` receives its token and returns the span's counts.  A call
        made while a span of the same name is open on the same thread
        (a generator delegating to its base class) is not re-recorded.
        """
        original = owner.__dict__[attr]
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][3] == name:
                return original(*args, **kwargs)
            token = before(args) if before is not None else None
            frame = tracer.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.end(
                    frame,
                    counts(args, result, token) if counts is not None else None,
                )

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install(self) -> "Instrumentation":
        from repro.core import batch, generator, random_gen, strategies
        from repro.sat import compiled as sat_compiled, tseitin
        from repro.serve import admission, cache as serve_cache, daemon
        from repro.simulation import compiled as sim_compiled
        from repro.sweep import cec, checker, classes, engine, reduce
        from repro.runtime import pool

        sim = sim_compiled.CompiledSimulator
        self.wrap(sim, "__init__", "simulation.compile")
        self.wrap(
            sim,
            "run_words",
            "simulation.run",
            counts=lambda args, result, _: {"patterns": args[2]},
        )

        for module in (strategies, daemon):
            self.wrap(module, "make_generator", "core.lower")
        # Every other generator inherits one of these generate() methods.
        for cls in (
            batch.BatchSimGenGenerator,
            generator.TargetedVectorGenerator,
            random_gen.RandomGenerator,
            random_gen.OneDistanceGenerator,
        ):
            self.wrap(
                cls,
                "generate",
                "core.generate",
                counts=lambda args, result, _: {"vectors": len(result or ())},
            )

        eq = classes.EquivalenceClasses
        self.wrap(eq, "best_splittable", "classes.select")
        self.wrap(eq, "remove_member", "classes.update")
        self.wrap(eq, "isolate", "classes.update")
        self.wrap(eq, "refine", "classes.refine")

        self.wrap(
            checker.PairChecker,
            "check",
            "checker.check",
            counts=lambda args, result, _: {"outcome": result[0].value}
            if result is not None
            else {"outcome": "unknown"},
        )
        encoder = tseitin.TseitinEncoder
        self.wrap(
            encoder,
            "encode_cone",
            "tseitin.encode",
            before=lambda args: len(args[0].cnf.clauses),
            counts=lambda args, result, before: {
                "clauses": len(args[0].cnf.clauses) - before
            },
        )
        self.wrap(encoder, "model_to_vector", "tseitin.decode")
        self.wrap(checker, "pair_miter", "tseitin.miter")

        def solver_counters(args):
            stats = args[0].stats
            return stats["conflicts"], stats["propagations"]

        def solver_delta(args, result, before):
            conflicts, propagations = solver_counters(args)
            return {
                "conflicts": conflicts - before[0],
                "propagations": propagations - before[1],
            }

        self.wrap(
            sat_compiled.solver_class("compiled"),
            "solve",
            "sat.solve",
            before=solver_counters,
            counts=solver_delta,
        )

        sweep_engine = engine.SweepEngine
        self.wrap(sweep_engine, "__init__", "engine.init")
        self.wrap(sweep_engine, "run", "engine.run")

        def cost_drop(args, result, _):
            history = result[1].cost_history if result is not None else []
            return {"cost_drop": history[0] - history[-1] if history else 0}

        self.wrap(
            sweep_engine, "run_simulation_phase", "engine.sim_phase",
            counts=cost_drop,
        )
        self.wrap(sweep_engine, "run_sat_phase", "engine.sat_phase")
        for module in (reduce, daemon):
            self.wrap(module, "reduce_network", "engine.reduce")

        self.wrap(cec, "check_equivalence", "cec.check")
        self.wrap(cec, "union_network", "cec.union")

        checker_pool = pool.CheckerPool
        self.wrap(checker_pool, "__init__", "pool.start")
        self.wrap(checker_pool, "check_pairs", "pool.dispatch")
        self.wrap(checker_pool, "close", "pool.close")

        session = serve_cache.CacheSession
        self.wrap(session, "bind", "cache.bind")
        self.wrap(session, "lookup", "cache.lookup")
        self.wrap(session, "record", "cache.record")
        self._wrap_admission(admission.AdmissionQueue)
        return self

    def _wrap_admission(self, queue_cls) -> None:
        """Time submit -> pop per job (queue wait, not a span)."""
        submit = queue_cls.__dict__["submit"]
        pop = queue_cls.__dict__["pop"]
        clock = self.tracer.clock
        submitted = self._submitted
        waits = self.queue_waits

        def timed_submit(queue, client, job):
            submitted[id(job)] = clock()
            return submit(queue, client, job)

        def timed_pop(queue, timeout=None):
            job = pop(queue, timeout)
            if job is not None:
                started = submitted.pop(id(job), None)
                if started is not None:
                    waits.append(clock() - started)
            return job

        queue_cls.submit = timed_submit
        queue_cls.pop = timed_pop
        self._installed.append((queue_cls, "submit", submit))
        self._installed.append((queue_cls, "pop", pop))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _delta_hit_rate(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return _ratio(hits, hits + misses)


def layer_metrics(
    tracer: Tracer,
    instrumentation: Instrumentation,
    passes: int,
    setups: int,
    jobs: list,
    cache_before: dict,
    cache_after: dict,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced window.

    Args:
        passes: Passes over the job list the window completed; seconds
            and counts are divided by it.
        setups: Set-up repetitions traced (``benchgen.instance_s`` is
            per set-up).
        jobs: The window's job records (``bench.workloads.JobResult``).
        cache_before, cache_after: ``{"tape": ..., "transition": ...}``
            cache-info snapshots bracketing the window.
    """
    self_s: dict[str, float] = {}
    duration: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, float] = {}
    fallback_calls = 0
    names = {}
    for span in tracer.spans:
        names[span[0]] = span[3]
    job_spans = 0
    for span_id, parent, job, name, start, end, own, counts in tracer.spans:
        if name == "benchgen.instance":
            totals["benchgen"] = totals.get("benchgen", 0.0) + (end - start)
            continue
        if job is None:
            continue
        job_spans += 1
        self_s[name] = self_s.get(name, 0.0) + own
        duration[name] = duration.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if counts:
            for key, value in counts.items():
                if key == "outcome":
                    key = f"outcome.{value}"
                    value = 1
                totals[key] = totals.get(key, 0) + value
        if name == "checker.check" and names.get(parent) == "cec.check":
            fallback_calls += 1

    per = float(max(1, passes))
    out: dict[str, float] = {}
    for span_name, metric in SELF_TIME_BUCKETS.items():
        out[metric] = self_s.get(span_name, 0.0) / per
    generate_s = duration.get("core.generate", 0.0)
    solve_s = duration.get("sat.solve", 0.0)
    vectors = totals.get("vectors", 0)
    job_s = duration.get("job", 0.0)
    out.update(
        {
            "benchgen.instance_s": totals.get("benchgen", 0.0) / max(1, setups),
            "simulation.compiles": calls.get("simulation.compile", 0) / per,
            "simulation.tape_hit_rate": _delta_hit_rate(
                cache_before["tape"], cache_after["tape"]
            ),
            "simulation.patterns": totals.get("patterns", 0) / per,
            "core.vectors": vectors / per,
            "core.vectors_per_s": _ratio(vectors, generate_s),
            "core.transition_hit_rate": _delta_hit_rate(
                cache_before["transition"], cache_after["transition"]
            ),
            "core.cost_drop_per_vector": _ratio(
                totals.get("cost_drop", 0), vectors
            ),
            "classes.selects": calls.get("classes.select", 0) / per,
            "classes.refines": calls.get("classes.refine", 0) / per,
            "checker.window_s": duration.get("checker.check", 0.0) / per,
            "checker.calls": calls.get("checker.check", 0) / per,
            "checker.proven": totals.get("outcome.unsat", 0) / per,
            "checker.disproven": totals.get("outcome.sat", 0) / per,
            "checker.unknown": totals.get("outcome.unknown", 0) / per,
            "tseitin.clauses": totals.get("clauses", 0) / per,
            "sat.solves": calls.get("sat.solve", 0) / per,
            "sat.conflicts": totals.get("conflicts", 0) / per,
            "sat.propagations": totals.get("propagations", 0) / per,
            "sat.propagations_per_s": _ratio(
                totals.get("propagations", 0), solve_s
            ),
            "cec.fallback_calls": fallback_calls / per,
            "pool.waves": sum(j.info.get("waves", 0) for j in jobs) / per,
            "pool.worker_sat_s": sum(
                j.info.get("worker_sat_s", 0.0) for j in jobs
            ) / per,
            "serve.queue_wait_s": sum(instrumentation.queue_waits) / per,
            "ledger.job_s": job_s / per,
            "ledger.other_frac": _ratio(self_s.get("job", 0.0), job_s),
            "trace.spans": job_spans / per,
        }
    )
    for phase in ("cold", "eco", "repeat"):
        latencies = sorted(j.seconds for j in jobs if j.phase == phase)
        out[f"serve.{phase}_p50_s"] = (
            latencies[(len(latencies) - 1) // 2] if latencies else 0.0
        )
        hits = sum(j.info.get("cache_hits", 0) for j in jobs if j.phase == phase)
        misses = sum(
            j.info.get("cache_misses", 0) for j in jobs if j.phase == phase
        )
        out[f"cache.hit_rate_{phase}"] = _ratio(hits, hits + misses)
    return {name: out[name] for name, _ in PER_LAYER}
