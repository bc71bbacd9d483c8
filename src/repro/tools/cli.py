"""Command-line interface over the library's flows.

Commands operate on BLIF or .bench files (format chosen by extension):

* ``stats   <in>``                     — size/depth summary
* ``map     <in> -o <out> [-k K]``     — K-LUT technology mapping
* ``strash  <in> -o <out>``            — structural hashing / cleanup
* ``sweep   <in> [-o <out>]``          — SimGen-accelerated SAT sweeping;
                                          with ``-o`` writes the reduced
                                          (merged) network
* ``cec     <a> <b>``                  — equivalence check two netlists
* ``putontop <in> -o <out> -n N``      — stack N copies (&putontop)
* ``gen     <benchmark> -o <out>``     — emit a suite benchmark as a file
* ``trace   <file.jsonl>``             — analyze / validate a structured
                                          trace recorded with ``--trace``
* ``serve   [--port N] [--cache F]``   — persistent sweep/CEC daemon with
                                          a signature-keyed verdict cache
* ``submit  <in> [--revised <b>]``     — run a sweep (or CEC) job on a
                                          running ``serve`` daemon

``sweep`` and ``cec`` accept ``--trace FILE`` to record a structured JSONL
trace of the run (see docs/OBSERVABILITY.md).

Example::

    python -m repro.tools map design.blif -o design.bench -k 6
    python -m repro.tools cec golden.blif revised.blif
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.benchgen import benchmark_names, build_benchmark
from repro.core import factory, make_generator
from repro.errors import ReproError
from repro.runtime import Budget, atomic_write_json, atomic_write_text
from repro.io import (
    bench_text,
    blif_text,
    read_bench,
    read_blif,
)
from repro.mapping import map_to_luts
from repro.network.network import Network
from repro.sweep import (
    SweepConfig,
    SweepEngine,
    check_equivalence,
    reduce_network,
)
from repro.transforms import put_on_top, strash


def load_network(path: str) -> Network:
    """Read a netlist, dispatching on the file extension."""
    suffix = Path(path).suffix.lower()
    if suffix == ".blif":
        return read_blif(path)
    if suffix == ".bench":
        return read_bench(path)
    if suffix == ".aag":
        from repro.aig import aig_to_network, read_aag

        return aig_to_network(read_aag(path))
    raise ReproError(
        f"unsupported netlist extension {suffix!r} (use .blif/.bench/.aag)"
    )


def save_network(network: Network, path: str) -> None:
    """Write a netlist, dispatching on the file extension."""
    suffix = Path(path).suffix.lower()
    if suffix == ".blif":
        text = blif_text(network)
    elif suffix == ".bench":
        text = bench_text(network)
    elif suffix == ".aag":
        from repro.aig import aag_text, network_to_aig

        text = aag_text(network_to_aig(network))
    else:
        raise ReproError(
            f"unsupported netlist extension {suffix!r} (use .blif/.bench/.aag)"
        )
    # Atomic: a crash mid-write must never leave a half-written netlist
    # (a resumed session byte-compares these artifacts).
    atomic_write_text(path, text)


def _cmd_stats(args: argparse.Namespace) -> int:
    network = load_network(args.input)
    print(f"name   : {network.name}")
    print(f"PIs    : {len(network.pis)}")
    print(f"POs    : {len(network.pos)}")
    print(f"gates  : {network.num_gates}")
    print(f"depth  : {network.depth()}")
    arities = [n.num_fanins for n in network.gates()]
    if arities:
        print(f"max fanin: {max(arities)}")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    network = load_network(args.input)
    mapped, stats = map_to_luts(network, k=args.k)
    save_network(mapped, args.output)
    print(f"mapped to {stats.luts} LUT{stats.k}s, depth {stats.depth} -> {args.output}")
    return 0


def _cmd_strash(args: argparse.Namespace) -> int:
    network = load_network(args.input)
    hashed = strash(network)
    save_network(hashed, args.output)
    print(
        f"strash: {network.num_gates} -> {hashed.num_gates} gates -> "
        f"{args.output}"
    )
    return 0


def _run_budget(args: argparse.Namespace) -> Optional[Budget]:
    """Build the run-level budget from ``--timeout`` (None = unbounded)."""
    if getattr(args, "timeout", None) is None:
        return None
    return Budget(seconds=args.timeout)


def _open_tracer(args: argparse.Namespace, command: str):
    """Build the structured tracer from ``--trace`` (None = disabled).

    Invocation metadata (command, seed, jobs) goes into the header only —
    it is jobs-dependent and the header is excluded from the deterministic
    trace projection.
    """
    path = getattr(args, "trace", None)
    if path is None:
        return None
    from repro.obs import Tracer

    return Tracer(
        path,
        meta={
            "command": command,
            "seed": args.seed,
            "jobs": getattr(args, "jobs", 1),
        },
    )


def _open_journal(args: argparse.Namespace):
    """Build the verdict journal from ``--journal``/``--resume``.

    ``--resume`` replays an existing journal (skipping already-proven
    pairs); without it, an existing non-empty journal is refused rather
    than silently extended.
    """
    path = getattr(args, "journal", None)
    if path is None:
        if getattr(args, "resume", False):
            raise ReproError("--resume requires --journal FILE")
        return None
    from repro.runtime import VerdictJournal

    return VerdictJournal(path, resume=getattr(args, "resume", False))


def _report_journal(args: argparse.Namespace, journal) -> None:
    if journal is None:
        return
    stats = journal.stats
    print(
        f"journal -> {args.journal} "
        f"({stats['replayed_verdicts']} replayed, "
        f"{stats['appends']} appended"
        + (
            f", torn tail truncated"
            if stats["torn_tail_truncations"]
            else ""
        )
        + ")"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    network = load_network(args.input)
    generator = make_generator(
        args.strategy,
        network,
        seed=args.seed,
        simgen_backend=args.simgen_backend,
    )
    tracer = _open_tracer(args, "sweep")
    journal = _open_journal(args)
    config = SweepConfig(
        seed=args.seed,
        iterations=args.iterations,
        random_width=args.patterns,
        budget=_run_budget(args),
        max_escalations=2 if args.escalate else 0,
        jobs=args.jobs,
        sat_backend=args.sat_backend,
        tracer=tracer,
        journal=journal,
    )
    try:
        engine = SweepEngine(network, generator, config)
        result = engine.run()
    finally:
        if tracer is not None:
            tracer.close()
        if journal is not None:
            journal.close()
    if tracer is not None:
        print(f"trace -> {args.trace}")
    _report_journal(args, journal)
    metrics = result.metrics
    if metrics.cost_history:
        print(
            f"cost {metrics.cost_history[0]} -> {metrics.final_cost}, "
            f"{metrics.sat_calls} SAT calls "
            f"({metrics.proven} proven, {metrics.disproven} disproven, "
            f"{metrics.unknown} unknown), "
            f"gen {metrics.simgen_time:.2f}s sim {metrics.sim_time:.2f}s "
            f"sat {metrics.sat_time:.2f}s "
            f"(phase {metrics.sat_phase_time:.2f}s)"
        )
    if metrics.escalations:
        print(
            f"escalations: {metrics.escalations} retries, "
            f"{metrics.unknown_after_escalation} pairs still unknown"
        )
    if metrics.deadline_expired:
        print("deadline expired: partial (sound) result")
    if metrics.interrupted:
        print("interrupted: partial (sound) result")
    if args.output:
        reduced, stats = reduce_network(network, result.equivalences)
        save_network(reduced, args.output)
        print(
            f"reduced: {stats.gates_before} -> {stats.gates_after} gates "
            f"({stats.merged} merges) -> {args.output}"
        )
    return 0


def _cmd_cec(args: argparse.Namespace) -> int:
    network_a = load_network(args.golden)
    network_b = load_network(args.revised)
    tracer = _open_tracer(args, "cec")
    journal = _open_journal(args)
    try:
        result = check_equivalence(
            network_a,
            network_b,
            generator_factory=factory(
                args.strategy, simgen_backend=args.simgen_backend
            ),
            config=SweepConfig(
                seed=args.seed,
                iterations=args.iterations,
                budget=_run_budget(args),
                max_escalations=2 if args.escalate else 0,
                jobs=args.jobs,
                sat_backend=args.sat_backend,
                tracer=tracer,
                journal=journal,
            ),
        )
    finally:
        if tracer is not None:
            tracer.close()
        if journal is not None:
            journal.close()
    if tracer is not None:
        print(f"trace -> {args.trace}")
    _report_journal(args, journal)
    verdict = result.verdict.upper()
    print(f"{verdict}  ({result.metrics.sat_calls} SAT calls)")
    for name, state in result.outputs.items():
        if state != "equal":
            print(f"  output {name}: {state}")
    if result.counterexample is not None:
        values = " ".join(
            f"{network_a.node(pi).label()}={v}"
            for pi, v in sorted(result.counterexample.values.items())
        )
        print(f"  counterexample: {values}")
    if args.json:
        report = {
            "verdict": result.verdict,
            "equivalent": result.equivalent,
            "conclusive": result.conclusive,
            # Sorted so the report is byte-stable across worker counts
            # (the per-output dict is populated in dispatch order).
            "outputs": dict(sorted(result.outputs.items())),
            "sat_calls": result.metrics.sat_calls,
            "deadline_expired": result.metrics.deadline_expired,
            "interrupted": result.metrics.interrupted,
        }
        atomic_write_json(args.json, report)
    # A difference is exit 1; "inconclusive" exits 0 like "equivalent" so a
    # deadline-bounded run in CI is distinguishable from a refutation (the
    # report carries conclusive=false).
    return 1 if result.verdict == "different" else 0


def _cmd_putontop(args: argparse.Namespace) -> int:
    network = load_network(args.input)
    stacked = put_on_top(network, args.copies)
    save_network(stacked, args.output)
    print(
        f"stacked {args.copies}x: {stacked.num_gates} gates, "
        f"{len(stacked.pis)} PIs, {len(stacked.pos)} POs -> {args.output}"
    )
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    network = build_benchmark(args.benchmark)
    save_network(network, args.output)
    print(f"{args.benchmark}: {network.num_gates} gates -> {args.output}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    network = load_network(args.input)
    save_network(network, args.output)
    print(f"{args.input} -> {args.output} ({network.num_gates} gates)")
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    import random as _random

    from repro.simulation import PatternBatch, batch_quality

    network = load_network(args.input)
    batch = PatternBatch.random_for(
        network, args.patterns, _random.Random(args.seed)
    )
    quality = batch_quality(network, batch)
    print(f"patterns          : {quality.patterns}")
    print(f"toggle rate       : {quality.toggle_rate:.3f}")
    print(f"signature classes : {quality.signature_classes}")
    print(f"constant nodes    : {quality.constant_fraction:.1%}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import load_trace, render, summarize, validate_records

    try:
        records = load_trace(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.validate:
        errors = validate_records(records)
        if errors:
            for error in errors:
                print(f"invalid: {error}", file=sys.stderr)
            return 1
        print(f"trace OK: {len(records)} records")
        return 0
    print(render(summarize(records), top=args.top))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: most CLI invocations never start the daemon.
    from repro.serve import (
        ClientBudget,
        SweepService,
        VerdictCache,
        build_server,
        run_server,
    )

    cache = VerdictCache(
        path=args.cache, max_bytes=int(args.cache_bytes)
    )
    service = SweepService(
        workers=args.workers,
        cache=cache,
        default_budget=ClientBudget(
            max_pending=args.max_pending,
            max_job_seconds=args.max_job_seconds,
        ),
    )
    server = build_server(host=args.host, port=args.port, service=service)
    host, port = server.server_address[:2]
    loaded = cache.stats["loaded"]
    print(
        f"serving on http://{host}:{port} "
        f"({args.workers} workers"
        + (f", {loaded} cached verdicts loaded" if loaded else "")
        + ")",
        flush=True,
    )
    run_server(server)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.io import bench_text as _bench_text
    from repro.serve import ServeClient

    config = {
        "seed": args.seed,
        "iterations": args.iterations,
        "patterns": args.patterns,
        "strategy": args.strategy,
        "simgen_backend": args.simgen_backend,
        "sat_backend": args.sat_backend,
        "jobs": args.jobs,
        "timeout": args.timeout,
        "escalate": args.escalate,
    }
    # Normalize through the parser so any supported extension submits.
    request = {
        "kind": "cec" if args.revised else "sweep",
        "format": "bench",
        "netlist": _bench_text(load_network(args.input)),
        "client": args.client,
        "config": config,
        "trace": args.trace,
    }
    if args.revised:
        request["revised"] = _bench_text(load_network(args.revised))
    client = ServeClient(args.url)
    job_id = client.submit(request)
    print(f"job {job_id} submitted to {args.url}")
    state = client.wait(job_id, timeout=args.wait_timeout)
    result = state["result"]
    cache_stats = result["cache"]
    print(
        f"cache: {cache_stats['hits']} replayed, "
        f"{cache_stats['misses']} missed, "
        f"{cache_stats['appends']} appended"
    )
    if args.trace:
        trace = client.trace(job_id)
        atomic_write_text(args.trace, trace.decode("utf-8"))
        print(f"trace -> {args.trace}")
    if result["kind"] == "sweep":
        metrics = result["metrics"]
        print(
            f"reduced: {result['gates_before']} -> {result['gates_after']} "
            f"gates ({result['merged']} merges), "
            f"{metrics['sat_calls']} SAT calls"
        )
        if args.output:
            atomic_write_text(args.output, result["netlist"])
            print(f"-> {args.output}")
        return 0
    print(
        f"{result['verdict'].upper()}  "
        f"({result['metrics']['sat_calls']} SAT calls)"
    )
    if result["counterexample"]:
        values = " ".join(f"{n}={v}" for n, v in result["counterexample"])
        print(f"  counterexample: {values}")
    return 1 if result["verdict"] == "different" else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools", description="SimGen netlist utilities"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="netlist summary")
    p.add_argument("input")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("map", help="K-LUT mapping")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-k", type=int, default=6)
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("strash", help="structural hashing")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_strash)

    p = sub.add_parser("sweep", help="SimGen-accelerated SAT sweeping")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="write the reduced network here")
    p.add_argument("--strategy", default="AI+DC+MFFC")
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--patterns", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="wall-clock deadline; expiry returns a sound partial result",
    )
    p.add_argument(
        "--escalate", action="store_true",
        help="retry conflict-limited pairs with growing limits (20k->80k->320k)",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="SAT-phase worker processes (results identical for any N)",
    )
    p.add_argument(
        "--trace", metavar="FILE",
        help="record a structured JSONL trace of the run",
    )
    p.add_argument(
        "--simgen-backend", choices=("batch", "compiled", "reference"),
        default="batch", dest="simgen_backend",
        help="guided-vector kernel (trajectories identical; batch is fastest)",
    )
    p.add_argument(
        "--sat-backend", choices=("compiled", "reference"),
        default="compiled", dest="sat_backend",
        help="CDCL solver core (trajectories identical; compiled is faster)",
    )
    p.add_argument(
        "--journal", metavar="FILE",
        help="write-ahead verdict journal (crash-safe; replay with --resume)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="replay an existing --journal, skipping already-proven pairs",
    )
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("cec", help="combinational equivalence check")
    p.add_argument("golden")
    p.add_argument("revised")
    p.add_argument("--strategy", default="AI+DC+MFFC")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--timeout", type=float, metavar="SECONDS",
        help="wall-clock deadline; expiry reports INCONCLUSIVE, never DIFFERENT",
    )
    p.add_argument(
        "--escalate", action="store_true",
        help="retry conflict-limited pairs with growing limits (20k->80k->320k)",
    )
    p.add_argument(
        "--json", metavar="FILE",
        help="write a machine-readable verdict report (includes conclusive)",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="SAT-phase worker processes (verdicts identical for any N)",
    )
    p.add_argument(
        "--trace", metavar="FILE",
        help="record a structured JSONL trace of the run",
    )
    p.add_argument(
        "--simgen-backend", choices=("batch", "compiled", "reference"),
        default="batch", dest="simgen_backend",
        help="guided-vector kernel (trajectories identical; batch is fastest)",
    )
    p.add_argument(
        "--sat-backend", choices=("compiled", "reference"),
        default="compiled", dest="sat_backend",
        help="CDCL solver core (trajectories identical; compiled is faster)",
    )
    p.add_argument(
        "--journal", metavar="FILE",
        help="write-ahead verdict journal (crash-safe; replay with --resume)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="replay an existing --journal, skipping already-proven pairs",
    )
    p.set_defaults(fn=_cmd_cec)

    p = sub.add_parser("putontop", help="stack copies (&putontop)")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-n", "--copies", type=int, required=True)
    p.set_defaults(fn=_cmd_putontop)

    p = sub.add_parser("gen", help="emit a suite benchmark")
    p.add_argument("benchmark", choices=benchmark_names())
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("convert", help="convert between netlist formats")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("sim", help="random simulation + quality metrics")
    p.add_argument("input")
    p.add_argument("--patterns", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_sim)

    p = sub.add_parser("trace", help="analyze/validate a structured trace")
    p.add_argument("input", help="JSONL trace written by --trace")
    p.add_argument(
        "--validate", action="store_true",
        help="check schema only (unclosed spans, negative durations, ...)",
    )
    p.add_argument(
        "--top", type=int, default=5,
        help="hottest SAT pairs to list in the summary (default 5)",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "serve", help="persistent sweep/CEC daemon with a verdict cache"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8351,
        help="listen port (0 picks a free one; printed at startup)",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="concurrent job runner threads",
    )
    p.add_argument(
        "--cache", metavar="FILE",
        help="persist the verdict cache here (reloaded at startup)",
    )
    p.add_argument(
        "--cache-bytes", type=int, default=64 * 1024 * 1024,
        dest="cache_bytes",
        help="in-memory cache bound; LRU entries evict past it",
    )
    p.add_argument(
        "--max-pending", type=int, default=16, dest="max_pending",
        help="per-client admission budget (queued + running jobs)",
    )
    p.add_argument(
        "--max-job-seconds", type=float, default=None,
        dest="max_job_seconds",
        help="clamp every job's deadline to this many seconds",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("submit", help="run a job on a repro.tools serve daemon")
    p.add_argument("input")
    p.add_argument(
        "--revised", metavar="FILE",
        help="second netlist: submit a CEC job instead of a sweep",
    )
    p.add_argument("--url", default="http://127.0.0.1:8351")
    p.add_argument("-o", "--output", help="write the reduced network here")
    p.add_argument("--client", default="cli", help="admission identity")
    p.add_argument("--strategy", default="AI+DC+MFFC")
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--patterns", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, metavar="SECONDS")
    p.add_argument("--escalate", action="store_true")
    p.add_argument("--jobs", type=int, default=1, metavar="N")
    p.add_argument(
        "--trace", metavar="FILE",
        help="fetch the job's structured trace into this file",
    )
    p.add_argument(
        "--simgen-backend", choices=("batch", "compiled", "reference"),
        default="batch", dest="simgen_backend",
    )
    p.add_argument(
        "--sat-backend", choices=("compiled", "reference"),
        default="compiled", dest="sat_backend",
    )
    p.add_argument(
        "--wait-timeout", type=float, default=None, dest="wait_timeout",
        help="give up waiting for the result after this many seconds",
    )
    p.set_defaults(fn=_cmd_submit)


    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Engines absorb interrupts into partial results; one landing here
        # (during I/O, mapping, ...) still exits cleanly.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
