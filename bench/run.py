#!/usr/bin/env python3
"""Paper-scale benchmark of the SimGen reproduction.

One run (what ``BENCHMARK.json``'s command does)::

    python3 bench/run.py --workload suite_simgen --seed 0 --seconds 12 --trace 0

builds the workload's inputs from the seed three times (``setup_s`` is the
median), then makes as many passes over its job list as fill
``--seconds``, checks every output, prints each metric by name with its
unit, and prints one JSON object as the last line.  ``--trace 1``
installs the per-layer span wrappers and reports the per-layer metrics
instead.

A set (three untraced runs of every workload, rotating the workload
order each round, then one traced run each; every run in a fresh
process)::

    python3 bench/run.py --seed 0 [--sets 2] [--out results.json]

Comparing two result files against the bounds in ``BENCHMARK.json``::

    python3 bench/run.py compare PARENT.json CHANGE.json

``--smoke`` runs a one-round set on one small input per workload.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
#: Everything a run leaves behind: compiled C cores, daemon spool,
#: traces, per-run records.
BUILD = ROOT / ".bench_build"

WORKLOADS = (
    "suite_simgen",
    "stack_serial",
    "stack_pool",
    "cec_rewrite",
    "serve_replay",
)
END_TO_END = (
    ("setup_s", "s"),
    ("nodes_per_s", "nodes/s"),
    ("job_p50_s", "s"),
    ("sat_calls", "count"),
    ("cost_final", "count"),
    ("peak_rss_mb", "MB"),
)
#: Job-time percentiles a set pools over all its runs' jobs.  A run has
#: too few jobs for its own p95 to have ten samples beyond it, so p95 is
#: reported for sets only.
POOLED = {"job_p50_s": 0.50, "job_p95_s": 0.95}
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUPS = 3
#: Nominal length of one pass over a workload's job list (2-CPU host).
PASS_SECONDS = 4.0
#: Untraced rounds per set.
ROUNDS = 3
#: A percentile is resolved when at least this many samples lie beyond it.
TAIL_SAMPLES = 10
#: glibc's ``mallopt`` parameter number for the arena limit.
M_ARENA_MAX = -8


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count: int, q: float) -> int:
    """Samples lying beyond percentile ``q`` of ``count`` samples."""
    return int(count * (1.0 - q) + 1e-9)


def resolved(count: int, q: float) -> bool:
    """The sample-count rule: report a percentile only with at least
    :data:`TAIL_SAMPLES` samples beyond it."""
    return samples_beyond(count, q) >= TAIL_SAMPLES


def quartiles(values) -> tuple[float, float]:
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    parent: list, change: list, parent_center: float, change_center: float,
    better: str, bound: float,
) -> str:
    """``better`` / ``within`` / ``worse`` / ``unresolved`` for one row.

    A row is unresolved when either side's spread exceeds the bound,
    unless every change run beats every parent run.
    """
    sign = 1.0 if better == "lower" else -1.0
    worsening = (
        sign * (change_center - parent_center) / abs(parent_center)
        if parent_center
        else 0.0
    )
    if max(relative_spread(parent), relative_spread(change)) > bound:
        beats = all(
            sign * (c - p) < 0 for c in change for p in parent
        )
        return "better" if beats else "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within"


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def pass_count(seconds: float) -> int:
    """Passes that fill ``seconds``; every workload is sized so one pass
    takes about :data:`PASS_SECONDS` on the reference host.

    The count depends only on the argument, never on measured speed, so
    two commits run the same work, with the same share of cold passes
    (the first pass compiles simulator tapes the later ones reuse).
    """
    return max(1, round(seconds / PASS_SECONDS))


def prepare_environment() -> None:
    """Point every cache and temp file at the checkout, then import path.

    Exits non-zero when the program's sources are not next to ``bench/``.
    """
    if not (SRC / "repro").is_dir():
        sys.exit(f"bench: no program sources at {SRC / 'repro'}")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    tempfile.tempdir = None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def compiled_cores() -> dict:
    """Build and load both C cores; refuse to time a pure-Python fallback."""
    from repro.core.batch import SIMGEN_CORE
    from repro.sat.compiled import SAT_CORE

    cores = {"sat_core": SAT_CORE, "simgen_core": SIMGEN_CORE}
    if "python" in cores.values():
        sys.exit(
            f"bench: a C core fell back to Python ({cores}); refusing to "
            "report timings of a different program"
        )
    return cores


def environment(commit: str = "unknown") -> dict:
    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        **compiled_cores(),
    }


def single_malloc_arena() -> None:
    """Keep glibc to one malloc arena (no-op without glibc).

    With the default, a thread that meets allocator contention may get an
    arena of its own, and the daemon's peak memory then lands 70 MB higher
    in some runs than in others of the same input.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_ARENA_MAX, 1)


def peak_rss_mb() -> float:
    """Max resident set of this process and its reaped children."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, run the timed window, check outputs; returns the run record."""
    import layers
    import workloads
    from repro.core.compiled import transition_cache_info
    from repro.simulation.compiled import tape_cache_info

    single_malloc_arena()
    env = environment()
    workload = workloads.make_workloads(str(BUILD / "spool"), smoke)[name]
    tracer = layers.Tracer() if trace else None
    instrumentation = layers.Instrumentation(tracer).install() if trace else None
    clock = time.perf_counter
    try:
        setup_times = []
        for _ in range(SETUPS):
            inputs = None  # release the previous set-up's inputs first
            start = clock()
            inputs = workload.build(seed, tracer)
            setup_times.append(clock() - start)
        caches_before = {"tape": tape_cache_info(), "transition": transition_cache_info()}
        passes, start_times, pass_walls = [], [], []
        for _ in range(pass_count(seconds)):
            # Every pass starts from a collected heap: a previous pass's
            # garbage (on serve_replay, a whole daemon) would otherwise be
            # freed, or not, inside the next pass's time and peak memory.
            gc.collect()
            start = clock()
            jobs, start_s = workload.run_pass(inputs, seed, tracer)
            pass_walls.append(clock() - start)
            passes.append(jobs)
            start_times.append(start_s)
        caches_after = {"tape": tape_cache_info(), "transition": transition_cache_info()}
        all_jobs = [job for jobs in passes for job in jobs]
        per_layer = (
            layers.layer_metrics(
                tracer, instrumentation, len(passes), SETUPS, all_jobs,
                caches_before, caches_after,
            )
            if trace
            else None
        )
    finally:
        if instrumentation is not None:
            instrumentation.restore()
    if trace:
        tracer.write_jsonl(str(BUILD / f"trace-{name}-seed{seed}.jsonl"))

    workload.check(inputs, seed, passes)
    # A job's time is its best over the run's passes: contention from
    # other tenants of the host arrives in sub-second bursts and only
    # ever adds time, so the best of three is steady where a mean is not.
    job_seconds = [
        min(times) for times in zip(*([job.seconds for job in jobs] for jobs in passes))
    ]
    metrics = {
        "setup_s": statistics.median(setup_times) + statistics.median(start_times),
        "nodes_per_s": sum(job.nodes for job in passes[0]) / sum(job_seconds),
        "job_p50_s": percentile(job_seconds, 0.50),
        "sat_calls": sum(job.sat_calls for job in passes[0]),
        "cost_final": sum(job.cost for job in passes[0]),
        "peak_rss_mb": peak_rss_mb(),
    }
    failed = [job for job in all_jobs if job.error is not None]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "env": env,
        "passes": len(passes),
        "setup_times": setup_times,
        "daemon_start_times": start_times,
        "pass_walls": pass_walls,
        "job_seconds": job_seconds,
        "job_s_per_pass": sum(job.seconds for job in all_jobs) / len(passes),
        "end_to_end": metrics,
        "per_layer": per_layer,
        "attempted": len(all_jobs),
        "failed": len(failed),
        "errors": [f"{job.label}: {job.error}" for job in failed[:10]],
    }


def print_run(record: dict) -> dict:
    """Print a run's metrics by name; returns the reported metric dict."""
    import layers

    name = record["workload"]
    if record["trace"]:
        units = dict(layers.PER_LAYER)
        values = record["per_layer"]
    else:
        units = dict(END_TO_END)
        values = record["end_to_end"]
    count = len(record["job_seconds"])
    for metric, value in values.items():
        note = f"  ({pooled_note(count, POOLED[metric])})" if metric in POOLED else ""
        print(f"{name:14s} {metric:28s} {value:14.6g} {units[metric]}{note}")
    print(
        f"{name:14s} {'error_rate':28s} "
        f"{record['failed'] / record['attempted']:14.6g} fraction"
        f"  ({record['failed']} of {record['attempted']} jobs, "
        f"{record['passes']} passes)"
    )
    for error in record["errors"]:
        print(f"{name:14s} error: {error}")
    return {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()}


def run_one(args) -> int:
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    if args.record:
        Path(args.record).write_text(json.dumps(record), encoding="utf-8")
    metrics = print_run(record)
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if record["failed"] == 0 else 1


# ----------------------------------------------------------------------
# Sets
# ----------------------------------------------------------------------
def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child_run(name: str, seed: int, seconds: float, trace: int, smoke: bool, tag: str) -> dict:
    """One run in a fresh process (empty process-wide caches)."""
    record_path = BUILD / "runs" / f"{name}-seed{seed}-{tag}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--record", str(record_path),
    ] + (["--smoke"] if smoke else [])
    proc = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900
    )
    sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
    sys.stdout.flush()
    if not record_path.exists():
        raise SystemExit(f"bench: run {name} ({tag}) exited {proc.returncode} without a record")
    return json.loads(record_path.read_text(encoding="utf-8"))


def center(records: list, metric: str) -> tuple[float, int]:
    """A set's value of a metric: the median over runs, or for job
    percentiles the percentile of every run's pooled job latencies."""
    if metric in POOLED:
        pooled = [s for record in records for s in record["job_seconds"]]
        return percentile(pooled, POOLED[metric]), len(pooled)
    return statistics.median(r["end_to_end"][metric] for r in records), len(records)


def pooled_note(count: int, q: float) -> str:
    return (
        f"n={count}, {samples_beyond(count, q)} beyond; "
        f"{'resolved' if resolved(count, q) else 'under-sampled'}"
    )


def summarize(runs: dict, traced: dict) -> dict:
    summary = {}
    for name, records in runs.items():
        rows = {}
        for metric, unit in END_TO_END:
            values = [r["end_to_end"][metric] for r in records]
            value, samples = center(records, metric)
            q1, q3 = quartiles(values)
            rows[metric] = {
                "value": value, "unit": unit, "samples": samples,
                "runs": values, "q1": q1, "q3": q3,
            }
        value, samples = center(records, "job_p95_s")
        rows["job_p95_s"] = {
            "value": value, "unit": "s", "samples": samples,
            "note": pooled_note(samples, POOLED["job_p95_s"]),
        }
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        rows["error_rate"] = {"value": failed / attempted, "unit": "fraction"}
        if name in traced:
            untraced = statistics.median(r["job_s_per_pass"] for r in records)
            rows["trace.overhead_frac"] = {
                "value": traced[name]["per_layer"]["ledger.job_s"] / untraced - 1.0,
                "unit": "fraction",
            }
        summary[name] = rows
    if "stack_pool" in traced and "stack_serial" in traced:
        base = traced["stack_serial"]["per_layer"]["checker.window_s"]
        summary["stack_pool"]["pool.worker_sat_ratio"] = {
            "value": traced["stack_pool"]["per_layer"]["pool.worker_sat_s"] / base
            if base else 0.0,
            "unit": "fraction",
            "base_s": base,
        }
    return summary


def run_set(seed: int, seconds: float, smoke: bool, rounds: int) -> dict:
    commit = git_commit()
    env = environment(commit)
    runs = {name: [] for name in WORKLOADS}
    for round_index in range(rounds):
        shift = round_index % len(WORKLOADS)
        for name in WORKLOADS[shift:] + WORKLOADS[:shift]:
            runs[name].append(
                child_run(name, seed, seconds, 0, smoke, f"r{round_index}")
            )
    traced = {
        name: child_run(name, seed, seconds, 1, smoke, "traced")
        for name in WORKLOADS
    }
    summary = summarize(runs, traced)
    print_summary(summary)
    return {
        "seed": seed, "seconds": seconds, "smoke": smoke, "env": env,
        "runs": runs, "traced": traced, "summary": summary,
    }


def print_summary(summary: dict) -> None:
    print("\nset summary (median of runs; job percentiles pooled over runs)")
    for name, rows in summary.items():
        for metric, row in rows.items():
            extra = ""
            if "q1" in row:
                extra = f"  [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['samples']}]"
            if "note" in row:
                extra = f"  ({row['note']})"
            if "base_s" in row:
                extra = f"  (base: stack_serial checker {row['base_s']:.6g} s)"
            print(f"{name:14s} {metric:28s} {row['value']:14.6g} {row['unit']}{extra}")


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_runs(path: str) -> dict:
    """Workload -> untraced run records, pooled over every set in a file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    runs: dict = {}
    for result_set in data["sets"]:
        for name, records in result_set["runs"].items():
            runs.setdefault(name, []).extend(records)
    return runs


def compare(parent: dict, change: dict) -> list[dict]:
    """One row per (end-to-end metric, workload) with its verdict, from
    two maps of workload -> untraced run records."""
    rows = []
    for spec in load_benchmark()["end_to_end"]:
        metric = spec["name"]
        for name in WORKLOADS:
            if name not in parent or name not in change:
                continue
            p_values = [r["end_to_end"][metric] for r in parent[name]]
            c_values = [r["end_to_end"][metric] for r in change[name]]
            p_center, _ = center(parent[name], metric)
            c_center, _ = center(change[name], metric)
            rows.append(
                {
                    "metric": metric, "workload": name, "unit": spec["unit"],
                    "bound": spec["bound"],
                    "parent": [p_center, *quartiles(p_values)],
                    "change": [c_center, *quartiles(c_values)],
                    "verdict": verdict(
                        p_values, c_values, p_center, c_center,
                        spec["better"], spec["bound"],
                    ),
                }
            )
    return rows


def print_compare(rows: list[dict]) -> None:
    print(
        f"{'metric':12s} {'workload':14s} {'parent [q1, q3]':>36s} "
        f"{'change [q1, q3]':>36s} {'bound':>6s}  verdict"
    )
    for row in rows:
        cells = [
            f"{c:.5g} [{q1:.5g}, {q3:.5g}]" for c, q1, q3 in (row["parent"], row["change"])
        ]
        print(
            f"{row['metric']:12s} {row['workload']:14s} {cells[0]:>36s} "
            f"{cells[1]:>36s} {row['bound']:6.0%}  {row['verdict']}"
        )


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench/run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        args = parser.parse_args(argv[1:])
        rows = compare(load_runs(args.parent), load_runs(args.change))
        print_compare(rows)
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0

    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="write the full run record here")
    parser.add_argument("--smoke", action="store_true",
                        help="one small input per workload")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", help="results JSON of a set")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(load_benchmark()["run_seconds"])

    prepare_environment()
    if args.workload is not None:
        return run_one(args)

    compiled_cores()  # build both C cores here, before any child is timed
    rounds = 1 if args.smoke else ROUNDS
    sets = [
        run_set(args.seed, args.seconds, args.smoke, rounds)
        for _ in range(args.sets)
    ]
    result = {"benchmark": load_benchmark(), "sets": sets}
    if len(sets) > 1:
        # Two sets of the same code show the benchmark's own noise floor.
        print("\nset 2 against set 1")
        result["self_compare"] = compare(sets[0]["runs"], sets[1]["runs"])
        print_compare(result["self_compare"])
    out = Path(args.out) if args.out else BUILD / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(f"\nresults written to {out}")
    failed = sum(
        r["failed"] for s in sets for records in s["runs"].values() for r in records
    ) + sum(r["failed"] for s in sets for r in s["traced"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
