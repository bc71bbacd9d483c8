"""Tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time

import pytest

import layers
import run


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _caches():
    info = {"hits": 0, "misses": 0}
    return {"tape": dict(info), "transition": dict(info)}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_ranks():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == pytest.approx(50.5)
    assert run.percentile(values, 0.95) == pytest.approx(95.05)
    assert run.percentile([3.0], 0.95) == 3.0
    assert run.percentile([4, 1, 3, 2], 0.0) == 1


def test_sample_count_rule_needs_ten_samples_beyond():
    assert run.samples_beyond(200, 0.95) == 10
    assert run.resolved(200, 0.95)
    assert not run.resolved(199, 0.95)
    assert run.resolved(20, 0.5)
    assert not run.resolved(19, 0.5)


def test_pooled_percentiles_use_every_runs_jobs():
    records = [
        {"job_seconds": [1.0, 2.0], "end_to_end": {"job_p50_s": 1.5}},
        {"job_seconds": [3.0, 4.0, 5.0], "end_to_end": {"job_p50_s": 4.0}},
    ]
    value, samples = run.center(records, "job_p50_s")
    assert (value, samples) == (3.0, 5)
    value, samples = run.center(records, "job_p95_s")
    assert value == pytest.approx(4.8) and samples == 5


def test_pass_count_is_fixed_by_the_time_budget():
    assert run.pass_count(12) == 3
    assert run.pass_count(9) == 2
    assert run.pass_count(0) == 1


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([100, 101, 99], [100, 102, 98], "lower", "within"),
        ([100, 101, 99], [120, 121, 119], "lower", "worse"),
        ([100, 101, 99], [80, 81, 79], "lower", "better"),
        ([100, 101, 99], [120, 121, 119], "higher", "better"),
        ([100, 140, 60], [101, 139, 62], "lower", "unresolved"),
        # Noisy, but every change run beats every parent run.
        ([100, 140, 60], [30, 40, 20], "lower", "better"),
    ],
)
def test_verdicts(parent, change, better, expected):
    import statistics

    result = run.verdict(
        parent, change, statistics.median(parent), statistics.median(change),
        better, 0.10,
    )
    assert result == expected


def _result_file(path, values: dict) -> str:
    runs = {
        name: [
            {"end_to_end": metrics, "job_seconds": [metrics["job_p50_s"]]}
            for metrics in per_run
        ]
        for name, per_run in values.items()
    }
    path.write_text(json.dumps({"sets": [{"runs": runs}]}), encoding="utf-8")
    return str(path)


def test_compare_applies_benchmark_bounds(tmp_path):
    base = {name: 1.0 for name, _ in run.END_TO_END}
    slower = dict(base, nodes_per_s=0.5, job_p50_s=1.5)
    parent = _result_file(tmp_path / "p.json", {"stack_serial": [base] * 3})
    change = _result_file(tmp_path / "c.json", {"stack_serial": [slower] * 3})
    rows = {
        row["metric"]: row["verdict"]
        for row in run.compare(run.load_runs(parent), run.load_runs(change))
    }
    assert rows["nodes_per_s"] == "worse"
    assert rows["job_p50_s"] == "worse"
    assert rows["sat_calls"] == "within"
    assert set(rows) == {name for name, _ in run.END_TO_END}


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_self_time_charges_nested_compile_to_simulation():
    clock = FakeClock()
    tracer = layers.Tracer(clock)
    tracer.job = "j"
    job = tracer.begin("job")
    clock.now = 1.0
    lower = tracer.begin("core.lower")
    clock.now = 2.0
    compile_ = tracer.begin("simulation.compile")
    clock.now = 5.0
    tracer.end(compile_)
    clock.now = 6.0
    tracer.end(lower)
    clock.now = 7.0
    tracer.end(job)
    out = layers.layer_metrics(
        tracer, layers.Instrumentation(tracer), 1, 1, [], _caches(), _caches()
    )
    assert out["simulation.compile_s"] == pytest.approx(3.0)
    assert out["core.lower_s"] == pytest.approx(2.0)
    assert out["ledger.other_s"] == pytest.approx(2.0)
    assert out["ledger.job_s"] == pytest.approx(7.0)
    buckets = sum(out[m] for m in layers.SELF_TIME_BUCKETS.values())
    assert buckets == pytest.approx(out["ledger.job_s"])


def test_span_on_another_thread_is_parented_to_the_driving_span():
    tracer = layers.Tracer()
    tracer.job = "j"
    job = tracer.begin("job")
    client = tracer.begin("serve.client")

    def worker():
        with tracer.span("engine.run"):
            time.sleep(0.01)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.end(client)
    tracer.end(job)
    by_name = {span[3]: span for span in tracer.spans}
    assert by_name["engine.run"][1] == by_name["serve.client"][0]
    engine_s = by_name["engine.run"][5] - by_name["engine.run"][4]
    client = by_name["serve.client"]
    assert client[6] == pytest.approx(client[5] - client[4] - engine_s)


def test_instrumentation_restores_every_original():
    run.prepare_environment()
    from repro.sweep import checker, classes

    originals = (
        checker.pair_miter,
        classes.EquivalenceClasses.__dict__["best_splittable"],
    )
    instrumentation = layers.Instrumentation(layers.Tracer()).install()
    assert checker.pair_miter is not originals[0]
    instrumentation.restore()
    assert checker.pair_miter is originals[0]
    assert classes.EquivalenceClasses.__dict__["best_splittable"] is originals[1]


# ----------------------------------------------------------------------
# BENCHMARK.json and end-to-end runs
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_harness():
    bench = run.load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        layers.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_smoke_prints_every_metric(tmp_path):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--smoke",
         "--out", str(tmp_path / "smoke.json")],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    bench = run.load_benchmark()
    for spec in bench["end_to_end"] + bench["per_layer"]:
        for workload in run.WORKLOADS:
            assert f"{workload:14s} {spec['name']} " in proc.stdout
    assert elapsed < 60


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cec_rewrite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
