"""Shared fixtures for the serving-layer tests.

Jobs run real sweeps, so the workloads are deliberately tiny miters —
enough SAT traffic to exercise the cache, small enough for CI.
"""

import json
import threading
import time
import urllib.request
from contextlib import contextmanager

import pytest

from repro.io import bench_text
from repro.sat.tseitin import po_miter
from repro.serve import (
    ServeClient,
    ServeError,
    SweepService,
    build_server,
    run_server,
)
from tests.conftest import random_network


def miter_text(seed=9, num_inputs=6, num_gates=30, mutate=None):
    """Bench text of a two-copy miter (every class pair is provable).

    ``mutate`` (a gate index) inverts one gate in *both* copies before
    mitering: the result is still equivalent everywhere, but every cone
    containing the mutated gate changes structural signature — the
    "lightly edited netlist" of the cache-reuse acceptance tests.
    """
    base = random_network(seed=seed, num_inputs=num_inputs, num_gates=num_gates)
    if mutate is not None:
        gates = [n for n in base.gates() if n.num_fanins >= 2]
        victim = gates[mutate % len(gates)]
        victim.table = ~victim.table
    return bench_text(po_miter(base, base))


def run_job(service, request, timeout=120.0):
    """Submit one job and wait until it finishes; returns the Job."""
    answer = service.submit(request)
    assert "id" in answer, answer
    job_id = answer["id"]
    deadline = time.monotonic() + timeout
    while True:
        job = service.job(job_id, wait=deadline - time.monotonic())
        if job.status not in ("queued", "running"):
            return job
        assert time.monotonic() < deadline, f"job {job_id} stuck: {job.status}"


@pytest.fixture
def service():
    svc = SweepService(workers=2).start()
    yield svc
    svc.shutdown()


def post_job(client, request):
    """POST a job with urllib, so a refusal's HTTP status stays visible."""
    return urllib.request.urlopen(
        urllib.request.Request(
            client.base_url + "/jobs",
            data=json.dumps(request).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        ),
        timeout=10,
    )


@contextmanager
def serving(service):
    """``service`` behind a daemon on a free port; yields a client and the
    server's thread, and shuts the daemon down on exit."""
    server = build_server(port=0, service=service)
    thread = threading.Thread(target=run_server, args=(server,), daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{server.server_address[1]}")
    try:
        yield client, thread
    finally:
        try:
            client.shutdown()
        except ServeError:
            pass  # already shut down by the test
        thread.join(timeout=30)
        client.close()
    assert not thread.is_alive()


@pytest.fixture
def endpoint():
    """A client of a fresh two-worker daemon on a free port."""
    with serving(SweepService(workers=2)) as (client, _):
        yield client
