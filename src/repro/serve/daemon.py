"""The sweep service: a long-lived daemon running jobs over a shared cache.

Two layers:

* :class:`SweepService` — the embeddable core.  A thread pool pulls jobs
  from an :class:`~repro.serve.admission.AdmissionQueue` (fair FIFO with
  aging, per-client pending budgets) and runs each one through the
  existing engines — :class:`~repro.sweep.engine.SweepEngine` for sweep
  jobs, :func:`~repro.sweep.cec.check_equivalence` for CEC jobs — with a
  :class:`~repro.serve.cache.CacheSession` plugged in as the run's
  verdict journal.  Every job therefore runs query-pure and replays any
  verdict the daemon has proven before (for this or any other client)
  whose cone signatures and configuration fingerprint match.

* :func:`build_server` / :func:`run_server` — a JSON-over-HTTP front end
  (stdlib ``ThreadingHTTPServer``; no new dependencies) exposing::

      POST /jobs            submit a job (netlist text + config)
      GET  /jobs/<id>       job status / result
      GET  /jobs/<id>/trace per-job ``repro.obs`` JSONL trace (supports
                            ``?offset=`` so clients can stream increments)
      GET  /stats           cache / admission / registry snapshot
      GET  /health          liveness probe
      POST /shutdown        graceful stop (drains running jobs)

Determinism contract: a job's result is byte-identical to the same
command-line run cold — cache hits replay through the same paths PR 7
proved byte-identical for ``--resume``, and execution shape (workers,
concurrency, cache state) never leaks into verdicts.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.core import factory, make_generator
from repro.errors import ReproError
from repro.io import bench_text, blif_text, parse_bench, parse_blif
from repro.obs import MetricsRegistry, Tracer
from repro.runtime.budget import Budget
from repro.runtime.journal import sweep_signature
from repro.serve.admission import AdmissionQueue, ClientBudget
from repro.serve.cache import VerdictCache
from repro.sweep import SweepConfig, SweepEngine, check_equivalence
from repro.sweep.reduce import reduce_network

#: Configuration fields a job request may set, with CLI-matching defaults
#: (a daemon job and the equivalent ``repro.tools`` invocation must
#: produce byte-identical results).
CONFIG_DEFAULTS = {
    "seed": 0,
    "iterations": 20,
    "patterns": 8,
    "strategy": "AI+DC+MFFC",
    "simgen_backend": "batch",
    "sat_backend": "compiled",
    "jobs": 1,
    "timeout": None,
    "escalate": False,
}

_FORMATS = {"bench": (parse_bench, bench_text), "blif": (parse_blif, blif_text)}


class Job:
    """One submitted job and its lifecycle state."""

    __slots__ = (
        "id",
        "client",
        "kind",
        "request",
        "status",
        "result",
        "error",
        "trace_path",
    )

    def __init__(self, job_id: str, client: str, kind: str, request: dict):
        self.id = job_id
        self.client = client
        self.kind = kind
        self.request = request
        self.status = "queued"
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        self.trace_path: Optional[str] = None

    def describe(self) -> dict:
        payload = {
            "id": self.id,
            "client": self.client,
            "kind": self.kind,
            "status": self.status,
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        payload["trace"] = self.trace_path is not None
        return payload


class SweepService:
    """Thread-pooled job runner over a shared verdict/artifact cache."""

    def __init__(
        self,
        workers: int = 2,
        cache: Optional[VerdictCache] = None,
        registry: Optional[MetricsRegistry] = None,
        spool_dir: Optional[str] = None,
        default_budget: Optional[ClientBudget] = None,
    ):
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.cache = cache if cache is not None else VerdictCache()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.queue = AdmissionQueue(default_budget=default_budget)
        self._spool = spool_dir or tempfile.mkdtemp(prefix="repro-serve-")
        os.makedirs(self._spool, exist_ok=True)
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._seq = 0
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        self._started = False
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SweepService":
        if not self._started:
            self._started = True
            for thread in self._threads:
                thread.start()
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs; optionally drain running ones."""
        self._stopping = True
        self.queue.close()
        if wait:
            for thread in self._threads:
                if thread.is_alive():
                    thread.join(timeout=60)
        self.cache.close()

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Submission + queries
    # ------------------------------------------------------------------
    def submit(self, request: dict) -> dict:
        """Validate and enqueue a job; returns ``{"id": ...}`` or a
        rejection ``{"rejected": reason}`` (over-budget client, bad
        request, stopping daemon)."""
        kind = request.get("kind", "sweep")
        if kind not in ("sweep", "cec"):
            return {"rejected": f"unknown job kind {kind!r}"}
        fmt = request.get("format", "bench")
        if fmt not in _FORMATS:
            return {"rejected": f"unknown netlist format {fmt!r}"}
        if not isinstance(request.get("netlist"), str):
            return {"rejected": "request needs a 'netlist' text field"}
        if kind == "cec" and not isinstance(request.get("revised"), str):
            return {"rejected": "cec jobs need a 'revised' netlist field"}
        config = request.get("config") or {}
        unknown = set(config) - set(CONFIG_DEFAULTS)
        if unknown:
            return {
                "rejected": f"unknown config fields {sorted(unknown)!r}"
            }
        client = str(request.get("client", "anonymous"))
        with self._lock:
            job_id = f"j{self._seq:06d}"
            self._seq += 1
        job = Job(job_id, client, kind, request)
        if request.get("trace"):
            job.trace_path = os.path.join(
                self._spool, f"{job_id}.trace.jsonl"
            )
        with self._lock:
            self._jobs[job_id] = job
        if not self.queue.submit(client, job):
            job.status = "rejected"
            job.error = "client pending budget exhausted or daemon stopping"
            return {"rejected": job.error, "id": job_id}
        return {"id": job_id}

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def trace_bytes(self, job_id: str, offset: int = 0) -> Optional[bytes]:
        job = self.job(job_id)
        if job is None or job.trace_path is None:
            return None
        try:
            with open(job.trace_path, "rb") as handle:
                handle.seek(max(0, offset))
                return handle.read()
        except OSError:
            return b""

    def stats(self) -> dict:
        """Cache / admission / job-count snapshot (also folds cache
        deltas into the registry under ``cache.verdict.*``)."""
        from repro.core.compiled import transition_cache_info

        with self._lock:
            counts: dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
        self.registry.inc_many("cache.verdict", self.cache.consume_stats())
        return {
            "jobs": counts,
            "queue_depth": self.queue.depth,
            "admission": self.queue.stats.as_dict(),
            "cache": {
                "verdict": self.cache.stats,
                "transition": transition_cache_info(),
            },
            "registry": self.registry.as_dict(),
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self.queue.pop(timeout=0.5)
            if job is None:
                if self._stopping:
                    return
                continue
            job.status = "running"
            try:
                job.result = self._execute(job)
                job.status = "done"
            except ReproError as exc:
                job.error = str(exc)
                job.status = "failed"
            except Exception:  # pragma: no cover - defensive
                job.error = traceback.format_exc(limit=8)
                job.status = "failed"
            finally:
                self.queue.finish(job.client)

    def _job_config(self, job: Job, tracer, session) -> SweepConfig:
        options = dict(CONFIG_DEFAULTS)
        options.update(job.request.get("config") or {})
        timeout = options["timeout"]
        clamp = self.queue.budget_for(job.client).max_job_seconds
        if clamp is not None:
            timeout = clamp if timeout is None else min(timeout, clamp)
        return SweepConfig(
            seed=int(options["seed"]),
            iterations=int(options["iterations"]),
            random_width=int(options["patterns"]),
            budget=None if timeout is None else Budget(seconds=timeout),
            max_escalations=2 if options["escalate"] else 0,
            jobs=int(options["jobs"]),
            sat_backend=options["sat_backend"],
            tracer=tracer,
            journal=session,
        )

    def _execute(self, job: Job) -> dict:
        parse, render = _FORMATS[job.request.get("format", "bench")]
        options = dict(CONFIG_DEFAULTS)
        options.update(job.request.get("config") or {})
        tracer = None
        if job.trace_path is not None:
            tracer = Tracer(
                job.trace_path,
                meta={"job": job.id, "kind": job.kind, "client": job.client},
            )
        session = self.cache.session()
        try:
            if job.kind == "sweep":
                result = self._run_sweep(
                    job, parse, render, options, tracer, session
                )
            else:
                result = self._run_cec(job, parse, options, tracer, session)
        finally:
            if tracer is not None:
                tracer.close()
        result["cache"] = {
            "hits": session.stats["replayed_verdicts"],
            "misses": session.stats["misses"],
            "appends": session.stats["appends"],
        }
        self.registry.inc_many("cache.verdict", self.cache.consume_stats())
        return result

    def _run_sweep(self, job, parse, render, options, tracer, session):
        network = parse(job.request["netlist"])
        generator = make_generator(
            options["strategy"],
            network,
            seed=int(options["seed"]),
            simgen_backend=options["simgen_backend"],
        )
        config = self._job_config(job, tracer, session)
        engine = SweepEngine(network, generator, config)
        result = engine.run()
        self._merge_registry(engine.registry)
        reduced, stats = reduce_network(network, result.equivalences)
        metrics = result.metrics
        return {
            "kind": "sweep",
            "netlist": render(reduced),
            "format": job.request.get("format", "bench"),
            "gates_before": stats.gates_before,
            "gates_after": stats.gates_after,
            "merged": stats.merged,
            "sweep_signature": sweep_signature(network, result),
            "metrics": {
                "sat_calls": metrics.sat_calls,
                "proven": metrics.proven,
                "disproven": metrics.disproven,
                "unknown": metrics.unknown,
                "sat_time": metrics.sat_time,
                "sim_time": metrics.sim_time,
                "simgen_time": metrics.simgen_time,
                "resim_time": metrics.resim_time,
                "deadline_expired": metrics.deadline_expired,
            },
        }

    def _run_cec(self, job, parse, options, tracer, session):
        golden = parse(job.request["netlist"])
        revised = parse(job.request["revised"])
        config = self._job_config(job, tracer, session)
        result = check_equivalence(
            golden,
            revised,
            generator_factory=factory(
                options["strategy"], simgen_backend=options["simgen_backend"]
            ),
            config=config,
        )
        metrics = result.metrics
        counterexample = None
        if result.counterexample is not None:
            counterexample = sorted(
                (golden.node(pi).label(), int(bit))
                for pi, bit in result.counterexample.values.items()
            )
        return {
            "kind": "cec",
            "verdict": result.verdict,
            "equivalent": result.equivalent,
            "conclusive": result.conclusive,
            "outputs": dict(sorted(result.outputs.items())),
            "counterexample": counterexample,
            "metrics": {
                "sat_calls": metrics.sat_calls,
                "sat_time": metrics.sat_time,
                "deadline_expired": metrics.deadline_expired,
            },
        }

    def _merge_registry(self, job_registry: MetricsRegistry) -> None:
        with self._lock:
            self.registry.merge(job_registry)


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the daemon's stdout is for the operator, not per-request spam

    # -- helpers -------------------------------------------------------
    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, body: bytes, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/jsonl")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    @property
    def _service(self) -> SweepService:
        return self.server.service  # type: ignore[attr-defined]

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path, _, query = self.path.partition("?")
        if path == "/health":
            self._send_json({"ok": True})
            return
        if path == "/stats":
            self._send_json(self._service.stats())
            return
        if path.startswith("/jobs/"):
            parts = path.split("/")
            job_id = parts[2] if len(parts) > 2 else ""
            if len(parts) == 4 and parts[3] == "trace":
                offset = 0
                for pair in query.split("&"):
                    name, _, value = pair.partition("=")
                    if name == "offset" and value.isdigit():
                        offset = int(value)
                body = self._service.trace_bytes(job_id, offset)
                if body is None:
                    self._send_json({"error": "no trace"}, status=404)
                else:
                    self._send_text(body)
                return
            job = self._service.job(job_id)
            if job is None:
                self._send_json({"error": "unknown job"}, status=404)
            else:
                self._send_json(job.describe())
            return
        self._send_json({"error": "unknown path"}, status=404)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/shutdown":
            self._send_json({"stopping": True})
            # Shut down from another thread: this handler must finish its
            # response before the server loop exits.
            threading.Thread(
                target=self.server.shutdown, daemon=True
            ).start()
            return
        if self.path != "/jobs":
            self._send_json({"error": "unknown path"}, status=404)
            return
        length = int(self.headers.get("Content-Length", "0"))
        try:
            request = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            self._send_json({"error": "bad JSON body"}, status=400)
            return
        answer = self._service.submit(request)
        if "rejected" in answer:
            self._send_json(answer, status=429)
        else:
            self._send_json(answer, status=202)


def build_server(
    host: str = "127.0.0.1",
    port: int = 0,
    service: Optional[SweepService] = None,
    **service_kwargs,
) -> ThreadingHTTPServer:
    """An HTTP server wired to a (started) :class:`SweepService`.

    The caller owns the loop: run ``serve_forever()`` (blocking) or drive
    it from a thread in tests; ``server.service`` reaches the core.
    """
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    server.service = (  # type: ignore[attr-defined]
        service if service is not None else SweepService(**service_kwargs)
    )
    server.service.start()
    return server


def run_server(server: ThreadingHTTPServer) -> None:
    """Blocking serve loop with a graceful drain on exit."""
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.service.shutdown(wait=True)  # type: ignore[attr-defined]
        server.server_close()
