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
      GET  /jobs/<id>       job status / result (``?wait=S`` holds the
                            answer until the job is final, at most
                            ``min(S, MAX_WAIT)`` seconds)
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
import shutil
import sys
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
    "jobs": 1,
    "timeout": None,
    "escalate": False,
}


#: Config field -> (the types its decoded JSON value may have, their name).
_CONFIG_TYPES = {
    "seed": ((int,), "an integer"),
    "iterations": ((int,), "an integer"),
    "patterns": ((int,), "an integer"),
    "strategy": ((str,), "a string"),
    "jobs": ((int,), "an integer"),
    "timeout": ((int, float, type(None)), "a number or null"),
    "escalate": ((bool,), "a boolean"),
}

#: The most SAT worker processes one job may ask for.  Each worker is a
#: forked process with its own queue, so without a ceiling any client
#: could make the daemon fork as many processes as it names.
MAX_JOBS = 64

#: The longest ``GET /jobs/<id>?wait=S`` holds its answer back, in seconds.
MAX_WAIT = 20.0

#: Seconds a kept-alive connection may sit idle between requests before
#: the daemon closes it, so no client can pin a handler thread forever.
IDLE_TIMEOUT = 60.0

#: Config field -> (lowest, highest, the rule in words) for values that
#: have the right type; a null ``timeout`` means no deadline.  The
#: largest float as ``timeout``'s ceiling refuses infinity, and NaN fails
#: every comparison.
_CONFIG_RANGES = {
    "iterations": (0, float("inf"), ">= 0"),
    "patterns": (0, float("inf"), ">= 0"),
    "jobs": (1, MAX_JOBS, f"from 1 to {MAX_JOBS}"),
    "timeout": (0, sys.float_info.max, "finite and >= 0"),
}

_FORMATS = {"bench": (parse_bench, bench_text), "blif": (parse_blif, blif_text)}


def _job_options(config) -> tuple[Optional[dict], Optional[str]]:
    """A request's ``config`` over :data:`CONFIG_DEFAULTS`, or ``None`` and
    the reason the config is refused (not an object, an unknown field, a
    value of the wrong type, or one out of range)."""
    if config is None:
        config = {}
    if not isinstance(config, dict):
        return None, "'config' must be a JSON object"
    unknown = set(config) - set(CONFIG_DEFAULTS)
    if unknown:
        return None, f"unknown config fields {sorted(unknown)!r}"
    for name, value in config.items():
        types, expected = _CONFIG_TYPES[name]
        # bool is a subclass of int, but JSON true and false are no numbers.
        is_bool = isinstance(value, bool)
        if is_bool != (bool in types) or not isinstance(value, types):
            return None, f"config field {name!r} must be {expected}: {value!r}"
        if name in _CONFIG_RANGES and value is not None:
            low, high, rule = _CONFIG_RANGES[name]
            if not low <= value <= high:
                return None, f"config field {name!r} must be {rule}: {value!r}"
    return {**CONFIG_DEFAULTS, **config}, None


class Job:
    """One submitted job and its lifecycle state."""

    __slots__ = (
        "id",
        "client",
        "kind",
        "request",
        "options",
        "status",
        "result",
        "error",
        "trace_path",
        "finished",
    )

    def __init__(
        self, job_id: str, client: str, kind: str, request: dict, options: dict
    ):
        self.id = job_id
        self.client = client
        self.kind = kind
        self.request = request
        #: :data:`CONFIG_DEFAULTS` overlaid with the request's config.
        self.options = options
        self.status = "queued"
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        self.trace_path: Optional[str] = None
        #: Set once the job is final: done, failed or rejected.
        self.finished = threading.Event()

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
    """Thread-pooled job runner over a shared verdict/artifact cache.

    Job traces go to ``spool_dir``; without one the service makes a
    ``repro-serve-*`` temporary directory for the first traced job and
    removes it, traces and all, at :meth:`shutdown`.  A caller's
    ``spool_dir`` is never removed.
    """

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
        #: The trace directory: the caller's, or the service's own once a
        #: traced job needs one (:meth:`_spool_dir`).
        self._spool = spool_dir
        self._own_spool = False
        if spool_dir is not None:
            os.makedirs(spool_dir, exist_ok=True)
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._seq = 0
        #: The front end's HTTP traffic, listed in ``/stats``.
        self._http = {
            name: self.registry.counter(f"serve.http.{name}")
            for name in ("requests", "connections")
        }
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
        """Stop accepting jobs; optionally drain running ones.

        Once no worker runs any more, a spool directory the service made
        itself is removed (so are the job traces in it).
        """
        self._stopping = True
        self.queue.close()
        if wait:
            for thread in self._threads:
                if thread.is_alive():
                    thread.join(timeout=60)
        self.cache.close()
        with self._lock:
            remove = self._own_spool and not any(
                t.is_alive() for t in self._threads
            )
        if remove:
            shutil.rmtree(self._spool, ignore_errors=True)

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Submission + queries
    # ------------------------------------------------------------------
    def submit(self, request: dict) -> dict:
        """Validate and enqueue a job; returns ``{"id": ...}`` or a
        rejection ``{"rejected": reason}``.  A request that fails
        validation is refused without an id; a valid job that admission
        refuses (over-budget client, stopping daemon) keeps its id."""
        kind = request.get("kind", "sweep")
        if kind not in ("sweep", "cec"):
            return {"rejected": f"unknown job kind {kind!r}"}
        fmt = request.get("format", "bench")
        if not isinstance(fmt, str) or fmt not in _FORMATS:
            return {"rejected": f"unknown netlist format {fmt!r}"}
        if not isinstance(request.get("netlist"), str):
            return {"rejected": "request needs a 'netlist' text field"}
        if kind == "cec" and not isinstance(request.get("revised"), str):
            return {"rejected": "cec jobs need a 'revised' netlist field"}
        options, reason = _job_options(request.get("config"))
        if reason is not None:
            return {"rejected": reason}
        client = str(request.get("client", "anonymous"))
        with self._lock:
            job_id = f"j{self._seq:06d}"
            self._seq += 1
        job = Job(job_id, client, kind, request, options)
        with self._lock:
            if request.get("trace") and not self._stopping:
                job.trace_path = os.path.join(
                    self._spool_dir(), f"{job_id}.trace.jsonl"
                )
            self._jobs[job_id] = job
        if not self.queue.submit(client, job):
            job.status = "rejected"
            job.error = "client pending budget exhausted or daemon stopping"
            job.finished.set()
            return {"rejected": job.error, "id": job_id}
        return {"id": job_id}

    def _spool_dir(self) -> str:
        """The trace directory, made on first use when the caller gave
        none (call with the lock held)."""
        if self._spool is None:
            self._spool = tempfile.mkdtemp(prefix="repro-serve-")
            self._own_spool = True
        return self._spool

    def job(self, job_id: str, wait: float = 0.0) -> Optional[Job]:
        """The job, or ``None`` for an unknown id.  With ``wait``, first
        block until the job is final or ``min(wait, MAX_WAIT)`` seconds
        have passed."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None and wait > 0:
            job.finished.wait(min(wait, MAX_WAIT))
        return job

    def count_http(self, name: str) -> None:
        """Count one HTTP ``requests`` or ``connections`` event."""
        with self._lock:
            self._http[name].inc()

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
        with self._lock:
            counts: dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
        self.registry.inc_many("cache.verdict", self.cache.consume_stats())
        return {
            "jobs": counts,
            "queue_depth": self.queue.depth,
            "admission": self.queue.stats.as_dict(),
            "cache": {"verdict": self.cache.stats},
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
                job.finished.set()

    def _job_config(self, job: Job, tracer, session) -> SweepConfig:
        options = job.options
        timeout = options["timeout"]
        clamp = self.queue.budget_for(job.client).max_job_seconds
        if clamp is not None:
            timeout = clamp if timeout is None else min(timeout, clamp)
        return SweepConfig(
            seed=options["seed"],
            iterations=options["iterations"],
            random_width=options["patterns"],
            budget=None if timeout is None else Budget(seconds=timeout),
            max_escalations=2 if options["escalate"] else 0,
            jobs=options["jobs"],
            tracer=tracer,
            journal=session,
        )

    def _execute(self, job: Job) -> dict:
        parse, render = _FORMATS[job.request.get("format", "bench")]
        tracer = None
        if job.trace_path is not None:
            tracer = Tracer(
                job.trace_path,
                meta={"job": job.id, "kind": job.kind, "client": job.client},
            )
        session = self.cache.session()
        try:
            if job.kind == "sweep":
                result = self._run_sweep(job, parse, render, tracer, session)
            else:
                result = self._run_cec(job, parse, tracer, session)
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

    def _run_sweep(self, job, parse, render, tracer, session):
        network = parse(job.request["netlist"])
        generator = make_generator(
            job.options["strategy"], network, seed=job.options["seed"]
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
            "sweep_signature": sweep_signature(
                network, result, session.signatures
            ),
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

    def _run_cec(self, job, parse, tracer, session):
        golden = parse(job.request["netlist"])
        revised = parse(job.request["revised"])
        config = self._job_config(job, tracer, session)
        result = check_equivalence(
            golden,
            revised,
            generator_factory=factory(job.options["strategy"]),
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
def _query(query: str) -> dict[str, str]:
    """``name=value&...`` as a dict; a repeated name keeps its last value."""
    return dict(pair.partition("=")[::2] for pair in query.split("&"))


def _wait_seconds(value: str) -> float:
    """A ``wait`` query value as seconds: 0 (answer at once) unless it is
    a number >= 0."""
    try:
        seconds = float(value)
    except ValueError:
        return 0.0
    return seconds if seconds >= 0 else 0.0  # NaN fails the test too


class _Handler(BaseHTTPRequestHandler):
    """One connection: HTTP/1.1, kept alive between requests."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # A response goes out as two writes (headers, body); with Nagle's
    # algorithm on, the body waits for the client's delayed ACK of the
    # headers, about 40 ms on every request of a kept-alive connection.
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the daemon's stdout is for the operator, not per-request spam

    def setup(self) -> None:
        super().setup()
        self._service.count_http("connections")

    def parse_request(self) -> bool:
        self._service.count_http("requests")
        return super().parse_request()

    # -- helpers -------------------------------------------------------
    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send(body, "application/json", status)

    def _send_text(self, body: bytes, status: int = 200) -> None:
        self._send(body, "application/jsonl", status)

    def _send(self, body: bytes, content_type: str, status: int) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # Tell the client, so it does not send its next request here.
            self.send_header("Connection", "close")
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
            params = _query(query)
            if len(parts) == 4 and parts[3] == "trace":
                offset = params.get("offset", "")
                body = self._service.trace_bytes(
                    job_id, int(offset) if offset.isdigit() else 0
                )
                if body is None:
                    self._send_json({"error": "no trace"}, status=404)
                else:
                    self._send_text(body)
                return
            job = self._service.job(
                job_id, wait=_wait_seconds(params.get("wait", ""))
            )
            if job is None:
                self._send_json({"error": "unknown job"}, status=404)
            else:
                self._send_json(job.describe())
            return
        self._send_json({"error": "unknown path"}, status=404)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/shutdown":
            self.close_connection = True
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
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            # The body's end is unknown: answer, then drop the connection.
            self.close_connection = True
            self._send_json({"error": "bad Content-Length"}, status=400)
            return
        try:
            request = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            self._send_json({"error": "bad JSON body"}, status=400)
            return
        if not isinstance(request, dict):
            self._send_json(
                {"error": "the body must be a JSON object"}, status=400
            )
            return
        answer = self._service.submit(request)
        if "rejected" not in answer:
            status = 202
        elif "id" in answer:
            status = 429  # admission refused a valid job: retry later
        else:
            status = 400  # the request itself is malformed
        self._send_json(answer, status=status)


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
