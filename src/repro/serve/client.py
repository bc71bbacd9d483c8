"""Minimal stdlib HTTP client for the sweep service.

Used by ``repro.tools submit`` and the test/CI smoke flows; speaks the
JSON API of :mod:`repro.serve.daemon` with no third-party dependencies.
Each thread keeps one ``http.client`` connection to the daemon open
between requests, and :meth:`ServeClient.wait` long-polls the job
instead of polling it on a timer.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Optional

from repro.errors import ReproError


class ServeError(ReproError):
    """The daemon refused or failed a request (admission, bad job, ...)."""


class ServeClient:
    """One daemon endpoint, e.g. ``ServeClient("http://127.0.0.1:8351")``.

    Usable from several threads; close it (or use it as a context
    manager) to drop its connections.
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        try:
            url = urllib.parse.urlsplit(self.base_url)
            self._host, self._port = url.hostname, url.port
        except ValueError as exc:  # a port that is not a number
            raise ServeError(f"bad daemon URL {base_url!r}: {exc}") from exc
        if url.scheme != "http" or not self._host:
            raise ServeError(f"not an http:// URL: {base_url!r}")
        self._prefix = url.path
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Every thread's connection, for :meth:`close`.
        self._connections: list[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close every connection; a later request opens a new one."""
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection (``http.client`` sets TCP_NODELAY)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.connection = connection
            with self._lock:
                self._connections.append(connection)
        return connection

    def _exchange(self, method, path, body, headers, retry):
        connection = self._connection()
        # A kept-alive connection the daemon has closed (idle timeout, an
        # error answer) fails before any response byte arrives: reopen it
        # once.  A fresh connection's failure is final.
        reused = retry and connection.sock is not None
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
        except ConnectionError:
            connection.close()
            if not reused:
                raise
            return self._exchange(method, path, body, headers, retry=False)
        return response.status, response.read()

    def _request(
        self, path: str, payload: Optional[dict] = None, raw: bool = False
    ):
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        method = "GET" if payload is None else "POST"
        try:
            status, data = self._exchange(
                method, self._prefix + path, body, headers, retry=True
            )
        except (OSError, http.client.HTTPException) as exc:
            self._connection().close()
            raise ServeError(
                f"cannot reach daemon at {self.base_url}: {exc}"
            ) from exc
        if status >= 400:
            try:
                answer = json.loads(data)
            except ValueError:
                answer = {}
            raise ServeError(
                answer.get("rejected")
                or answer.get("error")
                or f"HTTP {status} from {path}"
            )
        if raw:
            return data
        return json.loads(data)

    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("/health")

    def stats(self) -> dict:
        return self._request("/stats")

    def submit(self, request: dict) -> str:
        """Submit a job; returns its id (raises :class:`ServeError` on
        admission rejection)."""
        answer = self._request("/jobs", payload=request)
        if "rejected" in answer:
            raise ServeError(answer["rejected"])
        return answer["id"]

    def job(self, job_id: str) -> dict:
        return self._request(f"/jobs/{job_id}")

    def trace(self, job_id: str, offset: int = 0) -> bytes:
        return self._request(f"/jobs/{job_id}/trace?offset={offset}", raw=True)

    def wait(
        self,
        job_id: str,
        poll_interval: float = 0.1,
        timeout: Optional[float] = None,
    ) -> dict:
        """Wait until the job is final; returns its final state.

        Each request asks the daemon to hold its answer until the job is
        final (``?wait=``), for at most half the socket timeout, so a job
        that finishes within that costs one request.  ``poll_interval``
        only paces a re-request after a non-final answer that came before
        the wait ran out, as from a daemon that ignores ``wait``.

        Raises :class:`ServeError` on job failure/rejection or when
        ``timeout`` elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            hold = self.timeout / 2
            if deadline is not None:
                hold = max(0.0, min(hold, deadline - time.monotonic()))
            asked = time.monotonic()
            state = self._request(f"/jobs/{job_id}?wait={hold:.3f}")
            status = state.get("status")
            if status == "done":
                return state
            if status in ("failed", "rejected"):
                raise ServeError(
                    state.get("error") or f"job {job_id} {status}"
                )
            answered = time.monotonic()
            if deadline is not None and answered > deadline:
                raise ServeError(f"timed out waiting for job {job_id}")
            if answered - asked < hold:
                time.sleep(poll_interval)

    def shutdown(self) -> dict:
        return self._request("/shutdown", payload={})
