"""Waiting on a job by long-poll, over one kept-alive connection."""

import sys
import threading
import time

import pytest

from repro.serve import ServeClient, ServeError, SweepService, daemon
from tests.serve.conftest import miter_text, serving


def gated_service(gate):
    """A service whose jobs run until ``gate`` is set."""
    service = SweepService(workers=1)

    def execute(job):
        gate.wait(30)
        return {"kind": "sweep"}

    service._execute = execute
    return service


@pytest.fixture
def gated():
    """A daemon whose jobs run until the test sets the gate."""
    gate = threading.Event()
    with serving(gated_service(gate)) as (client, _):
        yield client, gate
        gate.set()


def timed(request, *args):
    """``request(*args)``'s answer (or the ServeError it raised) and the
    seconds it took."""
    started = time.monotonic()
    try:
        answer = request(*args)
    except ServeError as exc:
        answer = exc
    return answer, time.monotonic() - started


def registry(client):
    return client.stats()["registry"]


class TestLongPoll:
    def test_answers_when_the_job_finishes(self, gated):
        client, gate = gated
        job_id = client.submit({"netlist": "x"})
        threading.Timer(0.3, gate.set).start()
        state, seconds = timed(client._request, f"/jobs/{job_id}?wait=10")
        assert state["status"] == "done"
        assert seconds < 5

    def test_wait_is_capped(self, gated, monkeypatch):
        monkeypatch.setattr(daemon, "MAX_WAIT", 0.3)
        client, _ = gated
        job_id = client.submit({"netlist": "x"})
        state, seconds = timed(client._request, f"/jobs/{job_id}?wait=30")
        assert state["status"] in ("queued", "running")
        assert 0.25 < seconds < 5

    @pytest.mark.parametrize(
        "query",
        ["", "?wait=", "?wait=abc", "?wait=-1", "?wait=nan", "?a=1&wait=1e"],
    )
    def test_no_or_malformed_wait_answers_at_once(self, gated, query):
        client, _ = gated
        job_id = client.submit({"netlist": "x"})
        state, seconds = timed(client._request, f"/jobs/{job_id}{query}")
        assert state["status"] in ("queued", "running")
        assert seconds < 1

    def test_final_job_answers_at_once(self, gated):
        client, gate = gated
        gate.set()
        job_id = client.submit({"netlist": "x"})
        client.wait(job_id, timeout=10)
        state, seconds = timed(client._request, f"/jobs/{job_id}?wait=10")
        assert state["status"] == "done"
        assert seconds < 1

    def test_unknown_job_answers_at_once(self, gated):
        client, _ = gated
        error, seconds = timed(client._request, "/jobs/j999999?wait=5")
        assert isinstance(error, ServeError)
        assert "unknown job" in str(error)
        assert seconds < 1

    def test_outstanding_long_poll_returns_within_the_drain(self):
        gate = threading.Event()
        with serving(gated_service(gate)) as (client, thread):
            job_id = client.submit({"netlist": "x"})
            answers = []
            poller = threading.Thread(
                target=lambda: answers.append(
                    timed(client._request, f"/jobs/{job_id}?wait=15")
                )
            )
            poller.start()
            # Once the daemon has accepted the poller's connection, its
            # handler serves the long-poll whatever the listener does.
            deadline = time.monotonic() + 10
            while registry(client)["serve.http.connections"] < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            client.shutdown()
            gate.set()  # the drain runs the job to its end
            thread.join(timeout=10)
            poller.join(timeout=5)
            assert not thread.is_alive()
            assert not poller.is_alive()
        ((state, seconds),) = answers
        assert state["status"] == "done"
        assert seconds < 5

    def test_waited_job_costs_one_status_request(self, endpoint):
        before = registry(endpoint)["serve.http.requests"]
        job_id = endpoint.submit({"netlist": miter_text(num_gates=20)})
        endpoint.wait(job_id, 0.005, timeout=60)
        # The submit, one long-poll, and the stats request that reads this.
        assert registry(endpoint)["serve.http.requests"] - before == 3

    def test_poll_interval_paces_a_daemon_that_ignores_wait(
        self, gated, monkeypatch
    ):
        monkeypatch.setattr(daemon, "_wait_seconds", lambda value: 0.0)
        client, gate = gated
        job_id = client.submit({"netlist": "x"})
        threading.Timer(0.5, gate.set).start()
        before = registry(client)["serve.http.requests"]
        assert client.wait(job_id, 0.05, timeout=10)["status"] == "done"
        polls = registry(client)["serve.http.requests"] - before - 1
        assert 2 <= polls <= 30

    def test_wait_times_out(self, gated):
        client, _ = gated
        job_id = client.submit({"netlist": "x"})
        error, seconds = timed(client.wait, job_id, 0.05, 0.3)
        assert "timed out" in str(error)
        assert seconds < 3


class TestConnections:
    def test_one_clients_requests_share_one_connection(self, endpoint):
        endpoint.health()
        job_id = endpoint.submit({"netlist": miter_text(num_gates=20)})
        endpoint.wait(job_id, timeout=60)
        endpoint.job(job_id)
        counts = registry(endpoint)
        assert counts["serve.http.connections"] == 1
        assert counts["serve.http.requests"] == 5

    def test_next_request_after_the_daemon_drops_the_connection(
        self, endpoint
    ):
        endpoint.health()
        connection = endpoint._connection()
        connection.putrequest("POST", "/jobs")
        connection.putheader("Content-Length", "-1")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert response.getheader("Connection") == "close"
        response.read()
        # The daemon closed that connection; the next request opens another.
        assert endpoint.health() == {"ok": True}
        assert registry(endpoint)["serve.http.connections"] == 2

    def test_reconnects_after_an_idle_timeout(self, endpoint, monkeypatch):
        """The daemon closes an idle connection without a word; the
        client's next request on it fails before any response byte, and
        the client sends it again on a fresh connection."""
        monkeypatch.setattr(daemon._Handler, "timeout", 0.2)
        endpoint.health()
        time.sleep(0.6)
        assert endpoint.health() == {"ok": True}
        assert registry(endpoint)["serve.http.connections"] == 2

    def test_fifty_requests_on_one_connection_take_under_a_second(
        self, endpoint
    ):
        """With Nagle's algorithm on, each response's body waits for the
        delayed ACK of its headers: 2 s or more for these 50."""
        endpoint.health()
        started = time.monotonic()
        for _ in range(50):
            endpoint.health()
        assert time.monotonic() - started < 1
        assert registry(endpoint)["serve.http.connections"] == 1

    def test_threads_keep_their_own_connections(self, endpoint):
        """Eight threads share one client, with thread switches forced
        often: each keeps one connection, and the daemon's counters lose
        no request."""
        def work():
            for _ in range(25):
                endpoint.health()

        threads = [threading.Thread(target=work) for _ in range(8)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        counts = registry(endpoint)  # from this thread: one more of each
        assert counts["serve.http.connections"] == 8 + 1
        assert counts["serve.http.requests"] == 8 * 25 + 1

    def test_close_drops_the_connection(self, endpoint):
        with ServeClient(endpoint.base_url) as client:
            client.health()
        # Closed: the next request opens a second connection.
        assert registry(client)["serve.http.connections"] == 2
        client.close()

    def test_counters_are_listed_before_any_traffic(self):
        stats = SweepService(workers=1).stats()["registry"]
        assert stats["serve.http.requests"] == 0
        assert stats["serve.http.connections"] == 0

    @pytest.mark.parametrize(
        "url", ["127.0.0.1:8351", "https://127.0.0.1:1", "http://h:port"]
    )
    def test_url_that_is_not_http_is_refused(self, url):
        with pytest.raises(ServeError, match="URL"):
            ServeClient(url)
