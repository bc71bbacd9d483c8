"""The JSON-over-HTTP front end and its stdlib client."""

import json
import time
import urllib.request

import pytest

from repro.serve import ClientBudget, ServeClient, ServeError, SweepService
from tests.serve.conftest import miter_text, post_job, serving


class TestRoutes:
    def test_health(self, endpoint):
        assert endpoint.health() == {"ok": True}

    def test_submit_wait_fetch(self, endpoint):
        text = miter_text(num_gates=25)
        job_id = endpoint.submit(
            {"kind": "sweep", "netlist": text, "trace": True}
        )
        state = endpoint.wait(job_id, timeout=120)
        result = state["result"]
        assert result["gates_after"] <= result["gates_before"]
        assert result["netlist"].strip()
        # Same submission again: served from the daemon's verdict cache.
        second = endpoint.wait(
            endpoint.submit({"kind": "sweep", "netlist": text}), timeout=120
        )
        assert second["result"]["netlist"] == result["netlist"]
        assert second["result"]["cache"]["appends"] == 0
        assert second["result"]["metrics"]["sat_time"] == 0.0

    def test_trace_endpoint_with_offset(self, endpoint):
        job_id = endpoint.submit(
            {"kind": "sweep", "netlist": miter_text(num_gates=20), "trace": True}
        )
        endpoint.wait(job_id, timeout=120)
        body = endpoint.trace(job_id)
        assert body.count(b"\n") > 2
        assert endpoint.trace(job_id, offset=len(body) - 7) == body[-7:]

    def test_stats_route(self, endpoint):
        stats = endpoint.stats()
        assert "cache" in stats
        assert "admission" in stats

    def test_unknown_job_404(self, endpoint):
        with pytest.raises(ServeError, match="unknown job"):
            endpoint.job("j999999")

    def test_unknown_path_404(self, endpoint):
        with pytest.raises(ServeError, match="unknown path"):
            endpoint._request("/nope")

    def test_malformed_submission_is_400(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_job(endpoint, {"kind": "frobnicate", "netlist": "x"})
        assert excinfo.value.code == 400
        answer = json.loads(excinfo.value.read())
        assert "kind" in answer["rejected"]
        assert "id" not in answer

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"timeout": -1}, "timeout"),
            # json.dumps writes NaN, which the daemon's json.loads accepts.
            ({"timeout": float("nan")}, "timeout"),
            ({"jobs": 100000}, "jobs"),
        ],
    )
    def test_out_of_range_config_is_400(self, endpoint, config, field):
        # Refused at submit: no job is created, so no worker starts.
        request = {"kind": "sweep", "netlist": "x", "config": config}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_job(endpoint, request)
        assert excinfo.value.code == 400
        answer = json.loads(excinfo.value.read())
        assert f"{field!r} must be" in answer["rejected"]
        assert endpoint.stats()["jobs"] == {}

    def test_bad_json_body_is_400(self, endpoint):
        request = urllib.request.Request(
            endpoint.base_url + "/jobs", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "bad JSON" in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize("body", [b"[]", b"5", b'"sweep"', b"null"])
    def test_non_object_body_is_400(self, endpoint, body):
        request = urllib.request.Request(
            endpoint.base_url + "/jobs", data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "JSON object" in json.loads(excinfo.value.read())["error"]
        assert endpoint.health() == {"ok": True}

    @pytest.mark.parametrize(
        "config, reason",
        [
            (5, "'config' must be a JSON object"),
            ([], "'config' must be a JSON object"),
            ({"seed": "abc"}, "'seed' must be an integer"),
            ({"simgen_backend": "batch"}, "unknown config fields"),
        ],
    )
    def test_malformed_config_is_answered(self, endpoint, config, reason):
        with pytest.raises(ServeError, match=reason):
            endpoint.submit(
                {"kind": "sweep", "netlist": "x", "config": config}
            )
        assert endpoint.health() == {"ok": True}

    def test_bad_content_length_is_400(self, endpoint):
        import http.client

        host, port = endpoint.base_url.split("//")[1].split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_failed_job_surfaces_error(self, endpoint):
        job_id = endpoint.submit({"kind": "sweep", "netlist": "garbage("})
        with pytest.raises(ServeError):
            endpoint.wait(job_id, timeout=60)

    def test_unreachable_daemon(self):
        client = ServeClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServeError, match="cannot reach"):
            client.health()


class TestAdmission:
    def test_over_budget_submission_is_429(self):
        budget = ClientBudget(max_pending=0)
        with serving(SweepService(workers=1, default_budget=budget)) as (
            client,
            _,
        ):
            request = {"kind": "sweep", "netlist": miter_text(num_gates=15)}
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_job(client, request)
            assert excinfo.value.code == 429
            answer = json.loads(excinfo.value.read())
            assert "budget" in answer["rejected"]
            assert client.job(answer["id"])["status"] == "rejected"
            # Final at submission: a long-poll on it answers at once.
            started = time.monotonic()
            state = client._request(f"/jobs/{answer['id']}?wait=5")
            assert state["status"] == "rejected"
            assert time.monotonic() - started < 1


class TestShutdown:
    def test_shutdown_route_stops_server(self):
        with serving(SweepService(workers=1)) as (client, thread):
            assert client.shutdown() == {"stopping": True}
            thread.join(timeout=30)
            assert not thread.is_alive()
