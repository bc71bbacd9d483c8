"""SweepService end-to-end: replay identity, delta reuse, validation.

The acceptance gates of the serving PR live here:

* a re-submitted identical netlist completes with **zero SAT solving**
  (full verdict-cache replay) and a byte-identical result;
* a lightly edited netlist re-solves only pairs whose cone signatures
  changed, and its result is byte-identical to a cold run — at
  ``jobs=1`` and ``jobs=4``.
"""

import tempfile

import pytest

from repro.serve import ClientBudget, SweepService
from repro.serve.daemon import CONFIG_DEFAULTS, MAX_JOBS, _job_options
from tests.serve.conftest import miter_text, run_job


def sweep_request(text, **config):
    return {"kind": "sweep", "netlist": text, "config": config}


def result_of(job):
    assert job.status == "done", f"{job.status}: {job.error}"
    return job.result


class TestReplayIdentity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_identical_resubmission_is_zero_sat_replay(self, jobs):
        text = miter_text()
        with SweepService(workers=1) as svc:
            cold = result_of(run_job(svc, sweep_request(text, jobs=jobs)))
            warm = result_of(run_job(svc, sweep_request(text, jobs=jobs)))
        assert cold["cache"]["appends"] > 0
        assert cold["cache"]["hits"] < cold["cache"]["appends"] + cold["cache"]["hits"]
        # Full replay: no fresh verdicts, zero SAT wall time anywhere.
        assert warm["cache"]["appends"] == 0
        assert warm["cache"]["misses"] == 0
        assert warm["metrics"]["sat_time"] == 0.0
        # Byte-identical outcome.
        assert warm["netlist"] == cold["netlist"]
        assert warm["sweep_signature"] == cold["sweep_signature"]
        assert warm["metrics"]["sat_calls"] == cold["metrics"]["sat_calls"]

    def test_worker_count_never_changes_bytes(self):
        text = miter_text()
        with SweepService(workers=1) as serial_svc:
            serial = result_of(run_job(serial_svc, sweep_request(text, jobs=1)))
        with SweepService(workers=2) as pooled_svc:
            pooled = result_of(run_job(pooled_svc, sweep_request(text, jobs=4)))
        assert pooled["netlist"] == serial["netlist"]
        assert pooled["sweep_signature"] == serial["sweep_signature"]


class TestDeltaReuse:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_edited_netlist_solves_only_the_delta(self, jobs):
        original = miter_text()
        edited = miter_text(mutate=2)  # one inverted gate in each copy
        assert edited != original
        # Cold baseline for the edited design, on a fresh cache.
        with SweepService(workers=1) as cold_svc:
            cold = result_of(
                run_job(cold_svc, sweep_request(edited, jobs=jobs))
            )
        # Warm: sweep the original first, then submit the edit.
        with SweepService(workers=1) as warm_svc:
            first = result_of(
                run_job(warm_svc, sweep_request(original, jobs=jobs))
            )
            second = result_of(
                run_job(warm_svc, sweep_request(edited, jobs=jobs))
            )
        # Untouched cones replay from the first job's verdicts...
        assert second["cache"]["hits"] > 0
        # ...only signatures changed by the edit are solved fresh...
        assert 0 < second["cache"]["appends"] < first["cache"]["appends"]
        # ...and cache state never leaks into the result bytes.
        assert second["netlist"] == cold["netlist"]
        assert second["sweep_signature"] == cold["sweep_signature"]


class TestCecJobs:
    def test_equivalent_pair(self, service):
        text = miter_text(num_gates=20)
        job = run_job(
            service,
            {"kind": "cec", "netlist": text, "revised": text},
        )
        result = result_of(job)
        assert result["verdict"] == "equivalent"
        assert result["equivalent"] is True
        assert result["counterexample"] is None

    def test_different_pair_reports_counterexample(self, service):
        job = run_job(
            service,
            {
                "kind": "cec",
                "netlist": miter_text(num_gates=20),
                "revised": miter_text(num_gates=20, mutate=0),
            },
        )
        result = result_of(job)
        if result["verdict"] == "different":
            assert result["counterexample"]
            assert all(bit in (0, 1) for _, bit in result["counterexample"])
        else:  # the mutation may be unobservable through the miter POs
            assert result["verdict"] == "equivalent"


class TestValidationAndBudgets:
    def test_unknown_kind_rejected(self, service):
        assert "rejected" in service.submit({"kind": "frobnicate"})

    def test_missing_netlist_rejected(self, service):
        assert "rejected" in service.submit({"kind": "sweep"})

    def test_unknown_config_field_rejected(self, service):
        answer = service.submit(
            {"kind": "sweep", "netlist": "x", "config": {"warp": 9}}
        )
        assert "warp" in answer["rejected"]

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"seed": "abc"}, "seed"),
            ({"seed": True}, "seed"),
            ({"iterations": 2.5}, "iterations"),
            ({"patterns": None}, "patterns"),
            ({"jobs": "2"}, "jobs"),
            ({"timeout": "5"}, "timeout"),
            ({"timeout": False}, "timeout"),
            ({"escalate": 1}, "escalate"),
            ({"strategy": 5}, "strategy"),
        ],
    )
    def test_wrongly_typed_config_rejected(self, service, config, field):
        answer = service.submit(
            {"kind": "sweep", "netlist": "x", "config": config}
        )
        assert f"config field {field!r} must be" in answer["rejected"]
        assert "id" not in answer

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"timeout": -1}, "timeout"),
            ({"timeout": -0.5}, "timeout"),
            ({"timeout": float("nan")}, "timeout"),
            ({"timeout": float("inf")}, "timeout"),
            ({"timeout": 10**400}, "timeout"),
            ({"jobs": 0}, "jobs"),
            ({"jobs": -3}, "jobs"),
            ({"jobs": MAX_JOBS + 1}, "jobs"),
            ({"jobs": 100000}, "jobs"),
            ({"iterations": -1}, "iterations"),
            ({"patterns": -1}, "patterns"),
        ],
    )
    def test_out_of_range_config_rejected(self, service, config, field):
        # Refused at submit, with no id: no job exists, no worker starts.
        answer = service.submit(
            {"kind": "sweep", "netlist": "x", "config": config}
        )
        assert f"config field {field!r} must be" in answer["rejected"]
        assert "id" not in answer
        assert service.stats()["jobs"] == {}

    @pytest.mark.parametrize(
        "config",
        [
            {"timeout": 0},
            {"timeout": None},
            {"jobs": 1},
            {"jobs": MAX_JOBS},
            {"iterations": 0, "patterns": 0},
        ],
    )
    def test_range_edges_accepted(self, config):
        # Checked on the options alone: a job of MAX_JOBS workers is
        # never run here.
        options, reason = _job_options(config)
        assert reason is None
        assert options == {**CONFIG_DEFAULTS, **config}

    @pytest.mark.parametrize("config", [5, [], "seed", True])
    def test_non_object_config_rejected(self, service, config):
        answer = service.submit(
            {"kind": "sweep", "netlist": "x", "config": config}
        )
        assert answer == {"rejected": "'config' must be a JSON object"}

    @pytest.mark.parametrize("key", ["simgen_backend", "sat_backend"])
    def test_backend_keys_are_unknown(self, service, key):
        answer = service.submit(
            {"kind": "sweep", "netlist": "x", "config": {key: "reference"}}
        )
        assert key in answer["rejected"]

    def test_unhashable_format_rejected(self, service):
        answer = service.submit({"kind": "sweep", "netlist": "x", "format": []})
        assert "unknown netlist format" in answer["rejected"]

    def test_options_fill_defaults_once(self, service):
        text = miter_text(num_gates=15)
        job = run_job(
            service, sweep_request(text, seed=3, timeout=5, escalate=True)
        )
        assert job.options == {
            **CONFIG_DEFAULTS, "seed": 3, "timeout": 5, "escalate": True
        }
        result_of(job)

    def test_cec_needs_revised(self, service):
        assert "rejected" in service.submit(
            {"kind": "cec", "netlist": miter_text(num_gates=15)}
        )

    def test_pending_budget_rejects(self):
        svc = SweepService(
            workers=1, default_budget=ClientBudget(max_pending=0)
        )
        try:
            answer = svc.submit(
                {"kind": "sweep", "netlist": miter_text(num_gates=15)}
            )
            assert "rejected" in answer
            # The refused job is still queryable, marked rejected.
            assert svc.job(answer["id"]).status == "rejected"
        finally:
            svc.shutdown()

    def test_bad_netlist_fails_job(self, service):
        job = run_job(
            service, {"kind": "sweep", "netlist": "INPUT(\nnot a netlist"}
        )
        assert job.status == "failed"
        assert job.error

    def test_max_job_seconds_clamps_deadline(self):
        with SweepService(
            workers=1,
            default_budget=ClientBudget(max_job_seconds=0.000001),
        ) as svc:
            job = run_job(
                svc, {"kind": "sweep", "netlist": miter_text(num_gates=25)}
            )
            result = result_of(job)
            assert result["metrics"]["deadline_expired"] is True


class TestDeepNetlists:
    def test_chain_deeper_than_the_recursion_limit_completes(self, service):
        """5,000 inverters in a chain: parsing, sweeping, reduction and the
        cache's signatures all run without recursion, and the MFFC depths
        of AI+DC+MFFC take one pass, not one walk per node.  The deadline
        keeps the SAT phase short; each job still ends ``done``."""
        chain = "\n".join(
            ["INPUT(g0)", "OUTPUT(g5000)"]
            + [f"g{i + 1} = NOT(g{i})" for i in range(5000)]
        )
        for strategy in ("AI+DC", "AI+DC+MFFC"):
            request = sweep_request(chain, strategy=strategy, timeout=0.5)
            result = result_of(run_job(service, request))
            assert result["gates_before"] == 5000
            assert result["netlist"].count("LUT") == result["gates_after"]


class TestSpool:
    def test_own_spool_is_removed_and_a_callers_survives(
        self, tmp_path, monkeypatch
    ):
        """A service without ``spool_dir`` leaves no ``repro-serve-*``
        directory behind; a caller's directory, and its traces, stay."""
        private = tmp_path / "tmp"
        private.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(private))
        request = {"kind": "sweep", "netlist": miter_text(), "trace": True}
        svc = SweepService(workers=1).start()
        job = run_job(svc, request)
        assert [p.name[:12] for p in private.iterdir()] == ["repro-serve-"]
        assert svc.trace_bytes(job.id)
        svc.shutdown()
        assert list(private.iterdir()) == []

        callers = tmp_path / "spool"
        svc = SweepService(workers=1, spool_dir=str(callers)).start()
        job = run_job(svc, request)
        svc.shutdown()
        assert (callers / f"{job.id}.trace.jsonl").stat().st_size > 0
        assert list(private.iterdir()) == []


class TestObservability:
    def test_trace_records_stream(self, service):
        job = run_job(
            service,
            {
                "kind": "sweep",
                "netlist": miter_text(num_gates=20),
                "trace": True,
            },
        )
        result_of(job)
        body = service.trace_bytes(job.id)
        assert body and body.count(b"\n") > 2
        # Offset reads support incremental streaming.
        tail = service.trace_bytes(job.id, offset=len(body) - 5)
        assert tail == body[-5:]

    def test_stats_surfaces_every_cache_layer(self, service):
        run_job(service, sweep_request(miter_text(num_gates=20)))
        stats = service.stats()
        assert stats["jobs"]["done"] == 1
        assert list(stats["cache"]) == ["verdict"]
        assert stats["cache"]["verdict"]["inserts"] > 0
        # Verdict-cache traffic folds into the shared metrics registry.
        assert stats["registry"].get("cache.verdict.inserts", 0) > 0


class TestHashing:
    def test_served_sweep_hashes_the_network_once(self, node_signature_calls):
        """The cache session's bind and the result's sweep signature share
        one ``node_signatures`` map."""
        with SweepService(workers=1) as svc:
            result_of(run_job(svc, sweep_request(miter_text())))
        assert len(node_signature_calls) == 1
