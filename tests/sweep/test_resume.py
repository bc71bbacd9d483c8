"""Crash-safe resume: interrupted-then-resumed runs equal uninterrupted ones.

The acceptance gate of the durable-session work: a journaled sweep killed
at an *arbitrary* byte offset of its journal and then resumed must produce
a byte-identical reduced network and an identical sweep signature to a run
that was never interrupted — for any worker count.
"""

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.strategies import factory, make_generator
from repro.io.blif import blif_text
from repro.obs import Tracer
from repro.runtime import VerdictJournal, sweep_signature
from repro.sat.tseitin import po_miter
from repro.sweep import SweepConfig, SweepEngine, check_equivalence
from repro.sweep.reduce import reduce_network
from repro.transforms.rewrite import rewrite
from tests.conftest import random_network
from tests.sweep.test_parallel import merge_projection


def workload_network():
    """Two copies of a random circuit over shared PIs (real SAT work)."""
    base = random_network(seed=3, num_inputs=5, num_gates=25)
    return po_miter(base, base)


def journaled_sweep(net, journal_path, jobs=1, resume=False):
    journal = VerdictJournal(journal_path, resume=resume, fsync=False)
    config = SweepConfig(seed=11, jobs=jobs, journal=journal)
    generator = make_generator("RandS", net, seed=11)
    try:
        return SweepEngine(net, generator, config).run()
    finally:
        journal.close()


def reduced_bytes(net, result):
    reduced, _ = reduce_network(net, result.equivalences)
    return blif_text(reduced)


class TestResumeIdentity:
    def test_full_journal_replays_with_zero_solving(self, tmp_path):
        net = workload_network()
        path = tmp_path / "j.jsonl"
        baseline = journaled_sweep(net, path)
        resumed = journaled_sweep(net, path, resume=True)
        assert sweep_signature(net, resumed) == sweep_signature(net, baseline)
        assert reduced_bytes(net, resumed) == reduced_bytes(net, baseline)
        # Everything came from the journal: zero SAT wall time.
        assert resumed.metrics.sat_time == 0.0

    def test_journaled_run_matches_plain_run(self, tmp_path):
        """Query-pure journaled mode merges exactly what the default
        incremental mode merges (the trajectory projection is shared)."""
        net = workload_network()
        plain = SweepEngine(
            net, make_generator("RandS", net, seed=11), SweepConfig(seed=11)
        ).run()
        journaled = journaled_sweep(net, tmp_path / "j.jsonl")
        assert merge_projection(journaled) == merge_projection(plain)

    @pytest.mark.parametrize("jobs,seeds", [(1, 30), (4, 6)])
    def test_kill_at_random_offset_then_resume_is_identical(
        self, tmp_path, jobs, seeds
    ):
        """Simulated crash at every kind of journal offset: resuming from
        the torn prefix reproduces the uninterrupted run bit-for-bit."""
        net = workload_network()
        base_path = tmp_path / "base.jsonl"
        baseline = journaled_sweep(net, base_path, jobs=jobs)
        base_sig = sweep_signature(net, baseline)
        base_blif = reduced_bytes(net, baseline)
        intact = base_path.read_bytes()
        assert len(intact) > 100, "workload must journal real verdicts"
        for seed in range(seeds):
            offset = random.Random(seed).randrange(len(intact))
            path = tmp_path / f"crash{jobs}_{seed}.jsonl"
            path.write_bytes(intact[:offset])
            resumed = journaled_sweep(net, path, jobs=jobs, resume=True)
            assert sweep_signature(net, resumed) == base_sig, (jobs, seed)
            assert reduced_bytes(net, resumed) == base_blif, (jobs, seed)

    def test_journal_recorded_at_jobs4_replays_at_jobs1(self, tmp_path):
        net = workload_network()
        path = tmp_path / "j4.jsonl"
        baseline = journaled_sweep(net, path, jobs=4)
        resumed = journaled_sweep(net, path, jobs=1, resume=True)
        assert sweep_signature(net, resumed) == sweep_signature(net, baseline)
        assert reduced_bytes(net, resumed) == reduced_bytes(net, baseline)


class TestCliCrashResume:
    def test_sigkilled_sweep_resumes_to_identical_network(self, tmp_path):
        """End-to-end crash drill through the CLI: SIGKILL the coordinator
        while it is journaling, resume, byte-compare the reduced network."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")

        def tools(*argv, **kwargs):
            return subprocess.run(
                [sys.executable, "-m", "repro.tools", *argv],
                cwd=tmp_path, env=env, capture_output=True, **kwargs
            )

        assert tools("gen", "cordic", "-o", "net.blif").returncode == 0
        baseline = tools(
            "sweep", "net.blif", "-o", "base.blif",
            "--journal", "base.jsonl", "--seed", "1",
        )
        assert baseline.returncode == 0, baseline.stderr

        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "sweep", "net.blif",
             "-o", "crash.blif", "--journal", "crash.jsonl", "--seed", "1"],
            cwd=tmp_path, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        journal = tmp_path / "crash.jsonl"
        deadline = time.monotonic() + 60
        # Kill once verdicts are flowing (mid-run if we catch it; a clean
        # exit first just means the resume below replays everything).
        while time.monotonic() < deadline and victim.poll() is None:
            if journal.exists() and journal.stat().st_size > 2000:
                victim.send_signal(signal.SIGKILL)
                break
            time.sleep(0.001)
        victim.wait(timeout=60)
        assert not (tmp_path / "crash.blif").exists() or victim.returncode == 0

        resumed = tools(
            "sweep", "net.blif", "-o", "crash.blif",
            "--journal", "crash.jsonl", "--resume", "--seed", "1",
        )
        assert resumed.returncode == 0, resumed.stderr
        assert (tmp_path / "crash.blif").read_bytes() == (
            tmp_path / "base.blif"
        ).read_bytes()


class TestCrossBackendResume:
    """A journal is keyed by trajectory, not by kernel implementation.

    The batch and reference SimGen generators produce bit-identical
    trajectories, so a journal recorded under one must replay under the
    other.  (The fingerprint's generator label once kept the ``Batch``
    prefix, so journals written under the *default* backend refused to
    resume under the reference one.)
    """

    def backend_sweep(self, net, journal_path, backend, resume=False):
        journal = VerdictJournal(journal_path, resume=resume, fsync=False)
        config = SweepConfig(seed=11, journal=journal)
        generator = make_generator(
            "RandS", net, seed=11, backend=backend
        )
        try:
            return SweepEngine(net, generator, config).run()
        finally:
            journal.close()

    @pytest.mark.parametrize("resume_backend", ["reference"])
    def test_batch_journal_replays_under_other_backends(
        self, tmp_path, resume_backend
    ):
        net = workload_network()
        path = tmp_path / "j.jsonl"
        baseline = self.backend_sweep(net, path, "compiled")
        resumed = self.backend_sweep(
            net, path, resume_backend, resume=True
        )
        assert sweep_signature(net, resumed) == sweep_signature(net, baseline)
        assert reduced_bytes(net, resumed) == reduced_bytes(net, baseline)
        assert resumed.metrics.sat_time == 0.0


class TestJournaledCec:
    """CEC's fallback miters ride the journal like sweep pairs: resuming a
    journaled CEC replays every one of them and returns the same result."""

    @staticmethod
    def cec(golden, revised, journal_path, jobs, resume=False):
        records = []
        journal = VerdictJournal(journal_path, resume=resume, fsync=False)
        config = SweepConfig(
            seed=7, jobs=jobs, journal=journal, tracer=Tracer(records, meta={})
        )
        try:
            result = check_equivalence(
                golden, revised, generator_factory=factory("RandS"),
                config=config,
            )
        finally:
            journal.close()
        counters = [r for r in records if r["type"] == "counters"][-1]
        return result, counters["values"], journal.stats

    @staticmethod
    def projection(result):
        vector = result.counterexample
        return (
            result.verdict,
            result.outputs,
            None if vector is None else vector.values,
            result.metrics.sat_calls,
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("verdict", ["different", "equivalent"])
    def test_resume_replays_fallback_miters(self, tmp_path, verdict, jobs):
        if verdict == "different":
            golden = random_network(seed=5, num_inputs=5, num_gates=20)
            revised = random_network(seed=6, num_inputs=5, num_gates=20)
        else:
            golden = random_network(seed=2, num_inputs=6, num_gates=30)
            revised = rewrite(golden, seed=2)
        path = tmp_path / "cec.jsonl"
        first, counters, stats = self.cec(golden, revised, path, jobs)
        assert first.verdict == verdict
        assert counters.get("cec.fallback_calls", 0) > 0
        assert stats["appends"] > 0
        resumed, _, stats = self.cec(golden, revised, path, jobs, resume=True)
        assert stats["appends"] == 0
        assert self.projection(resumed) == self.projection(first)
