"""The repro.tools command-line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.io import bench_text, blif_text, read_bench, read_blif
from repro.sweep.cec import union_network
from repro.tools.cli import load_network, main, save_network
from repro.transforms.rewrite import rewrite
from tests.conftest import networks_equal, random_network


@pytest.fixture
def blif_file(tmp_path):
    net = random_network(seed=3, num_inputs=5, num_gates=14)
    path = tmp_path / "design.blif"
    path.write_text(blif_text(net), encoding="utf-8")
    return net, path


def _cli_env() -> dict:
    """The environment for running ``python -m repro.tools`` from this
    checkout in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[1] / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestLoadSave:
    def test_roundtrip_blif(self, tmp_path):
        net = random_network(seed=1)
        path = tmp_path / "x.blif"
        save_network(net, str(path))
        assert networks_equal(net, load_network(str(path)))

    def test_roundtrip_bench(self, tmp_path):
        net = random_network(seed=1)
        path = tmp_path / "x.bench"
        save_network(net, str(path))
        assert networks_equal(net, load_network(str(path)))

    def test_unknown_extension(self, tmp_path):
        net = random_network(seed=1)
        with pytest.raises(Exception):
            save_network(net, str(tmp_path / "x.v"))


class TestCommands:
    def test_stats(self, blif_file, capsys):
        net, path = blif_file
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        # Parsing reconstructs only the PO cones, so compare against the
        # re-loaded network rather than the in-memory original.
        loaded = load_network(str(path))
        assert f"gates  : {loaded.num_gates}" in out
        assert f"PIs    : {len(net.pis)}" in out

    def test_map_writes_functionally_equal_netlist(self, blif_file, tmp_path):
        net, path = blif_file
        out_path = tmp_path / "mapped.bench"
        assert main(["map", str(path), "-o", str(out_path), "-k", "4"]) == 0
        mapped = read_bench(out_path)
        assert networks_equal(net, mapped)
        assert all(n.num_fanins <= 4 for n in mapped.gates())

    def test_strash(self, blif_file, tmp_path):
        net, path = blif_file
        out_path = tmp_path / "hashed.blif"
        assert main(["strash", str(path), "-o", str(out_path)]) == 0
        assert networks_equal(net, read_blif(out_path))

    def test_sweep_with_reduction(self, blif_file, tmp_path, capsys):
        net, path = blif_file
        out_path = tmp_path / "reduced.blif"
        code = main(
            ["sweep", str(path), "-o", str(out_path), "--iterations", "3"]
        )
        assert code == 0
        assert "SAT calls" in capsys.readouterr().out
        assert networks_equal(net, read_blif(out_path))

    def test_sweep_parallel_jobs(self, blif_file, tmp_path, capsys):
        net, path = blif_file
        out_path = tmp_path / "reduced.blif"
        code = main(
            [
                "sweep", str(path), "-o", str(out_path),
                "--iterations", "3", "--jobs", "2",
            ]
        )
        assert code == 0
        assert "SAT calls" in capsys.readouterr().out
        assert networks_equal(net, read_blif(out_path))

    def test_cec_parallel_jobs(self, blif_file, tmp_path, capsys):
        net, path = blif_file
        other = tmp_path / "copy.blif"
        other.write_text(blif_text(net), encoding="utf-8")
        code = main(
            ["cec", str(path), str(other), "--iterations", "3", "--jobs", "2"]
        )
        assert code == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_cec_equivalent(self, blif_file, tmp_path, capsys):
        net, path = blif_file
        other = tmp_path / "copy.blif"
        other.write_text(blif_text(net), encoding="utf-8")
        code = main(["cec", str(path), str(other), "--iterations", "3"])
        assert code == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_cec_different_returns_nonzero(self, blif_file, tmp_path, capsys):
        net, path = blif_file
        mutated, _ = net.map_clone()
        victim = next(n for n in mutated.gates() if n.num_fanins == 2)
        victim.table = ~victim.table
        if networks_equal(net, mutated):
            pytest.skip("mutation unobservable")
        other = tmp_path / "bad.blif"
        other.write_text(blif_text(mutated), encoding="utf-8")
        code = main(["cec", str(path), str(other), "--iterations", "3"])
        assert code == 1
        assert "DIFFERENT" in capsys.readouterr().out

    def test_putontop(self, blif_file, tmp_path):
        net, path = blif_file
        out_path = tmp_path / "tower.blif"
        assert main(["putontop", str(path), "-o", str(out_path), "-n", "2"]) == 0
        tower = read_blif(out_path)
        loaded = load_network(str(path))
        assert tower.num_gates >= 2 * loaded.num_gates
        assert len(tower.pos) == len(net.pos)

    def test_gen_benchmark(self, tmp_path):
        out_path = tmp_path / "alu4.bench"
        assert main(["gen", "alu4", "-o", str(out_path)]) == 0
        assert read_bench(out_path).num_gates > 0

    def test_error_path(self, tmp_path, capsys):
        missing = tmp_path / "missing.v"
        missing.write_text("", encoding="utf-8")
        assert main(["stats", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.bench"
        out = tmp_path / "out.bench"
        assert main(["sweep", str(missing), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: cannot read {missing}: No such file or directory"
        ]

    def test_unwritable_output_is_one_error_line(self, blif_file, tmp_path):
        """An ``-o`` path in a missing directory ends the run with one
        ``error:`` line naming that path, exit status 2 and no traceback."""
        _, path = blif_file
        out = tmp_path / "no_such_dir" / "out.bench"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools", "sweep", str(path), "-o", str(out)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_cli_env(),
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: cannot write {out}: No such file or directory"
        ]
        assert not out.parent.exists()

    def test_unbuildable_k_is_one_error_line(self, blif_file, tmp_path):
        """A LUT wider than a truth table can hold is refused before any
        mapping work: one ``error:`` line naming the range, exit 2."""
        _, path = blif_file
        out = tmp_path / "mapped.bench"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools", "map", str(path), "-k", "17",
             "-o", str(out)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_cli_env(),
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ["error: k must be in [1, 16], got 17"]
        assert not out.exists()

    def test_closed_stdout_pipe_exits_quietly(self, blif_file, tmp_path):
        """A reader that is gone before the summary is printed (as in
        ``sweep ... | head -0``) ends the run with exit status 1 and no
        traceback."""
        _, path = blif_file
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro.tools", "sweep", str(path),
                    "-o", str(tmp_path / "out.blif"),
                ],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=_cli_env(),
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


class TestReferencePaths:
    def test_python_cores_sweep_byte_identically(self, tmp_path):
        """The CI smoke "C cores == reference paths" in small:
        ``REPRO_CCORES=python`` runs every layer's reference path, and the
        reduced network and the summary (timings stripped) must not
        change."""
        # A circuit next to a rewritten copy: guided vectors split classes,
        # SAT proves most pairs and disproves a few.
        base = random_network(seed=4, num_gates=80)
        union, _ = union_network(base, rewrite(base, seed=4, intensity=0.5))
        instance = tmp_path / "inst.bench"
        instance.write_text(bench_text(union), encoding="utf-8")
        runs = []
        for cores in (None, "python"):
            env = _cli_env()
            env.pop("REPRO_CCORES", None)
            if cores is not None:
                env["REPRO_CCORES"] = cores
            out = tmp_path / f"reduced_{cores}.bench"
            proc = subprocess.run(
                [sys.executable, "-m", "repro.tools", "sweep", str(instance),
                 "--iterations", "3", "-o", str(out)],
                capture_output=True,
                env=env,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            summary = [
                re.sub(r" gen .*", "", line.replace(str(out), "OUT"))
                for line in proc.stdout.splitlines()
            ]
            runs.append((out.read_bytes(), summary))
        assert runs[0] == runs[1]
        assert "SAT calls" in runs[0][1][0]


class TestAagSupport:
    def test_roundtrip_aag(self, tmp_path):
        net = random_network(seed=2)
        path = tmp_path / "x.aag"
        save_network(net, str(path))
        assert networks_equal(net, load_network(str(path)))

    def test_map_from_aag(self, tmp_path):
        net = random_network(seed=2)
        src = tmp_path / "in.aag"
        dst = tmp_path / "out.blif"
        save_network(net, str(src))
        assert main(["map", str(src), "-o", str(dst), "-k", "6"]) == 0
        assert networks_equal(net, load_network(str(dst)))


class TestConvertAndSim:
    def test_convert_blif_to_aag(self, blif_file, tmp_path, capsys):
        net, path = blif_file
        out_path = tmp_path / "out.aag"
        assert main(["convert", str(path), "-o", str(out_path)]) == 0
        assert networks_equal(net, load_network(str(out_path)))

    def test_convert_bench_to_blif(self, tmp_path):
        net = random_network(seed=6)
        src = tmp_path / "in.bench"
        save_network(net, str(src))
        dst = tmp_path / "out.blif"
        assert main(["convert", str(src), "-o", str(dst)]) == 0
        assert networks_equal(net, load_network(str(dst)))

    def test_sim_reports_quality(self, blif_file, capsys):
        net, path = blif_file
        assert main(["sim", str(path), "--patterns", "64"]) == 0
        out = capsys.readouterr().out
        assert "toggle rate" in out
        assert "patterns          : 64" in out


class TestTraceCommand:
    def test_sweep_trace_validates_and_summarizes(
        self, blif_file, tmp_path, capsys
    ):
        _, path = blif_file
        trace_path = tmp_path / "sweep.jsonl"
        assert main(["sweep", str(path), "--trace", str(trace_path)]) == 0
        assert trace_path.exists()
        assert main(["trace", str(trace_path), "--validate"]) == 0
        assert "trace OK" in capsys.readouterr().out
        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "per-phase attribution" in out
        assert "command=sweep" in out

    def test_cec_trace_validates(self, blif_file, tmp_path, capsys):
        _, path = blif_file
        trace_path = tmp_path / "cec.jsonl"
        assert main(
            ["cec", str(path), str(path), "--trace", str(trace_path)]
        ) == 0
        assert main(["trace", str(trace_path), "--validate"]) == 0

    def test_trace_validate_rejects_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type":"event","name":"x","t":0.0,"i":0}\n')
        assert main(["trace", str(bad), "--validate"]) == 1
        assert "invalid:" in capsys.readouterr().err

    def test_trace_missing_file_errors(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestResumeGuards:
    """``--resume`` misuse fails fast with a one-line error, exit 2."""

    def test_sweep_resume_without_journal(self, blif_file, capsys):
        _, path = blif_file
        assert main(["sweep", str(path), "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: --resume requires --journal FILE"

    def test_cec_resume_without_journal(self, blif_file, capsys):
        _, path = blif_file
        assert main(["cec", str(path), str(path), "--resume"]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: --resume requires --journal FILE"

    def test_resume_with_mismatched_fingerprint(
        self, blif_file, tmp_path, capsys
    ):
        _, path = blif_file
        journal = tmp_path / "j.jsonl"
        assert main(
            ["sweep", str(path), "--journal", str(journal),
             "--iterations", "2"]
        ) == 0
        capsys.readouterr()
        # Different seed => different config fingerprint: refuse cleanly.
        code = main(
            ["sweep", str(path), "--journal", str(journal), "--resume",
             "--iterations", "2", "--seed", "5"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "different sweep configuration" in err

    def test_existing_journal_without_resume_refused(
        self, blif_file, tmp_path, capsys
    ):
        _, path = blif_file
        journal = tmp_path / "j.jsonl"
        assert main(
            ["sweep", str(path), "--journal", str(journal),
             "--iterations", "2"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["sweep", str(path), "--journal", str(journal),
             "--iterations", "2"]
        ) == 2
        err = capsys.readouterr().err
        assert "already exists" in err
        assert "--resume" in err
