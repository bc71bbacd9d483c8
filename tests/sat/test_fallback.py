"""Graceful degradation of the compiled SAT core.

A missing compiler or a corrupt cached ``.so`` must never take the run
down: the "compiled" backend falls back to the reference
:class:`~repro.sat.solver.CdclSolver` with a one-time warning (and
repairs a damaged cache by rebuilding it once).  The fallback gives
identical results at 30-50x fewer propagations per second than the C
core.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro.runtime.cbuild as cbuild
import repro.sat.compiled as compiled


@pytest.fixture
def clean_warn_flag(monkeypatch):
    monkeypatch.setattr(compiled._LOADER, "_warned", False)
    monkeypatch.delenv("REPRO_CCORES", raising=False)


class TestCompilerMissing:
    def test_no_compiler_warns_once_and_falls_back(
        self, monkeypatch, clean_warn_flag
    ):
        monkeypatch.setattr(cbuild.shutil, "which", lambda name: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert compiled._load_satcore() is None
            assert compiled._load_satcore() is None  # second call: silent
        fallback = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(fallback) == 1
        assert "falling back" in str(fallback[0].message)
        assert "reference solver" in str(fallback[0].message)

    def test_explicit_python_opt_out_is_silent(
        self, monkeypatch, clean_warn_flag
    ):
        monkeypatch.setenv("REPRO_CCORES", "python")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert compiled._load_satcore() is None
        assert not [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]


class TestPythonOptOut:
    def test_compiled_backend_is_the_reference_solver(self):
        """``REPRO_CCORES=python`` binds "compiled" to ``CdclSolver``, and
        the one variable turns the other two C cores off as well."""
        env = dict(os.environ, REPRO_CCORES="python")
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src"
        ) + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "from repro.sat.compiled import SAT_CORE, solver_class\n"
            "from repro.sat.solver import CdclSolver\n"
            "from repro.core.batch import SIMGEN_CORE\n"
            "from repro.simulation.compiled import SIM_CORE\n"
            "print(SAT_CORE, solver_class('compiled') is CdclSolver,\n"
            "      SIMGEN_CORE, SIM_CORE)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["python", "True", "python", "python"]


@pytest.mark.skipif(
    compiled.SAT_CORE != "c", reason="needs a working C toolchain"
)
class TestCorruptCache:
    def test_corrupt_cached_library_is_rebuilt_once(
        self, monkeypatch, tmp_path, clean_warn_flag
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        lib_path = compiled._build_library()
        assert lib_path is not None and lib_path.startswith(str(tmp_path))
        with open(lib_path, "wb") as handle:
            handle.write(b"\x7fELF not really a shared object\n")
        assert compiled._try_load(lib_path) is None, "corruption must bite"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lib = compiled._load_satcore()
        assert lib is not None, "rebuild should recover the compiled core"
        # The repaired cache loads directly again.
        assert compiled._try_load(lib_path) is not None
        assert not [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]

    def test_unrecoverable_cache_warns_and_falls_back(
        self, monkeypatch, tmp_path, clean_warn_flag
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        lib_path = compiled._build_library()
        assert lib_path is not None
        with open(lib_path, "wb") as handle:
            handle.write(b"junk")
        # Rebuilding "succeeds" but yields the same broken bits: the loader
        # must give up with one warning instead of looping.
        monkeypatch.setattr(compiled._LOADER, "_try_load", lambda path: None)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert compiled._load_satcore() is None
        fallback = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(fallback) == 1
        assert "corrupt" in str(fallback[0].message)
