"""Build-and-load machinery for optional C accelerator cores.

The four compiled cores in this codebase — the SAT clause arena
(``repro/sat/_satcore.c``), the SimGen lane kernel
(``repro/core/_simgencore.c``), the bit-parallel simulator
(``repro/simulation/_simcore.c``) and the LUT mapper
(``repro/mapping/_mapcore.c``) — follow the same contract: a single
portable C99 source file compiled into a shared object with whatever
system compiler exists when its module is imported, cached by source
hash so the build runs once per machine, loaded through ``ctypes``, and
*optional* — when no compiler or writable cache directory is available
the caller falls back to pure Python with identical trajectories: the
SAT backend to the reference :class:`~repro.sat.solver.CdclSolver`
(30-50x fewer propagations per second), the SimGen batch generator to
the reference engines (about 10x slower generation), the sweep engine's
simulator to the reference
:class:`~repro.simulation.simulator.Simulator`, and
:func:`~repro.mapping.lutmap.map_to_luts` to its Python path (the same
netlists, about 7x slower).  This module is that contract, shared by
every core so each corner case has one implementation:

* **source-hash cache keys** — edits rebuild, stale builds are never
  picked up;
* **atomic installs** — ``os.replace`` of a temp file, so concurrent
  builders (a fork pool importing the module in every worker) race
  benignly: all produce identical bits and the last rename wins;
* **cache-dir ladder** — ``$XDG_CACHE_HOME`` (or ``~/.cache``) first,
  then a per-uid tmpdir, skipping unwritable locations;
* **corrupt-cache recovery** — a cached ``.so`` that no longer loads
  (truncated by a crashed builder, damaged on disk, stale symbol layout)
  is unlinked and rebuilt from source exactly once;
* **one-time fallback warnings** — an *involuntary* fallback changes
  speed, never results, and should be visible exactly once per process;
  silence is reserved for the explicit opt-out;
* **one opt-out for every core** — ``REPRO_CCORES=python``
  (:data:`OPT_OUT_VAR`) runs all four on their pure-Python paths, what a
  host without a C compiler gets;
* **one switch in the library** — a ``backend`` value from
  :data:`BACKENDS` (``SweepConfig.backend``, ``make_generator(backend=)``,
  ``solver_class``): ``"compiled"`` runs each layer's C core where it
  loaded and its reference class where it did not, ``"reference"`` the
  reference classes everywhere.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from typing import Callable, Optional

#: Environment variable whose value ``python`` makes every core fall back
#: silently.
OPT_OUT_VAR = "REPRO_CCORES"

#: The values of every ``backend`` switch.  Both give bit-identical
#: results; only speed differs.
BACKENDS = ("compiled", "reference")


def check_backend(backend: str, error: type[Exception]) -> None:
    """Raise ``error`` unless ``backend`` is one of :data:`BACKENDS`."""
    if backend not in BACKENDS:
        raise error(
            f"unknown backend {backend!r} (use 'compiled' or 'reference')"
        )


def build_shared_library(source_path: str, cache_name: str) -> Optional[str]:
    """Compile one C source into a cached shared object; path or None.

    The cache key is the source hash, so edits rebuild and stale builds
    are never picked up.  ``os.replace`` makes concurrent builders race
    benignly: all produce identical bits and the last rename wins
    atomically.
    """
    try:
        with open(source_path, "rb") as fh:
            source = fh.read()
    except OSError:
        return None
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None
    tag = hashlib.sha256(source).hexdigest()[:20]
    cache_root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    candidates = [os.path.join(cache_root, "repro", cache_name)]
    try:
        uid = os.getuid()
    except AttributeError:  # pragma: no cover - non-POSIX
        uid = 0
    candidates.append(
        os.path.join(tempfile.gettempdir(), f"repro-{cache_name}-{uid}")
    )
    for lib_dir in candidates:
        lib_path = os.path.join(lib_dir, f"{cache_name}-{tag}.so")
        if os.path.exists(lib_path):
            return lib_path
        try:
            os.makedirs(lib_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(suffix=".so.tmp", dir=lib_dir)
            os.close(fd)
        except OSError:
            continue  # cache dir not writable: try the next location
        try:
            proc = subprocess.run(
                [compiler, "-O2", "-std=c99", "-fPIC", "-shared",
                 "-o", tmp_path, source_path],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=300,
            )
        except (OSError, subprocess.SubprocessError):
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            continue
        if proc.returncode != 0:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return None  # the source itself fails: no dir will fix that
        try:
            os.replace(tmp_path, lib_path)
        except OSError:
            continue
        return lib_path
    return None


class CoreLoader:
    """Build, load, and configure one optional C core.

    Args:
        source_path: Absolute path of the C source file.
        cache_name: Cache directory / file stem (e.g. ``"satcore"``).
        configure: Callback that sets ``argtypes``/``restype`` on the
            loaded library; an :class:`AttributeError` from it (missing
            symbol — stale layout) counts as a load failure.
        describe: Human name used in the one-time fallback warning.
        fallback: What runs instead, as named in that warning.
    """

    def __init__(
        self,
        source_path: str,
        cache_name: str,
        configure: Callable[[ctypes.CDLL], None],
        describe: str,
        fallback: str,
    ):
        self.source_path = source_path
        self.cache_name = cache_name
        self.configure = configure
        self.describe = describe
        self.fallback = fallback
        self._warned = False

    def _warn_fallback(self, reason: str) -> None:
        """One-time heads-up that this process runs the pure-Python fallback."""
        if self._warned:
            return
        self._warned = True
        warnings.warn(
            f"{self.describe} unavailable ({reason}); falling back to "
            f"{self.fallback}",
            RuntimeWarning,
            stacklevel=4,
        )

    def _try_load(self, lib_path: str) -> Optional[ctypes.CDLL]:
        try:
            lib = ctypes.CDLL(lib_path)
            self.configure(lib)
        except (OSError, AttributeError):
            return None
        return lib

    def load(self) -> Optional[ctypes.CDLL]:
        """The configured library, or ``None`` (with a one-time warning)."""
        if os.environ.get(OPT_OUT_VAR, "").strip().lower() == "python":
            return None  # explicit opt-out: no warning
        lib_path = build_shared_library(self.source_path, self.cache_name)
        if lib_path is None:
            self._warn_fallback(
                "no usable C compiler or writable cache directory"
            )
            return None
        lib = self._try_load(lib_path)
        if lib is None:
            # A cached .so that no longer loads: discard it and rebuild
            # from source exactly once.
            try:
                os.unlink(lib_path)
            except OSError:
                pass
            rebuilt = build_shared_library(self.source_path, self.cache_name)
            lib = self._try_load(rebuilt) if rebuilt is not None else None
            if lib is None:
                self._warn_fallback(
                    f"cached core {lib_path!r} was corrupt and the rebuild "
                    "attempt did not produce a loadable library"
                )
        return lib
