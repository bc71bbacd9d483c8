"""Crash-safe file writes (temp file + fsync + ``os.replace``).

Result artifacts — reduced networks, experiment JSON, CEC verdict
reports — must never be observable half-written: a reader (or a resumed
session) that finds the file at all must find a complete one.
The standard recipe used here:

1. write the full payload to a temp file *in the destination directory*
   (same filesystem, so the final rename is atomic);
2. flush and ``fsync`` the temp file so the bytes are durable before the
   rename makes them visible;
3. ``os.replace`` onto the destination (atomic on POSIX and Windows);
4. best-effort ``fsync`` of the directory so the rename itself survives a
   power cut.

A crash at any point leaves either the old file or the new file — never a
mix — plus at worst a stray ``*.tmp`` file.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Union

PathLike = Union[str, "os.PathLike[str]"]


def _fsync_directory(directory: str) -> None:
    """Best-effort directory fsync (not supported on every platform)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: PathLike, text: str, encoding: str = "utf-8"
) -> None:
    """Atomically replace ``path`` with ``text`` (durable before visible)."""
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(directory)


def atomic_write_json(
    path: PathLike, payload: Any, indent: int = 2
) -> None:
    """Atomically replace ``path`` with ``payload`` as indented JSON."""
    atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")
