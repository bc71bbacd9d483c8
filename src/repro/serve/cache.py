"""Signature-keyed verdict/artifact cache shared across service jobs.

The serving layer's production win: equivalence verdicts are *content
addressed*.  :mod:`repro.runtime.journal` already keys every verdict by
the structural signatures of the pair's cones
(:func:`repro.transforms.strash.node_signatures`), and journal-active
runs force query-pure SAT so a verdict — including its counterexample
model and conflict count — is a pure function of cone structure.  That
makes verdicts safely shareable **across jobs and across networks**: a
re-submitted netlist (or a lightly edited one) replays cached verdicts
for every untouched cone and solves only the delta.

Two classes:

* :class:`VerdictCache` — the daemon-wide store.  Thread-safe, bounded
  (LRU by bytes), optionally *journal-backed*: with a ``path`` every
  insert is durably appended using the same CRC-framed line format as
  :class:`~repro.runtime.journal.VerdictJournal` (plus a ``namespace``
  record binding the configuration fingerprint), and a restarted daemon
  reloads its cache warm.

* :class:`CacheSession` — a per-job adapter exposing the
  ``VerdictJournal`` interface (``bind`` / ``lookup`` / ``record`` /
  ``consume_stats``), so :class:`~repro.sweep.engine.SweepEngine` and the
  CEC flow plug into the cache with **zero engine changes**: every pair
  query of a job, sweep or CEC fallback, serial or pooled, goes through
  :meth:`SweepEngine.answer <repro.sweep.engine.SweepEngine.answer>`,
  the same replay path ``--resume`` uses, so replayed verdicts are
  byte-identical to fresh ones.

Cache keys
----------

``(fingerprint, sig_a, sig_b, complemented, limit)`` where
``fingerprint`` is the canonical JSON of the trajectory-determining
config slice (:func:`repro.runtime.journal.config_fingerprint`) and the
signatures come from strash.  Counterexample vectors are stored
positionally (PI-list index), which transfers across networks: a
signature match implies the cone reads the same PI *positions* in any
network that produces it (PI signatures hash their interface position).
A stored vector that does not fit the session's PI list is a miss: the
cache is advisory, so it never replays a counterexample it cannot place.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Optional

from repro.errors import JournalError
from repro.network.network import Network
from repro.runtime.atomicio import _fsync_directory
from repro.runtime.journal import (
    ReplayRecord,
    _encode_line,
    _parse_line,
    decode_vector,
)
from repro.sat.solver import SatResult
from repro.simulation.patterns import InputVector
from repro.transforms.strash import node_signatures

#: Store format version (independent of the per-run journal version).
CACHE_VERSION = 1

#: Default in-memory bound: 64 MiB of encoded verdict lines.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


def fingerprint_key(fingerprint: dict) -> str:
    """Canonical string key of a configuration fingerprint."""
    return json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))


class VerdictCache:
    """Daemon-wide verdict store: thread-safe, byte-bounded, durable.

    Args:
        max_bytes: Eviction threshold over the summed encoded-line sizes
            of resident entries (LRU order; hits re-insert).
        path: Optional backing file.  Existing records are loaded on
            construction (a torn final line — daemon killed mid-append —
            is truncated, like the verdict journal's recovery); every
            later insert is appended.  Appends are *not* fsync'd per
            record: the cache is a performance layer, losing a tail
            costs re-solving, never correctness.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        path: Optional[str] = None,
    ):
        self._lock = threading.Lock()
        self._max_bytes = int(max_bytes)
        #: (fp_key, sig_a, sig_b, complemented, limit) -> payload dict.
        #: Insertion order doubles as LRU order (hits re-insert).
        self._entries: dict[tuple, dict] = {}
        #: Per-entry encoded size, summed into ``bytes``.
        self._sizes: dict[tuple, int] = {}
        self._bytes = 0
        #: fp_key -> namespace id already persisted (durable mode).
        self._namespaces: dict[str, int] = {}
        self._stats = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "inserts": 0,
            "loaded": 0,
        }
        self._folded: dict[str, int] = {}
        self._path = None if path is None else os.fspath(path)
        self._handle = None
        if self._path is not None:
            self._load()
            self._handle = open(self._path, "ab")

    # ------------------------------------------------------------------
    # Durable backing file
    # ------------------------------------------------------------------
    def _load(self) -> None:
        if not os.path.exists(self._path):
            return
        with open(self._path, "rb") as handle:
            data = handle.read()
        offset = 0
        good_end = 0
        torn = False
        ns_fp: dict[int, str] = {}
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline < 0:
                torn = True
                break
            payload = _parse_line(data[offset:newline])
            if payload is None:
                # Unlike a verdict journal, *any* damage just stops the
                # load: the cache is advisory, so the good prefix is kept
                # and the damaged tail dropped.
                torn = True
                break
            offset = newline + 1
            good_end = offset
            kind = payload.get("kind")
            if kind == "header":
                if payload.get("version") != CACHE_VERSION:
                    raise JournalError(
                        f"verdict cache {self._path}: version "
                        f"{payload.get('version')!r} (this build writes "
                        f"{CACHE_VERSION})"
                    )
            elif kind == "namespace":
                fp_key = fingerprint_key(payload["fingerprint"])
                ns_fp[int(payload["id"])] = fp_key
                self._namespaces[fp_key] = int(payload["id"])
            elif kind == "verdict":
                fp_key = ns_fp.get(int(payload.get("ns", -1)))
                if fp_key is None:
                    continue
                # Strip the file framing so a reloaded payload is equal
                # (and equal-sized) to a freshly inserted one.
                payload = {
                    k: v for k, v in payload.items() if k not in ("kind", "ns")
                }
                key = (
                    fp_key,
                    payload["a"],
                    payload["b"],
                    bool(payload["c"]),
                    payload["l"],
                )
                self._insert_locked(key, payload, persist=False)
                self._stats["loaded"] += 1
        if torn:
            with open(self._path, "r+b") as handle:
                handle.truncate(good_end)
        # Counters touched during load are bookkeeping, not traffic.
        self._stats["inserts"] = 0
        self._stats["evictions"] = 0

    def _persist(self, key: tuple, payload: dict) -> None:
        if self._handle is None:
            return
        fp_key = key[0]
        namespace = self._namespaces.get(fp_key)
        if namespace is None:
            namespace = len(self._namespaces)
            self._namespaces[fp_key] = namespace
            if namespace == 0 and self._handle.tell() == 0:
                self._handle.write(
                    _encode_line(
                        {"kind": "header", "version": CACHE_VERSION}
                    )
                )
            self._handle.write(
                _encode_line(
                    {
                        "kind": "namespace",
                        "id": namespace,
                        "fingerprint": json.loads(fp_key),
                    }
                )
            )
        record = dict(payload)
        record["kind"] = "verdict"
        record["ns"] = namespace
        self._handle.write(_encode_line(record))
        self._handle.flush()

    # ------------------------------------------------------------------
    # Store operations (all under the lock)
    # ------------------------------------------------------------------
    def _insert_locked(
        self, key: tuple, payload: dict, persist: bool = True
    ) -> bool:
        if key in self._entries:
            return False
        size = len(_encode_line(payload))
        while self._bytes + size > self._max_bytes and self._entries:
            victim = next(iter(self._entries))
            del self._entries[victim]
            self._bytes -= self._sizes.pop(victim)
            self._stats["evictions"] += 1
        self._entries[key] = payload
        self._sizes[key] = size
        self._bytes += size
        self._stats["inserts"] += 1
        if persist:
            self._persist(key, payload)
        return True

    def get(self, key: tuple) -> Optional[dict]:
        """The stored payload for a full cache key (LRU touch on hit)."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self._stats["misses"] += 1
                return None
            # LRU touch: re-insert so hot entries survive evictions.
            del self._entries[key]
            self._entries[key] = payload
            self._stats["hits"] += 1
            return payload

    def put(self, key: tuple, payload: dict) -> bool:
        """Insert one verdict payload (no-op if the key is resident)."""
        with self._lock:
            return self._insert_locked(key, payload)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Cumulative counters plus occupancy (``bytes`` / ``entries``)."""
        with self._lock:
            stats = dict(self._stats)
            stats["bytes"] = self._bytes
            stats["entries"] = len(self._entries)
            return stats

    def consume_stats(self) -> dict:
        """Counter deltas since the previous consume (registry folding).

        ``bytes`` and ``entries`` are gauges; their (possibly negative)
        deltas keep a registry counter tracking the current value.
        """
        with self._lock:
            current = dict(self._stats)
            current["bytes"] = self._bytes
            current["entries"] = len(self._entries)
        delta = {}
        for name, value in current.items():
            previous = self._folded.get(name, 0)
            if value != previous:
                delta[name] = value - previous
                self._folded[name] = value
        return delta

    def session(self) -> "CacheSession":
        """A fresh per-job adapter over this store."""
        return CacheSession(self)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                try:
                    os.fsync(self._handle.fileno())
                except OSError:  # pragma: no cover - teardown race
                    pass
                self._handle.close()
                self._handle = None
                _fsync_directory(os.path.dirname(self._path) or ".")

    def __enter__(self) -> "VerdictCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CacheSession:
    """Per-job view of a :class:`VerdictCache` with the journal interface.

    Passed as ``SweepConfig.journal``, which (a) forces query-pure SAT —
    the precondition for sound cross-job verdict sharing — and (b) routes
    every pair query through ``lookup`` / ``record`` in
    :meth:`SweepEngine.answer <repro.sweep.engine.SweepEngine.answer>`.
    Per-session counters separate this job's traffic from the store's
    lifetime totals.
    """

    def __init__(self, store: VerdictCache):
        self._store = store
        self._fp_key: Optional[str] = None
        self._signature: dict[int, int] = {}
        self._pis: list[int] = []
        self._pi_index: dict[int, int] = {}
        self._bound = False
        self._stats = {
            "appends": 0,
            "replayed_verdicts": 0,
            "misses": 0,
            "torn_tail_truncations": 0,
        }
        self._folded: dict[str, int] = {}

    # -- journal interface ---------------------------------------------
    def bind(self, network: Network, fingerprint: dict) -> None:
        self._fp_key = fingerprint_key(
            json.loads(json.dumps(fingerprint, sort_keys=True))
        )
        self._signature = node_signatures(network)
        self._pis = list(network.pis)
        self._pi_index = {pi: idx for idx, pi in enumerate(self._pis)}
        self._bound = True

    def _require_bound(self) -> None:
        if not self._bound:
            raise JournalError("cache session is not bound to a network yet")

    @property
    def signatures(self) -> dict[int, int]:
        """The bound network's ``node_signatures`` map (its pair keys)."""
        self._require_bound()
        return self._signature

    def _key(
        self, rep: int, member: int, complemented: bool, limit
    ) -> tuple:
        return (
            self._fp_key,
            self._signature[rep],
            self._signature[member],
            bool(complemented),
            limit,
        )

    def lookup(
        self, rep: int, member: int, complemented: bool, limit
    ) -> Optional[ReplayRecord]:
        self._require_bound()
        payload = self._store.get(self._key(rep, member, complemented, limit))
        if payload is None:
            self._stats["misses"] += 1
            return None
        vector = None
        if payload.get("v") is not None:
            vector = decode_vector(payload["v"], self._pis)
            if vector is None:
                # The stored vector does not fit this network's PI list:
                # the cache is advisory, so a miss rather than replaying
                # a wrong model.
                self._stats["misses"] += 1
                return None
        self._stats["replayed_verdicts"] += 1
        return ReplayRecord(
            outcome=SatResult(payload["o"]),
            vector=vector,
            conflicts=int(payload.get("cf", 0)),
            propagations=int(payload.get("pr", 0)),
            rung=int(payload.get("r", 0)),
        )

    def record(
        self,
        rep: int,
        member: int,
        complemented: bool,
        limit,
        outcome: SatResult,
        vector: Optional[InputVector],
        conflicts: int,
        propagations: int,
        rung: int = 0,
    ) -> bool:
        self._require_bound()
        key = self._key(rep, member, complemented, limit)
        payload = {
            "a": key[1],
            "b": key[2],
            "c": int(key[3]),
            "l": limit,
            "o": outcome.value,
            "v": self._encode_vector(vector),
            "cf": int(conflicts),
            "pr": int(propagations),
            "r": int(rung),
        }
        if self._store.put(key, payload):
            self._stats["appends"] += 1
            return True
        return False

    # -- vector encoding (positional, as in VerdictJournal) ------------
    def _encode_vector(self, vector: Optional[InputVector]):
        if vector is None:
            return None
        pairs = []
        for uid, bit in vector.values.items():
            index = self._pi_index.get(uid)
            if index is None:
                raise JournalError(
                    f"counterexample assigns non-PI node {uid}; "
                    "cannot cache it positionally"
                )
            pairs.append([index, int(bit)])
        pairs.sort()
        return pairs

    # -- stats + lifecycle ---------------------------------------------
    @property
    def stats(self) -> dict:
        return dict(self._stats)

    def consume_stats(self) -> dict:
        delta = {}
        for name, value in self._stats.items():
            previous = self._folded.get(name, 0)
            if value != previous:
                delta[name] = value - previous
                self._folded[name] = value
        return delta

    def close(self) -> None:
        """Sessions hold no resources; the store outlives them."""
