"""One verdict store: the sweep journal and the serving daemon's cache.

A pair verdict (EQ / NEQ / UNKNOWN, counterexample, attempt metadata) is
stored under ``(fingerprint, sig(rep), sig(member), complemented,
limit)``: the canonical JSON of the trajectory-determining configuration
slice (:func:`config_fingerprint`, :func:`fingerprint_key`), the
structural signatures of the pair's nodes
(:func:`repro.transforms.strash.node_signatures`) — never uids, which
depend on construction order — the pair's phase and its conflict limit.
Journaled and served runs force *query-pure* SAT checking (a fresh
solver and cone encoding per query, see ``SweepEngine.open_solver``), so
a verdict — including its counterexample model and conflict count — is
a pure function of the pair's cone structure.  Two consequences:

* **Resume identity**: replaying a prefix of verdicts and re-solving the
  rest reproduces the uninterrupted trajectory bit-for-bit.
* **Sound sharing**: structurally identical pairs share a key, within one
  network (twins) and across networks (a re-submitted or lightly edited
  netlist) — identical cones encode to identical CNF and yield identical
  verdicts *and models*.

One :class:`VerdictSession` gives a run the engine's journal protocol
(``bind`` / ``lookup`` / ``record`` / ``stats`` / ``consume_stats`` /
``signatures`` / ``close``) over that map.
:meth:`SweepEngine.answer <repro.sweep.engine.SweepEngine.answer>`, the
one caller, records each fresh verdict before it is merged — never a
*degraded* one, and an UNKNOWN only when reached at the pair's nominal
conflict limit, so every stored UNKNOWN is deterministic.
Counterexamples are stored positionally, as sorted ``[pi_index, bit]``
pairs; a signature match implies the cone reads the same PI *positions*
in any network that produces it (PI signatures hash their interface
position), so a vector decodes onto that network's own PIs.

Two spills
----------

Both write one record per line::

    <crc32 of payload, 8 hex chars> TAB <payload JSON> NEWLINE

and read it back through one scanner (:func:`scan_records`), which stops
at the first damaged record: a partial or CRC-failing line, or a record
of the wrong shape (a verdict with a missing field, an unknown outcome, a
non-integer counter or a malformed vector).  Their policies differ:

* :class:`VerdictJournal` makes a sweep crash-safe (``--journal`` /
  ``--resume``).  A ``header`` binds the file to one network
  (:func:`repro.transforms.strash.network_signature`) and one
  fingerprint; every later record is a ``verdict``.  Each append is one
  ``write`` plus ``fsync``, so a crash can only leave a *torn tail* —
  damage in the final record — which the loader truncates.  Damage
  followed by more records is corruption and raises
  :class:`~repro.errors.JournalError`, and so does a stored
  counterexample that does not fit the network (checked at ``bind``).
  The map is unbounded: resume needs every verdict.
* :class:`VerdictCache` is the daemon's store, shared by its worker
  threads, each job reading and writing it through its own session
  (:meth:`VerdictCache.session`).  The memory tier is an LRU bounded by
  encoded bytes.  With a ``path`` the file holds a version ``header``,
  one ``namespace`` record per fingerprint and ``verdict`` records
  tagged with their namespace; appends are flushed, not fsync'd, and
  damage ends the load, keeping the good prefix — the cache is advisory,
  so a lost tail costs re-solving, never correctness.  A stored
  counterexample that does not fit a session's PIs is a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zlib
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import JournalError
from repro.network.network import Network
from repro.runtime import atomicio
from repro.sat.solver import SatResult
from repro.simulation.patterns import InputVector
from repro.transforms.strash import network_signature, node_signatures

#: Journal format version (bumped on incompatible record changes).
JOURNAL_VERSION = 1

#: Cache-file format version (independent of the journal's).
CACHE_VERSION = 1

#: Default memory bound of a :class:`VerdictCache`: 64 MiB of encoded
#: verdict lines.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Sweep-config fields a verdict is keyed on.  Execution-shape knobs
#: (``jobs``, backends, tracer, budget) are deliberately absent: verdicts
#: are query-pure, so a journal recorded at ``--jobs 4`` replays under
#: ``--jobs 1`` (and vice versa).
FINGERPRINT_FIELDS = (
    "seed",
    "random_rounds",
    "random_width",
    "iterations",
    "include_pis",
    "match_complements",
    "sat_conflict_limit",
    "max_escalations",
    "escalation_factor",
)

#: Two former config fields, now fixed engine policy: counterexamples are
#: always resimulated, in flushes of at most 64 vectors
#: (``repro.sweep.engine.CEX_BATCH_WIDTH``).  They stay in the fingerprint
#: with those values, so journals and persisted verdict caches written
#: while they were fields still resume.
FIXED_FINGERPRINT = {"resimulate_cex": True, "cex_batch_width": 64}

#: The fields of a stored verdict (a cache file adds its namespace, ``ns``).
VERDICT_FIELDS = ("a", "b", "c", "l", "o", "v", "cf", "pr", "r")

_OUTCOMES = tuple(result.value for result in SatResult)


def generator_label(generator) -> str:
    """Backend-invariant label of a guided-vector generator.

    The batch and reference SimGen generators produce bit-identical
    trajectories, so the label strips the ``Batch`` prefix — a journal
    recorded under one backend resumes under the other.  (Journals from
    before the ``compiled`` backend was removed stored the same stripped
    label, so they still resume.)
    """
    if generator is None:
        return "none"
    return type(generator).__name__.removeprefix("Batch")


def config_fingerprint(config, generator=None) -> dict:
    """The trajectory-determining slice of a :class:`SweepConfig`.

    Two runs with equal fingerprints over the same network follow the
    same refinement trajectory, so their verdicts are interchangeable;
    :meth:`VerdictJournal.bind` refuses a mismatch.
    """
    fingerprint = {name: getattr(config, name) for name in FINGERPRINT_FIELDS}
    fingerprint.update(FIXED_FINGERPRINT)
    fingerprint["generator"] = generator_label(generator)
    return fingerprint


def fingerprint_key(fingerprint) -> str:
    """Canonical JSON of a configuration fingerprint: the first part of
    every verdict key, and what a journal header is compared by."""
    return json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))


@dataclass(slots=True)
class ReplayRecord:
    """One stored verdict, decoded against the bound network."""

    outcome: SatResult
    vector: Optional[InputVector]
    conflicts: int
    propagations: int
    #: Escalation rung the verdict was first reached on.
    rung: int


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------
def _encode_line(payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return f"{crc:08x}".encode("ascii") + b"\t" + body + b"\n"


def _parse_line(line: bytes) -> Optional[dict]:
    """Decode one line; ``None`` on any damage (torn, corrupt, or a
    record of the wrong shape)."""
    crc_hex, sep, body = line.partition(b"\t")
    if not sep or len(crc_hex) != 8:
        return None
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        return None
    if zlib.crc32(body) & 0xFFFFFFFF != expected:
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    if isinstance(payload, dict) and _well_formed(payload):
        return payload
    return None


def _well_formed(payload: dict) -> bool:
    """Whether a record has the shape its kind needs.  A header's version
    is checked by its spill, and both loaders skip other kinds."""
    kind = payload.get("kind")
    if kind == "namespace":
        return type(payload.get("id")) is int and isinstance(
            payload.get("fingerprint"), dict
        )
    if kind != "verdict":
        return True
    if any(field not in payload for field in VERDICT_FIELDS):
        return False
    pairs = payload["v"]
    return (
        {type(payload["a"]), type(payload["b"])} <= {int, str}
        and payload["c"] in (0, 1)
        and type(payload["l"]) in (int, type(None))
        and payload["o"] in _OUTCOMES
        and {type(payload[name]) for name in ("cf", "pr", "r")} == {int}
        and type(payload.get("ns", 0)) is int
        and (pairs is None or type(pairs) is list and all(
            type(pair) is list and list(map(type, pair)) == [int, int]
            for pair in pairs
        ))
    )


def scan_records(data: bytes) -> tuple[list[dict], int, bool]:
    """The records of a CRC-framed file, up to its first damaged one.

    Returns ``(payloads, end, torn)``.  ``end`` is the offset just past
    the last good record, so ``end < len(data)`` means a record is
    damaged; ``torn`` then says whether the damage is confined to the
    final record (a partial line, or a damaged line followed only by
    blank space), as an interrupted append leaves it.
    """
    payloads: list[dict] = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            return payloads, offset, True
        payload = _parse_line(data[offset:newline])
        if payload is None:
            return payloads, offset, not data[newline + 1:].strip()
        payloads.append(payload)
        offset = newline + 1
    return payloads, offset, True


def _truncate(path: str, end: int, fsync: bool) -> None:
    with open(path, "r+b") as handle:
        handle.truncate(end)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())


def _close(handle, fsync: bool) -> None:
    handle.flush()
    if fsync:
        try:
            os.fsync(handle.fileno())
        except OSError:  # pragma: no cover - teardown race
            pass
    handle.close()


def _verdict_key(fp_key: str, payload: dict) -> tuple:
    a, b, c, limit = payload["a"], payload["b"], payload["c"], payload["l"]
    return (fp_key, a, b, bool(c), limit)


def _replay_record(payload: dict, pis) -> Optional[ReplayRecord]:
    """A stored verdict decoded onto ``pis``; ``None`` when an entry of its
    ``[[pi_index, bit], ...]`` counterexample does not fit them: an index
    outside ``0 <= index < len(pis)`` (a negative one would pick a PI from
    the end) or a bit other than 0/1.  (The scanner has already refused a
    vector that is not a list of integer pairs.)"""
    vector = None
    if payload["v"] is not None:
        values = {}
        for index, bit in payload["v"]:
            if not 0 <= index < len(pis) or bit not in (0, 1):
                return None
            values[pis[index]] = int(bit)
        vector = InputVector(values)
    return ReplayRecord(
        SatResult(payload["o"]), vector, payload["cf"], payload["pr"],
        payload["r"],
    )


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class _Counters:
    """Named counters, read whole (``stats``) or as deltas since the
    previous read (``consume_stats``), so several folding sites (a
    sweep's SAT phase, a CEC fallback, a daemon's jobs and ``/stats``)
    publish to one registry without double counting."""

    def __init__(self, names: tuple[str, ...]):
        self._stats = dict.fromkeys(names, 0)
        self._folded: dict[str, int] = {}

    @property
    def stats(self) -> dict:
        return dict(self._stats)

    def consume_stats(self) -> dict:
        """Counter deltas since the previous consume."""
        delta = {}
        for name, value in self.stats.items():
            previous = self._folded.get(name, 0)
            if value != previous:
                delta[name] = value - previous
                self._folded[name] = value
        return delta


class VerdictSession(_Counters):
    """One run's view of a verdict store, with the engine's journal
    protocol.

    Passed as ``SweepConfig.journal``, which forces query-pure SAT — the
    precondition for sound replay — and routes every pair query through
    ``lookup`` / ``record`` in :meth:`SweepEngine.answer
    <repro.sweep.engine.SweepEngine.answer>`.  The store (a
    :class:`VerdictCache`, or a :class:`VerdictJournal` for itself)
    provides ``_replay(key, pis)`` and ``_put(key, payload)``; the
    session's counters are this run's traffic, apart from the store's
    lifetime totals.
    """

    STATS = ("appends", "replayed_verdicts", "misses", "torn_tail_truncations")

    def __init__(self, store):
        super().__init__(self.STATS)
        self._store = store
        self._fp_key: Optional[str] = None
        self._signature: dict[int, int] = {}
        self._pis: list[int] = []
        self._pi_index: dict[int, int] = {}

    def bind(self, network: Network, fingerprint: dict) -> None:
        """Key this session's pairs by ``network``'s node signatures and
        the configuration ``fingerprint``."""
        self._attach(
            network, node_signatures(network), fingerprint_key(fingerprint)
        )

    def _attach(self, network: Network, signatures: dict, fp_key: str) -> None:
        self._signature = signatures
        self._fp_key = fp_key
        self._pis = list(network.pis)
        self._pi_index = {pi: index for index, pi in enumerate(self._pis)}

    def _require_bound(self) -> None:
        if self._fp_key is None:
            raise JournalError("verdict session is not bound to a network yet")

    @property
    def signatures(self) -> dict[int, int]:
        """The bound network's ``node_signatures`` map (its pair keys)."""
        self._require_bound()
        return self._signature

    def _key(
        self, rep: int, member: int, complemented: bool, limit: Optional[int]
    ) -> tuple:
        self._require_bound()
        signature = self._signature
        return (
            self._fp_key, signature[rep], signature[member],
            bool(complemented), limit,
        )

    def lookup(
        self, rep: int, member: int, complemented: bool, limit: Optional[int]
    ) -> Optional[ReplayRecord]:
        """The stored verdict for this pair key, decoded onto the bound
        network's PIs, if one exists."""
        record = self._store._replay(
            self._key(rep, member, complemented, limit), self._pis
        )
        stats = self._stats
        if record is not None:
            stats["replayed_verdicts"] += 1
        elif "misses" in stats:  # a journal's STATS count no misses
            stats["misses"] += 1
        return record

    def record(
        self,
        rep: int,
        member: int,
        complemented: bool,
        limit: Optional[int],
        outcome: SatResult,
        vector: Optional[InputVector],
        conflicts: int,
        propagations: int,
        rung: int = 0,
    ) -> bool:
        """Store one verdict (a no-op if its key is already stored).  The
        store spills it before this returns, so a caller that merges
        after recording never loses a merged verdict."""
        key = self._key(rep, member, complemented, limit)
        payload = {
            "a": key[1], "b": key[2], "c": int(key[3]), "l": limit,
            "o": outcome.value, "v": self._encode_vector(vector),
            "cf": int(conflicts), "pr": int(propagations), "r": int(rung),
        }
        if not self._store._put(key, payload):
            return False
        self._stats["appends"] += 1
        return True

    def _encode_vector(self, vector: Optional[InputVector]):
        if vector is None:
            return None
        pairs = []
        for uid, bit in vector.values.items():
            index = self._pi_index.get(uid)
            if index is None:
                raise JournalError(
                    f"counterexample assigns non-PI node {uid}; "
                    "cannot store it positionally"
                )
            pairs.append([index, int(bit)])
        pairs.sort()
        return pairs

    def close(self) -> None:
        """A session holds nothing; its store outlives it."""


# ----------------------------------------------------------------------
# The journal spill
# ----------------------------------------------------------------------
class VerdictJournal(VerdictSession):
    """Append-only, CRC-guarded verdict log with crash-safe resume: a
    session that is its own store, an unbounded map spilled to one file.

    Args:
        path: Journal file.  A *non-empty* existing file is refused unless
            ``resume=True`` (accidentally extending an unrelated journal
            would poison both runs); ``resume=True`` with a missing file
            simply starts fresh.
        resume: Load and replay existing records (truncating a torn tail).
        fsync: Fsync every append (the durability guarantee; tests disable
            it for speed only where durability is not under test).
    """

    STATS = (
        "appends", "replayed_verdicts", "torn_tail_truncations",
        "loaded_verdicts",
    )

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        resume: bool = False,
        fsync: bool = True,
    ):
        super().__init__(self)
        self._path = os.fspath(path)
        self._fsync = fsync
        self._header: Optional[dict] = None
        #: Verdict payloads read on resume, decoded at ``bind``.
        self._loaded: list[dict] = []
        #: Verdict key -> record, each decoded once.
        self._map: dict[tuple, ReplayRecord] = {}
        exists = os.path.exists(self._path)
        if exists and not resume and os.path.getsize(self._path) > 0:
            raise JournalError(
                f"journal {self._path} already exists; pass --resume to "
                "continue it or delete it to start over"
            )
        if exists and resume:
            self._load()
        self._handle = open(self._path, "ab")
        if not exists and self._fsync:
            # Per-record fsync makes *appends* durable, but the file's
            # directory entry is only durable once the parent directory is
            # fsync'd — without this, a crash shortly after creation can
            # lose the whole journal despite every record having synced.
            atomicio._fsync_directory(os.path.dirname(self._path) or ".")

    def _load(self) -> None:
        with open(self._path, "rb") as handle:
            data = handle.read()
        payloads, end, torn = scan_records(data)
        if end < len(data):
            if not torn:
                raise JournalError(
                    f"journal {self._path}: corrupt record at byte {end} "
                    "followed by valid records — not a torn tail; the "
                    "journal cannot be trusted (delete it to start over)"
                )
            _truncate(self._path, end, fsync=True)
            self._stats["torn_tail_truncations"] += 1
        if not payloads:
            return
        header = payloads[0]
        if header.get("kind") != "header":
            raise JournalError(
                f"journal {self._path}: first record is not a header"
            )
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal {self._path}: version {header.get('version')!r} "
                f"(this build writes {JOURNAL_VERSION})"
            )
        self._header = header
        self._loaded = [
            payload for payload in payloads[1:]
            if payload.get("kind") == "verdict"
        ]
        self._stats["loaded_verdicts"] = len(self._loaded)

    def bind(self, network: Network, fingerprint: dict) -> None:
        """Attach the journal to a network + configuration fingerprint.

        A fresh journal writes its header here; a resumed journal verifies
        the header matches (same structural network, same trajectory-
        determining configuration) and decodes every loaded verdict onto
        the network's PIs.
        """
        signatures = node_signatures(network)
        net_sig = network_signature(network, signatures)
        fp_key = fingerprint_key(fingerprint)
        stored = json.loads(fp_key)  # the fingerprint as a header holds it
        header = self._header
        if header is None:
            self._header = {
                "kind": "header",
                "version": JOURNAL_VERSION,
                "network": net_sig,
                "fingerprint": stored,
            }
            self._append(self._header)
        elif header.get("network") != net_sig:
            raise JournalError(
                f"journal {self._path} was recorded for a different "
                f"network (journal {header.get('network')}, run {net_sig})"
            )
        elif header.get("fingerprint") != stored:
            raise JournalError(
                f"journal {self._path} was recorded under a different "
                f"sweep configuration (journal {header.get('fingerprint')}, "
                f"run {stored})"
            )
        pis = network.pis
        for payload in self._loaded:
            key = _verdict_key(fp_key, payload)
            if key in self._map:
                continue
            record = _replay_record(payload, pis)
            if record is None:
                raise JournalError(
                    f"journal {self._path}: counterexample {payload['v']!r} "
                    f"does not fit the network's {len(pis)} PIs — the "
                    "journal cannot be trusted (delete it to start over)"
                )
            self._map[key] = record
        self._loaded = []
        self._attach(network, signatures, fp_key)

    def _replay(self, key: tuple, pis) -> Optional[ReplayRecord]:
        return self._map.get(key)

    def _put(self, key: tuple, payload: dict) -> bool:
        if key in self._map:
            return False
        payload["kind"] = "verdict"
        self._append(payload)
        self._map[key] = _replay_record(payload, self._pis)
        return True

    def _append(self, payload: dict) -> None:
        self._handle.write(_encode_line(payload))
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    @property
    def path(self) -> str:
        return self._path

    def close(self) -> None:
        if self._handle is not None:
            _close(self._handle, self._fsync)
            self._handle = None

    def __enter__(self) -> "VerdictJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# The cache spill
# ----------------------------------------------------------------------
class VerdictCache(_Counters):
    """The daemon's verdict store: thread-safe, byte-bounded, durable.

    Args:
        max_bytes: Eviction threshold over the summed encoded-line sizes
            of resident entries (LRU order; hits re-insert).
        path: Optional backing file.  Existing records are loaded on
            construction (damage — a daemon killed mid-append — ends the
            load and is truncated away); every later insert is appended.
            Appends are *not* fsync'd per record: the cache is a
            performance layer, losing a tail costs re-solving, never
            correctness.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        path: Optional[str] = None,
    ):
        super().__init__(("hits", "misses", "evictions", "inserts", "loaded"))
        self._lock = threading.Lock()
        self._max_bytes = int(max_bytes)
        #: (fp_key, sig_a, sig_b, complemented, limit) -> payload dict.
        #: Insertion order doubles as LRU order (hits re-insert).
        self._entries: dict[tuple, dict] = {}
        #: Per-entry encoded size, summed into ``bytes``.
        self._sizes: dict[tuple, int] = {}
        self._bytes = 0
        #: fp_key -> namespace id already in the file.
        self._namespaces: dict[str, int] = {}
        self._path = None if path is None else os.fspath(path)
        self._handle = None
        if self._path is not None:
            self._load()
            self._handle = open(self._path, "ab")

    def _load(self) -> None:
        if not os.path.exists(self._path):
            return
        with open(self._path, "rb") as handle:
            data = handle.read()
        payloads, end, _ = scan_records(data)
        namespaces: dict[int, str] = {}
        for payload in payloads:
            kind = payload.pop("kind", None)
            if kind == "header":
                if payload.get("version") != CACHE_VERSION:
                    raise JournalError(
                        f"verdict cache {self._path}: version "
                        f"{payload.get('version')!r} (this build writes "
                        f"{CACHE_VERSION})"
                    )
            elif kind == "namespace":
                fp_key = fingerprint_key(payload["fingerprint"])
                namespaces[payload["id"]] = fp_key
                self._namespaces[fp_key] = payload["id"]
            elif kind == "verdict":
                # Without its framing a reloaded payload is equal (and
                # equal-sized) to a freshly inserted one.
                fp_key = namespaces.get(payload.pop("ns", None))
                if fp_key is not None:
                    self._insert(_verdict_key(fp_key, payload), payload, False)
                    self._stats["loaded"] += 1
        if end < len(data):
            _truncate(self._path, end, fsync=False)
        # Counters touched during load are bookkeeping, not traffic.
        self._stats["inserts"] = self._stats["evictions"] = 0

    def _persist(self, fp_key: str, payload: dict) -> None:
        handle = self._handle
        namespace = self._namespaces.get(fp_key)
        if namespace is None:
            namespace = self._namespaces[fp_key] = len(self._namespaces)
            if namespace == 0 and handle.tell() == 0:
                handle.write(
                    _encode_line({"kind": "header", "version": CACHE_VERSION})
                )
            handle.write(_encode_line({
                "kind": "namespace", "id": namespace,
                "fingerprint": json.loads(fp_key),
            }))
        handle.write(_encode_line({**payload, "kind": "verdict", "ns": namespace}))
        handle.flush()

    # ------------------------------------------------------------------
    # Store operations (all under the lock)
    # ------------------------------------------------------------------
    def _insert(self, key: tuple, payload: dict, persist: bool = True) -> bool:
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
        if persist and self._handle is not None:
            self._persist(key[0], payload)
        return True

    def _found(self, key: tuple, found):
        """Count one lookup of ``key`` (``found`` is ``None`` on a miss);
        a hit moves the entry to the recent end of the LRU order."""
        if found is None:
            self._stats["misses"] += 1
        else:
            self._entries[key] = self._entries.pop(key)
            self._stats["hits"] += 1
        return found

    def get(self, key: tuple) -> Optional[dict]:
        """The stored payload for a full cache key (LRU touch on hit)."""
        with self._lock:
            return self._found(key, self._entries.get(key))

    def _replay(self, key: tuple, pis: list[int]) -> Optional[ReplayRecord]:
        """A session's lookup.  An entry whose counterexample does not
        fit ``pis`` is a miss, counted as one and left where it is."""
        with self._lock:
            payload = self._entries.get(key)
            return self._found(
                key, None if payload is None else _replay_record(payload, pis)
            )

    def put(self, key: tuple, payload: dict) -> bool:
        """Insert one verdict payload (no-op if the key is resident)."""
        with self._lock:
            return self._insert(key, payload)

    _put = put

    # ------------------------------------------------------------------
    # Introspection + lifecycle
    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Cumulative counters plus occupancy (``bytes`` / ``entries``,
        gauges whose deltas may be negative)."""
        with self._lock:
            return {
                **self._stats, "bytes": self._bytes,
                "entries": len(self._entries),
            }

    def session(self) -> VerdictSession:
        """A fresh per-job session over this store."""
        return VerdictSession(self)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                _close(self._handle, fsync=True)
                self._handle = None
                atomicio._fsync_directory(os.path.dirname(self._path) or ".")

    def __enter__(self) -> "VerdictCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def sweep_signature(
    network: Network, result, signatures: Optional[dict[int, int]] = None
) -> str:
    """Structural fingerprint of a sweep *outcome* (hex string).

    Hashes the proven equivalences (as signature triples), the final
    class partition, the cost history, and the verdict counts — everything
    the resume-identity acceptance gate compares.  Two runs with equal
    sweep signatures merged the same pairs along the same trajectory.
    ``signatures`` is the network's ``node_signatures`` map when the
    caller has it (a bound session does).
    """
    if signatures is None:
        signatures = node_signatures(network)
    hasher = hashlib.blake2b(digest_size=16)
    for sig_a, sig_b, comp in sorted(
        (signatures[a], signatures[b], int(c))
        for a, b, c in result.equivalences
    ):
        hasher.update(f"eq:{sig_a:016x},{sig_b:016x},{comp};".encode())
    for cls in sorted(
        tuple(sorted(signatures[uid] for uid in cls))
        for cls in result.classes.all_classes()
    ):
        hasher.update(f"cls:{cls!r};".encode())
    metrics = result.metrics
    hasher.update(f"cost:{metrics.cost_history!r};".encode())
    hasher.update(
        f"verdicts:{metrics.proven},{metrics.disproven},"
        f"{metrics.unknown};".encode()
    )
    return hasher.hexdigest()
