"""Write-ahead verdict journal: durable, resumable SAT-sweep sessions.

A sweep that dies — worker crash, OOM kill, SIGKILL of the coordinator —
loses every verdict it proved.  The :class:`VerdictJournal` fixes that:
each pair verdict (EQ / NEQ / UNKNOWN, counterexample, attempt metadata)
is appended to a CRC-guarded JSONL file *before* it is merged, and a
resumed run replays the journal instead of re-solving.

Durability format
-----------------

One record per line::

    <crc32 of payload, 8 hex chars> TAB <payload JSON> NEWLINE

The first record is a ``header`` carrying the journal version, the
network's structural fingerprint (:func:`repro.transforms.strash.network_signature`)
and the sweep-configuration fingerprint; every later record is a
``verdict``.  Appends are single ``write`` calls followed by ``fsync``,
so a crash can only produce a *torn tail* — a partial or CRC-failing
final record — which the loader detects and truncates.  A bad record
*followed by valid ones* means real corruption and raises
:class:`~repro.errors.JournalError` (the journal cannot be trusted).

Replay keys
-----------

Verdicts are keyed by ``(sig(rep), sig(member), complemented, limit)``
using the structural node signatures of :mod:`repro.transforms.strash` —
never by uids, which depend on construction order.  Journaled runs force
*query-pure* SAT checking (a fresh solver and cone encoding per query, see
``SweepEngine.open_solver``), so a verdict — including its counterexample
model and conflict count — is a pure function of the pair's cone
structure.  Two consequences:

* **Resume identity**: replaying a prefix of verdicts and re-solving the
  rest reproduces the uninterrupted trajectory bit-for-bit.
* **Sound twin sharing**: structurally identical pairs share a key, and
  sharing is sound — identical cones encode to identical CNF and yield
  identical verdicts *and models*.

:meth:`SweepEngine.answer <repro.sweep.engine.SweepEngine.answer>`, the
one caller, records each fresh verdict before it is merged — never a
*degraded* one, and an UNKNOWN only when reached at the pair's nominal
conflict limit, so every journaled UNKNOWN is deterministic.
Counterexamples are stored as ``[pi_index, bit]`` pairs; one that does not
fit the bound network means the journal cannot be trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import JournalError
from repro.network.network import Network
from repro.sat.solver import SatResult
from repro.simulation.patterns import InputVector
from repro.transforms.strash import network_signature, node_signatures

#: Journal format version (bumped on incompatible record changes).
JOURNAL_VERSION = 1

#: Sweep-config fields a journal is keyed on.  Execution-shape knobs
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
    same refinement trajectory, so their journals are interchangeable;
    :meth:`VerdictJournal.bind` refuses a mismatch.
    """
    fingerprint = {name: getattr(config, name) for name in FINGERPRINT_FIELDS}
    fingerprint.update(FIXED_FINGERPRINT)
    fingerprint["generator"] = generator_label(generator)
    return fingerprint


def decode_vector(pairs, pis: list[int]) -> Optional[InputVector]:
    """A stored ``[[pi_index, bit], ...]`` counterexample on ``pis``, or
    ``None`` when an entry does not fit: an index outside ``0 <= index <
    len(pis)`` (a negative one would pick a PI from the end) or a bit
    other than 0/1."""
    values = {}
    try:
        for index, bit in pairs:
            if type(index) is not int or not 0 <= index < len(pis):
                return None
            if bit not in (0, 1):
                return None
            values[pis[index]] = int(bit)
    except (TypeError, ValueError):
        return None
    return InputVector(values)


@dataclass(slots=True)
class ReplayRecord:
    """One journaled verdict, decoded against the bound network."""

    outcome: SatResult
    vector: Optional[InputVector]
    conflicts: int
    propagations: int
    #: Escalation rung the verdict was first reached on.
    rung: int


def _encode_line(payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return f"{crc:08x}".encode("ascii") + b"\t" + body + b"\n"


def _parse_line(line: bytes) -> Optional[dict]:
    """Decode one journal line; ``None`` on any damage (torn/corrupt)."""
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
    return payload if isinstance(payload, dict) else None


class VerdictJournal:
    """Append-only, CRC-guarded verdict log with crash-safe resume.

    Args:
        path: Journal file.  A *non-empty* existing file is refused unless
            ``resume=True`` (accidentally extending an unrelated journal
            would poison both runs); ``resume=True`` with a missing file
            simply starts fresh.
        resume: Load and replay existing records (truncating a torn tail).
        fsync: Fsync every append (the durability guarantee; tests disable
            it for speed only where durability is not under test).
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        resume: bool = False,
        fsync: bool = True,
    ):
        self._path = os.fspath(path)
        self._fsync = fsync
        self._header: Optional[dict] = None
        #: Raw verdict payloads loaded from disk (decoded at bind time).
        self._loaded: list[dict] = []
        #: (sig_a, sig_b, complemented, limit) -> ReplayRecord.
        self._map: dict[tuple, ReplayRecord] = {}
        self._signature: dict[int, int] = {}
        self._pis: list[int] = []
        self._pi_index: dict[int, int] = {}
        self._bound = False
        self._stats = {
            "appends": 0,
            "replayed_verdicts": 0,
            "torn_tail_truncations": 0,
            "loaded_verdicts": 0,
        }
        self._folded: dict[str, int] = {}
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
            from repro.runtime.atomicio import _fsync_directory

            _fsync_directory(os.path.dirname(self._path) or ".")

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _load(self) -> None:
        with open(self._path, "rb") as handle:
            data = handle.read()
        offset = 0
        good_end = 0
        torn = False
        payloads: list[dict] = []
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline < 0:
                # Partial final record: the append was interrupted.
                torn = True
                break
            payload = _parse_line(data[offset:newline])
            if payload is None:
                if data[newline + 1:].strip() == b"":
                    # Damaged *final* record: a torn tail, recoverable.
                    torn = True
                    break
                raise JournalError(
                    f"journal {self._path}: corrupt record at byte "
                    f"{offset} followed by valid records — not a torn "
                    "tail; the journal cannot be trusted (delete it to "
                    "start over)"
                )
            payloads.append(payload)
            offset = newline + 1
            good_end = offset
        if torn:
            with open(self._path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())
            self._stats["torn_tail_truncations"] += 1
        if not payloads:
            return
        if payloads[0].get("kind") != "header":
            raise JournalError(
                f"journal {self._path}: first record is not a header"
            )
        header = payloads[0]
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal {self._path}: version {header.get('version')!r} "
                f"(this build writes {JOURNAL_VERSION})"
            )
        self._header = header
        for payload in payloads[1:]:
            if payload.get("kind") == "verdict":
                self._loaded.append(payload)
        self._stats["loaded_verdicts"] = len(self._loaded)

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, network: Network, fingerprint: dict) -> None:
        """Attach the journal to a network + configuration fingerprint.

        A fresh journal writes its header here; a resumed journal verifies
        the header matches (same structural network, same trajectory-
        determining configuration) and decodes every loaded verdict
        against the network's signature map.
        """
        signatures = node_signatures(network)
        net_sig = network_signature(network, signatures)
        if self._header is not None:
            if self._header.get("network") != net_sig:
                raise JournalError(
                    f"journal {self._path} was recorded for a different "
                    f"network (journal {self._header.get('network')}, "
                    f"run {net_sig})"
                )
            if self._header.get("fingerprint") != _jsonify(fingerprint):
                raise JournalError(
                    f"journal {self._path} was recorded under a different "
                    "sweep configuration "
                    f"(journal {self._header.get('fingerprint')}, "
                    f"run {_jsonify(fingerprint)})"
                )
        self._signature = signatures
        self._pis = list(network.pis)
        self._pi_index = {pi: idx for idx, pi in enumerate(self._pis)}
        if self._header is None:
            header = {
                "kind": "header",
                "version": JOURNAL_VERSION,
                "network": net_sig,
                "fingerprint": _jsonify(fingerprint),
            }
            self._append(header)
            self._header = header
        for payload in self._loaded:
            key = (
                payload["a"],
                payload["b"],
                bool(payload["c"]),
                payload["l"],
            )
            if key in self._map:
                continue
            self._map[key] = ReplayRecord(
                outcome=SatResult(payload["o"]),
                vector=self._decode_vector(payload.get("v")),
                conflicts=int(payload.get("cf", 0)),
                propagations=int(payload.get("pr", 0)),
                rung=int(payload.get("r", 0)),
            )
        self._loaded = []
        self._bound = True

    def _require_bound(self) -> None:
        if not self._bound:
            raise JournalError("journal is not bound to a network yet")

    # ------------------------------------------------------------------
    # Replay + record
    # ------------------------------------------------------------------
    def _key(
        self, rep: int, member: int, complemented: bool, limit: Optional[int]
    ) -> tuple:
        return (
            self._signature[rep],
            self._signature[member],
            bool(complemented),
            limit,
        )

    def lookup(
        self, rep: int, member: int, complemented: bool, limit: Optional[int]
    ) -> Optional[ReplayRecord]:
        """The journaled verdict for this pair key, if one exists."""
        self._require_bound()
        record = self._map.get(self._key(rep, member, complemented, limit))
        if record is not None:
            self._stats["replayed_verdicts"] += 1
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
        """Durably append one verdict (no-op if the key already exists).

        The append hits disk (fsync'd) *before* this returns, so a caller
        that merges after recording can never lose a merged verdict.
        """
        self._require_bound()
        key = self._key(rep, member, complemented, limit)
        if key in self._map:
            return False
        payload = {
            "kind": "verdict",
            "a": key[0],
            "b": key[1],
            "c": int(key[2]),
            "l": limit,
            "o": outcome.value,
            "v": self._encode_vector(vector),
            "cf": int(conflicts),
            "pr": int(propagations),
            "r": int(rung),
        }
        self._append(payload)
        self._map[key] = ReplayRecord(
            outcome=outcome,
            vector=None if vector is None else InputVector(dict(vector.values)),
            conflicts=int(conflicts),
            propagations=int(propagations),
            rung=int(rung),
        )
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
                    "cannot journal it positionally"
                )
            pairs.append([index, int(bit)])
        pairs.sort()
        return pairs

    def _decode_vector(self, pairs) -> Optional[InputVector]:
        if pairs is None:
            return None
        vector = decode_vector(pairs, self._pis)
        if vector is None:
            raise JournalError(
                f"journal {self._path}: counterexample {pairs!r} does not "
                f"fit the network's {len(self._pis)} PIs — the journal "
                "cannot be trusted (delete it to start over)"
            )
        return vector

    def _append(self, payload: dict) -> None:
        self._handle.write(_encode_line(payload))
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    # ------------------------------------------------------------------
    # Stats + lifecycle
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        return self._path

    @property
    def stats(self) -> dict:
        """Cumulative counters (appends / replayed_verdicts / ...)."""
        return dict(self._stats)

    def consume_stats(self) -> dict:
        """Counters accumulated since the previous consume (delta).

        Lets several folding sites (sweep SAT phase, CEC fallback) publish
        to one registry without double counting.
        """
        delta = {}
        for key, value in self._stats.items():
            previous = self._folded.get(key, 0)
            if value != previous:
                delta[key] = value - previous
                self._folded[key] = value
        return delta

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self._fsync:
                try:
                    os.fsync(self._handle.fileno())
                except OSError:  # pragma: no cover - teardown race
                    pass
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "VerdictJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _jsonify(value):
    """The JSON round-trip image of a value (tuples become lists, ...) so
    header comparisons match what was actually stored on disk."""
    return json.loads(json.dumps(value, sort_keys=True))


def sweep_signature(
    network: Network, result, signatures: Optional[dict[int, int]] = None
) -> str:
    """Structural fingerprint of a sweep *outcome* (hex string).

    Hashes the proven equivalences (as signature triples), the final
    class partition, the cost history, and the verdict counts — everything
    the resume-identity acceptance gate compares.  Two runs with equal
    sweep signatures merged the same pairs along the same trajectory.
    ``signatures`` is the network's ``node_signatures`` map when the
    caller has it (a bound journal or cache session does).
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
