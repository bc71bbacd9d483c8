"""VerdictJournal: CRC framing, torn-tail recovery, replay keys."""

import json
import zlib

import pytest

from repro.errors import JournalError
from repro.network import NetworkBuilder
from repro.runtime import VerdictJournal
from repro.runtime.journal import _encode_line
from repro.sat.solver import SatResult
from repro.simulation.patterns import InputVector


def small_network(name="journal"):
    builder = NetworkBuilder(name)
    a, b = builder.pis(2)
    g1 = builder.and_(a, b, "g1")
    g2 = builder.and_(a, b, "g2")
    g3 = builder.or_(a, b, "g3")
    builder.po(g3, "f")
    return builder.build(), (a, b, g1, g2, g3)


FP = {"seed": 0, "iterations": 5, "generator": "none"}


def fresh_journal(path, network, fingerprint=FP):
    journal = VerdictJournal(path, fsync=False)
    journal.bind(network, fingerprint)
    return journal


class TestFraming:
    def test_lines_are_crc_guarded_json(self, tmp_path):
        path = tmp_path / "j.jsonl"
        net, (_, _, g1, g2, _) = small_network()
        with fresh_journal(path, net) as journal:
            journal.record(g1, g2, False, 1000, SatResult.UNSAT, None, 3, 17)
        for line in path.read_bytes().splitlines():
            crc_hex, _, body = line.partition(b"\t")
            assert int(crc_hex, 16) == zlib.crc32(body) & 0xFFFFFFFF
            json.loads(body)

    def test_record_then_lookup_roundtrip(self, tmp_path):
        net, (a, b, g1, _, g3) = small_network()
        vector = InputVector({a: 1, b: 0})
        with fresh_journal(tmp_path / "j.jsonl", net) as journal:
            journal.record(g1, g3, False, 1000, SatResult.SAT, vector, 5, 9)
        journal = VerdictJournal(tmp_path / "j.jsonl", resume=True)
        journal.bind(net, FP)
        record = journal.lookup(g1, g3, False, 1000)
        assert record is not None
        assert record.outcome is SatResult.SAT
        assert record.vector.values == {a: 1, b: 0}
        assert record.conflicts == 5
        assert record.propagations == 9
        assert journal.lookup(g1, g3, True, 1000) is None
        assert journal.lookup(g1, g3, False, 2000) is None
        journal.close()

    def test_duplicate_keys_keep_the_first_record(self, tmp_path):
        net, (_, _, g1, g2, _) = small_network()
        with fresh_journal(tmp_path / "j.jsonl", net) as journal:
            assert journal.record(
                g1, g2, False, 100, SatResult.UNSAT, None, 1, 1
            )
            assert not journal.record(
                g1, g2, False, 100, SatResult.UNKNOWN, None, 9, 9
            )
            assert journal.lookup(g1, g2, False, 100).outcome is SatResult.UNSAT

    def test_structural_twins_share_a_key(self, tmp_path):
        """g1 and g2 are the same AND over the same PIs: one key serves
        both orientations of the pair against g3."""
        net, (_, _, g1, g2, g3) = small_network()
        with fresh_journal(tmp_path / "j.jsonl", net) as journal:
            journal.record(g1, g3, False, 100, SatResult.SAT, None, 2, 2)
            assert journal.lookup(g2, g3, False, 100) is not None


class TestTornTail:
    def seeded(self, tmp_path):
        path = tmp_path / "j.jsonl"
        net, (_, _, g1, g2, g3) = small_network()
        with fresh_journal(path, net) as journal:
            journal.record(g1, g2, False, 100, SatResult.UNSAT, None, 1, 1)
            journal.record(g1, g3, False, 100, SatResult.SAT, None, 2, 2)
        return path, net

    def test_partial_final_record_is_truncated(self, tmp_path):
        path, net = self.seeded(tmp_path)
        intact = path.read_bytes()
        path.write_bytes(intact[:-7])  # tear mid-record (newline lost)
        journal = VerdictJournal(path, resume=True, fsync=False)
        assert journal.stats["torn_tail_truncations"] == 1
        journal.bind(net, FP)
        # The torn verdict is gone; the intact prefix survives.
        assert journal.stats["loaded_verdicts"] == 1
        assert path.read_bytes() == intact[: intact.rfind(b"\n", 0, -1) + 1]
        journal.close()

    def test_crc_damaged_final_record_is_truncated(self, tmp_path):
        path, net = self.seeded(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-10] + b"X" + data[-9:])  # flip inside body
        journal = VerdictJournal(path, resume=True, fsync=False)
        assert journal.stats["torn_tail_truncations"] == 1
        journal.bind(net, FP)
        assert journal.stats["loaded_verdicts"] == 1
        journal.close()

    def test_truncated_journal_can_be_extended_and_reread(self, tmp_path):
        path, net = self.seeded(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        journal = VerdictJournal(path, resume=True, fsync=False)
        journal.bind(net, FP)
        _, (_, _, g1, _, g3) = small_network()
        net2, (_, _, h1, _, h3) = small_network()
        journal.record(h1, h3, False, 100, SatResult.SAT, None, 2, 2)
        journal.close()
        reread = VerdictJournal(path, resume=True, fsync=False)
        reread.bind(net, FP)
        assert reread.stats["loaded_verdicts"] == 2
        reread.close()

    def test_midfile_corruption_raises(self, tmp_path):
        path, net = self.seeded(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"deadbeef\t{broken\n"  # valid records follow
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError):
            VerdictJournal(path, resume=True)


class TestStoredVectors:
    """A CRC-valid verdict whose counterexample does not fit the network
    is corruption: replaying it would report a vector on the wrong
    inputs, so the journal cannot be trusted."""

    def journal_with_vector(self, tmp_path, stored):
        net, nodes = small_network()
        a, b, g1, _, g3 = nodes
        path = tmp_path / "j.jsonl"
        with fresh_journal(path, net) as journal:
            journal.record(
                g1, g3, False, 1000, SatResult.SAT, InputVector({a: 1, b: 0}),
                5, 9,
            )
        header, line = path.read_bytes().splitlines(keepends=True)
        payload = json.loads(line.partition(b"\t")[2])
        payload["v"] = stored
        path.write_bytes(header + _encode_line(payload))
        return path, net, nodes

    @pytest.mark.parametrize(
        "stored",
        [[[-1, 1]], [[2, 1]], [[1000000, 1]], [[0, 2]]],
        ids=["negative-index", "index-past-end", "huge-index", "bad-bit"],
    )
    def test_entry_that_does_not_fit_raises_on_bind(self, tmp_path, stored):
        path, net, _ = self.journal_with_vector(tmp_path, stored)
        journal = VerdictJournal(path, resume=True, fsync=False)
        with pytest.raises(JournalError, match="does not fit"):
            journal.bind(net, FP)
        journal.close()

    def test_fitting_entries_decode_onto_the_pis(self, tmp_path):
        path, net, (_, b, g1, _, g3) = self.journal_with_vector(
            tmp_path, [[1, 1]]
        )
        journal = VerdictJournal(path, resume=True, fsync=False)
        journal.bind(net, FP)
        assert journal.lookup(g1, g3, False, 1000).vector.values == {b: 1}
        journal.close()


class TestGuards:
    def test_existing_nonempty_journal_refused_without_resume(self, tmp_path):
        path, _ = TestTornTail().seeded(tmp_path)
        with pytest.raises(JournalError):
            VerdictJournal(path)

    def test_resume_with_missing_file_starts_fresh(self, tmp_path):
        net, _ = small_network()
        journal = VerdictJournal(tmp_path / "new.jsonl", resume=True)
        journal.bind(net, FP)
        assert journal.stats["loaded_verdicts"] == 0
        journal.close()

    def test_network_mismatch_raises_on_bind(self, tmp_path):
        path, _ = TestTornTail().seeded(tmp_path)
        builder = NetworkBuilder("other")
        a, b, c = builder.pis(3)
        builder.po(builder.and_(a, builder.or_(b, c)), "f")
        other = builder.build()
        journal = VerdictJournal(path, resume=True, fsync=False)
        with pytest.raises(JournalError):
            journal.bind(other, FP)
        journal.close()

    def test_fingerprint_mismatch_raises_on_bind(self, tmp_path):
        path, net = TestTornTail().seeded(tmp_path)
        journal = VerdictJournal(path, resume=True, fsync=False)
        with pytest.raises(JournalError):
            journal.bind(net, {**FP, "seed": 99})
        journal.close()

    def test_unbound_journal_rejects_lookup_and_record(self, tmp_path):
        journal = VerdictJournal(tmp_path / "j.jsonl", fsync=False)
        with pytest.raises(JournalError):
            journal.lookup(1, 2, False, 100)
        with pytest.raises(JournalError):
            journal.record(1, 2, False, 100, SatResult.UNSAT, None, 0, 0)
        journal.close()


class TestStats:
    def test_consume_stats_is_a_delta(self, tmp_path):
        net, (_, _, g1, g2, g3) = small_network()
        with fresh_journal(tmp_path / "j.jsonl", net) as journal:
            journal.record(g1, g2, False, 100, SatResult.UNSAT, None, 1, 1)
            first = journal.consume_stats()
            assert first["appends"] == 1
            assert journal.consume_stats() == {}
            journal.record(g1, g3, False, 100, SatResult.SAT, None, 1, 1)
            assert journal.consume_stats() == {"appends": 1}


class TestHashing:
    def test_bind_hashes_the_network_once(self, tmp_path, node_signature_calls):
        """A fresh bind and a resumed bind each hash every node once."""
        net, (_, _, g1, g2, _) = small_network()
        path = tmp_path / "j.jsonl"
        calls = node_signature_calls
        with fresh_journal(path, net) as journal:
            journal.record(g1, g2, False, 100, SatResult.UNSAT, None, 1, 1)
        assert calls == [net]
        with VerdictJournal(path, resume=True, fsync=False) as journal:
            journal.bind(net, FP)
            assert journal.stats["loaded_verdicts"] == 1
        assert calls == [net, net]


class TestCreationDurability:
    """The crash drill for journal *creation*.

    Per-record fsync makes appends durable, but a freshly created file's
    directory entry is only durable after the parent directory itself is
    fsync'd.  The constructor must do that exactly once — when (and only
    when) it creates the file in durable mode.
    """

    def _record_dir_fsyncs(self, monkeypatch):
        from repro.runtime import atomicio

        calls = []
        real = atomicio._fsync_directory
        monkeypatch.setattr(
            atomicio,
            "_fsync_directory",
            lambda directory: (calls.append(directory), real(directory))[1],
        )
        return calls

    def test_fresh_durable_journal_fsyncs_parent_directory(
        self, tmp_path, monkeypatch
    ):
        calls = self._record_dir_fsyncs(monkeypatch)
        journal = VerdictJournal(tmp_path / "j.jsonl", fsync=True)
        journal.close()
        assert str(tmp_path) in calls

    def test_no_directory_fsync_when_durability_is_off(
        self, tmp_path, monkeypatch
    ):
        calls = self._record_dir_fsyncs(monkeypatch)
        VerdictJournal(tmp_path / "j.jsonl", fsync=False).close()
        assert calls == []

    def test_no_directory_fsync_on_resume_of_existing_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "j.jsonl"
        VerdictJournal(path, fsync=False).close()
        calls = self._record_dir_fsyncs(monkeypatch)
        VerdictJournal(path, resume=True, fsync=True).close()
        assert calls == []


class TestFingerprint:
    def test_fingerprint_is_pinned(self):
        """Journals and persisted verdict caches written when
        ``resimulate_cex`` and ``cex_batch_width`` were config fields
        carry them in their headers; the fingerprint keeps both, with the
        engine's fixed values, so those files still bind."""
        from repro.core.strategies import make_generator
        from repro.runtime.journal import FIXED_FINGERPRINT, config_fingerprint
        from repro.sweep import SweepConfig
        from repro.sweep.engine import CEX_BATCH_WIDTH

        net, _ = small_network()
        generator = make_generator("AI+DC+MFFC", net, seed=1)
        assert config_fingerprint(SweepConfig(seed=1), generator) == {
            "seed": 1,
            "random_rounds": 1,
            "random_width": 64,
            "iterations": 20,
            "include_pis": False,
            "match_complements": False,
            "sat_conflict_limit": 20000,
            "resimulate_cex": True,
            "cex_batch_width": 64,
            "max_escalations": 0,
            "escalation_factor": 4,
            "generator": "SimGenGenerator",
        }
        assert FIXED_FINGERPRINT["cex_batch_width"] == CEX_BATCH_WIDTH


class TestGeneratorLabel:
    """The backend twins must share one journal namespace."""

    def test_backend_prefixes_are_stripped(self):
        from repro.runtime.journal import generator_label

        class SimGenGenerator:
            pass

        class BatchSimGenGenerator:
            pass

        labels = {
            generator_label(cls())
            for cls in (SimGenGenerator, BatchSimGenGenerator)
        }
        assert labels == {"SimGenGenerator"}
        assert generator_label(None) == "none"

    def test_real_backends_fingerprint_identically(self):
        from repro.core.strategies import make_generator
        from repro.runtime.journal import config_fingerprint
        from repro.sweep import SweepConfig

        net, _ = small_network()
        config = SweepConfig(seed=3)
        prints = {
            json.dumps(
                config_fingerprint(
                    config,
                    make_generator(
                        "RandS", net, seed=3, backend=backend
                    ),
                ),
                sort_keys=True,
            )
            for backend in ("compiled", "reference")
        }
        assert len(prints) == 1
