"""The one verdict store: its two spills' file layouts, the record
scanner's shape checks, and the journal and the cache answering alike."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JournalError
from repro.network import NetworkBuilder
from repro.runtime import VerdictJournal
from repro.runtime.journal import ReplayRecord, _encode_line, config_fingerprint
from repro.sat.solver import SatResult
from repro.serve import VerdictCache
from repro.simulation.patterns import InputVector
from repro.sweep import SweepConfig


def small_network():
    builder = NetworkBuilder("journal")
    a, b = builder.pis(2)
    g1 = builder.and_(a, b, "g1")
    g2 = builder.and_(a, b, "g2")
    g3 = builder.or_(a, b, "g3")
    builder.po(g3, "f")
    return builder.build(), (a, b, g1, g2, g3)


FP = {"seed": 0, "iterations": 5, "generator": "none"}
FP0 = config_fingerprint(SweepConfig(seed=0), None)
FP1 = config_fingerprint(SweepConfig(seed=1), None)

#: A fresh journal after ``bind`` and ``record_two``, as the format's first
#: release wrote it.
JOURNAL_BYTES = (
    b'aba89dd1\t{"fingerprint":{"generator":"none","iterations":5,"seed":0},'
    b'"kind":"header","network":"1430e12db5117ae6745024e1589571bd",'
    b'"version":1}\n'
    b'572120ed\t{"a":4016596293072754051,"b":4016596293072754051,"c":0,'
    b'"cf":3,"kind":"verdict","l":1000,"o":"unsat","pr":17,"r":0,"v":null}\n'
    b'2f6c032b\t{"a":4016596293072754051,"b":8455488398829451691,"c":1,'
    b'"cf":5,"kind":"verdict","l":4000,"o":"sat","pr":9,"r":1,'
    b'"v":[[0,0],[1,1]]}\n'
)

_NAMESPACE = (
    b'{"fingerprint":{"cex_batch_width":64,"escalation_factor":4,'
    b'"generator":"none","include_pis":false,"iterations":20,'
    b'"match_complements":false,"max_escalations":0,"random_rounds":1,'
    b'"random_width":64,"resimulate_cex":true,"sat_conflict_limit":20000,'
    b'"seed":%d},"id":%d,"kind":"namespace"}\n'
)

#: A cache file after ``record_two`` under one fingerprint and one more
#: verdict under another, as the format's first release wrote it.
CACHE_BYTES = (
    b'76a9eece\t{"kind":"header","version":1}\n'
    + b"b6b3e053\t" + _NAMESPACE % (0, 0)
    + b'aca9760f\t{"a":4016596293072754051,"b":4016596293072754051,"c":0,'
    b'"cf":3,"kind":"verdict","l":1000,"ns":0,"o":"unsat","pr":17,"r":0,'
    b'"v":null}\n'
    b'4bb31f96\t{"a":4016596293072754051,"b":8455488398829451691,"c":1,'
    b'"cf":5,"kind":"verdict","l":4000,"ns":0,"o":"sat","pr":9,"r":1,'
    b'"v":[[0,0],[1,1]]}\n'
    + b"4a6ebae9\t" + _NAMESPACE % (1, 1)
    + b'19418fc3\t{"a":4016596293072754051,"b":8455488398829451691,"c":0,'
    b'"cf":1000,"kind":"verdict","l":1000,"ns":1,"o":"unknown","pr":40,'
    b'"r":0,"v":null}\n'
)


def record_two(session, nodes):
    a, b, g1, g2, g3 = nodes
    session.record(g1, g2, False, 1000, SatResult.UNSAT, None, 3, 17)
    session.record(
        g1, g3, True, 4000, SatResult.SAT, InputVector({b: 1, a: 0}), 5, 9,
        rung=1,
    )


def expected_two(nodes):
    """The two verdicts ``record_two`` stores, as lookups return them."""
    a, b, g1, g2, g3 = nodes
    return {
        (g1, g2, False, 1000): ReplayRecord(SatResult.UNSAT, None, 3, 17, 0),
        (g1, g3, True, 4000): ReplayRecord(
            SatResult.SAT, InputVector({a: 0, b: 1}), 5, 9, 1
        ),
    }


def lookups(session, expected):
    return {pair: session.lookup(*pair) for pair in expected}


class TestLayoutPins:
    """Each spill writes exactly the bytes its format has always had."""

    def test_journal_bytes(self, tmp_path):
        net, nodes = small_network()
        path = tmp_path / "j.jsonl"
        with VerdictJournal(path, fsync=False) as journal:
            journal.bind(net, FP)
            record_two(journal, nodes)
        assert path.read_bytes() == JOURNAL_BYTES

    def test_cache_bytes_with_an_eviction(self, tmp_path):
        net, nodes = small_network()
        path = tmp_path / "c.jsonl"
        with VerdictCache(max_bytes=300, path=str(path)) as cache:
            first = cache.session()
            first.bind(net, FP0)
            record_two(first, nodes)
            second = cache.session()
            second.bind(net, FP1)
            _, _, _, g2, g3 = nodes
            second.record(
                g2, g3, False, 1000, SatResult.UNKNOWN, None, 1000, 40
            )
            assert cache.stats == {
                "hits": 0, "misses": 0, "evictions": 1, "inserts": 3,
                "loaded": 0, "bytes": 243, "entries": 2,
            }
        assert path.read_bytes() == CACHE_BYTES


class TestFilesOfTheFirstRelease:
    """Journals and cache files written before the store was merged load
    with the verdicts they were written with."""

    def test_journal_resumes(self, tmp_path):
        net, nodes = small_network()
        path = tmp_path / "j.jsonl"
        path.write_bytes(JOURNAL_BYTES)
        with VerdictJournal(path, resume=True, fsync=False) as journal:
            journal.bind(net, FP)
            assert journal.stats["loaded_verdicts"] == 2
            expected = expected_two(nodes)
            assert lookups(journal, expected) == expected
        assert path.read_bytes() == JOURNAL_BYTES

    def test_cache_reloads(self, tmp_path):
        net, nodes = small_network()
        path = tmp_path / "c.jsonl"
        path.write_bytes(CACHE_BYTES)
        with VerdictCache(path=str(path)) as cache:
            assert cache.stats["loaded"] == 3
            session = cache.session()
            session.bind(net, FP0)
            expected = expected_two(nodes)
            assert lookups(session, expected) == expected
            other = cache.session()
            other.bind(net, FP1)
            _, _, _, g2, g3 = nodes
            assert other.lookup(g2, g3, False, 1000) == ReplayRecord(
                SatResult.UNKNOWN, None, 1000, 40, 0
            )
        assert path.read_bytes() == CACHE_BYTES


#: CRC-valid verdict records of the wrong shape, each a damaged record.
WRONG_SHAPES = {
    "missing-field": lambda p: {k: v for k, v in p.items() if k != "a"},
    "unknown-outcome": lambda p: {**p, "o": "maybe"},
    "non-integer-counter": lambda p: {**p, "cf": "3"},
    "float-counter": lambda p: {**p, "r": 1.5},
    "vector-not-a-list": lambda p: {**p, "v": {"0": 1}},
    "vector-entry-not-a-pair": lambda p: {**p, "v": [[0, 1, 2]]},
}


def reshape(line: bytes, shape) -> bytes:
    payload = json.loads(line.partition(b"\t")[2])
    return _encode_line(WRONG_SHAPES[shape](payload))


@pytest.mark.parametrize("shape", sorted(WRONG_SHAPES))
class TestWrongShape:
    def test_journal_refuses_it(self, tmp_path, shape):
        """Followed by a valid record, it is corruption."""
        header, first, second = JOURNAL_BYTES.splitlines(keepends=True)
        path = tmp_path / "j.jsonl"
        path.write_bytes(header + reshape(first, shape) + second)
        with pytest.raises(JournalError, match="corrupt record at byte"):
            VerdictJournal(path, resume=True, fsync=False)

    def test_journal_truncates_it_as_a_torn_tail(self, tmp_path, shape):
        header, first, second = JOURNAL_BYTES.splitlines(keepends=True)
        path = tmp_path / "j.jsonl"
        path.write_bytes(header + first + reshape(second, shape))
        with VerdictJournal(path, resume=True, fsync=False) as journal:
            assert journal.stats["torn_tail_truncations"] == 1
            assert journal.stats["loaded_verdicts"] == 1
        assert path.read_bytes() == header + first

    def test_cache_keeps_the_good_prefix(self, tmp_path, shape):
        lines = CACHE_BYTES.splitlines(keepends=True)
        path = tmp_path / "c.jsonl"
        path.write_bytes(
            b"".join(lines[:3]) + reshape(lines[3], shape)
            + b"".join(lines[4:])
        )
        with VerdictCache(path=str(path)) as cache:
            assert cache.stats["loaded"] == 1
        assert path.read_bytes() == b"".join(lines[:3])


class TestJournalAndCacheAgree:
    """One random sequence of calls, replayed through a journal and a
    cache session bound to the same network and fingerprint, returns the
    same answers."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),  # record (True) or lookup
                st.integers(2, 4),
                st.integers(2, 4),
                st.booleans(),
                st.sampled_from([None, 100, 1000]),
                st.sampled_from(list(SatResult)),
                st.one_of(st.none(), st.tuples(st.booleans(), st.booleans())),
                st.integers(0, 5000),
                st.integers(0, 3),
            ),
            max_size=30,
        )
    )
    def test_same_answers(self, tmp_path_factory, calls):
        net, nodes = small_network()
        a, b = nodes[:2]
        journal = VerdictJournal(
            tmp_path_factory.mktemp("j") / "j.jsonl", fsync=False
        )
        journal.bind(net, FP)
        cache_session = VerdictCache().session()
        cache_session.bind(net, FP)
        with journal:
            for is_record, rep, member, comp, limit, outcome, bits, cf, rung in (
                calls
            ):
                pair = (nodes[rep], nodes[member], comp, limit)
                if is_record:
                    vector = None if bits is None else InputVector(
                        {a: int(bits[0]), b: int(bits[1])}
                    )
                    answers = [
                        session.record(
                            *pair, outcome, vector, cf, cf + 1, rung=rung
                        )
                        for session in (journal, cache_session)
                    ]
                else:
                    answers = [
                        session.lookup(*pair)
                        for session in (journal, cache_session)
                    ]
                assert answers[0] == answers[1]
            for name in ("appends", "replayed_verdicts"):
                assert journal.stats[name] == cache_session.stats[name]
