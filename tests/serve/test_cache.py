"""VerdictCache / CacheSession: keying, bounds, durability, transfer."""

import pytest

from repro.errors import JournalError
from repro.io import bench_text, parse_bench
from repro.runtime.journal import config_fingerprint
from repro.sat.solver import SatResult
from repro.serve import VerdictCache, fingerprint_key
from repro.simulation.patterns import InputVector
from repro.sweep import SweepConfig
from tests.conftest import random_network


def sample_payload(a="sa", b="sb", outcome="unsat"):
    return {
        "a": a, "b": b, "c": 0, "l": 1000,
        "o": outcome, "v": None, "cf": 3, "pr": 17, "r": 0,
    }


def sample_key(fp=None, a="sa", b="sb"):
    # Store keys carry the canonical-JSON fingerprint (what sessions build).
    return (fp or fingerprint_key({"cfg": 1}), a, b, False, 1000)


class TestFingerprintKey:
    def test_order_insensitive(self):
        assert fingerprint_key({"a": 1, "b": 2}) == fingerprint_key(
            {"b": 2, "a": 1}
        )

    def test_distinguishes_values(self):
        assert fingerprint_key({"a": 1}) != fingerprint_key({"a": 2})


class TestStoreBounds:
    def test_hit_miss_counters(self):
        cache = VerdictCache()
        key = sample_key()
        assert cache.get(key) is None
        assert cache.put(key, sample_payload())
        assert cache.get(key) == sample_payload()
        stats = cache.stats
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["inserts"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] > 0

    def test_duplicate_put_is_noop(self):
        cache = VerdictCache()
        key = sample_key()
        assert cache.put(key, sample_payload())
        assert not cache.put(key, sample_payload())
        assert cache.stats["inserts"] == 1

    def test_eviction_respects_lru_touch(self):
        one = len(
            __import__(
                "repro.runtime.journal", fromlist=["_encode_line"]
            )._encode_line(sample_payload())
        )
        cache = VerdictCache(max_bytes=3 * one)
        for name in ("k0", "k1", "k2"):
            cache.put(sample_key(a=name), sample_payload(a=name))
        cache.get(sample_key(a="k0"))  # touch: k0 becomes most recent
        cache.put(sample_key(a="k3"), sample_payload(a="k3"))  # evicts k1
        assert cache.get(sample_key(a="k0")) is not None
        assert cache.get(sample_key(a="k1")) is None
        assert cache.stats["evictions"] == 1
        assert cache.stats["bytes"] <= 3 * one

    def test_consume_stats_returns_deltas(self):
        cache = VerdictCache()
        cache.put(sample_key(), sample_payload())
        first = cache.consume_stats()
        assert first["inserts"] == 1
        assert first["entries"] == 1
        assert cache.consume_stats() == {}
        cache.get(sample_key())
        assert cache.consume_stats() == {"hits": 1}


class TestDurability:
    def test_reload_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with VerdictCache(path=str(path)) as cache:
            cache.put(sample_key(a="x"), sample_payload(a="x"))
            cache.put(sample_key(a="y"), sample_payload(a="y"))
        with VerdictCache(path=str(path)) as reloaded:
            assert reloaded.stats["loaded"] == 2
            assert reloaded.get(sample_key(a="x")) == sample_payload(a="x")
            assert reloaded.get(sample_key(a="y")) == sample_payload(a="y")

    def test_torn_tail_truncated(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with VerdictCache(path=str(path)) as cache:
            cache.put(sample_key(a="x"), sample_payload(a="x"))
        intact = path.read_bytes()
        path.write_bytes(intact + b"deadbeef\tgarbage")
        with VerdictCache(path=str(path)) as reloaded:
            assert reloaded.stats["loaded"] == 1
        assert path.read_bytes() == intact

    def test_appends_survive_alongside_loaded_prefix(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with VerdictCache(path=str(path)) as cache:
            cache.put(sample_key(a="x"), sample_payload(a="x"))
        with VerdictCache(path=str(path)) as cache:
            cache.put(sample_key(a="y"), sample_payload(a="y"))
        with VerdictCache(path=str(path)) as reloaded:
            assert reloaded.stats["loaded"] == 2

    def test_version_mismatch_refused(self, tmp_path):
        from repro.runtime.journal import _encode_line

        path = tmp_path / "cache.jsonl"
        path.write_bytes(_encode_line({"kind": "header", "version": 99}))
        with pytest.raises(JournalError, match="version"):
            VerdictCache(path=str(path))


class TestSessionTransfer:
    """Verdicts recorded against one network replay against another."""

    def fingerprint(self):
        return config_fingerprint(SweepConfig(seed=5), generator=None)

    def test_cross_network_replay_with_vector(self):
        from repro.transforms.strash import node_signatures

        net_a = random_network(seed=4, num_inputs=5, num_gates=18)
        net_b = parse_bench(bench_text(net_a))  # same structure, new uids
        gates_a = [n.uid for n in net_a.gates()][:2]
        # The re-parse renumbers uids and may reorder gates; find net_b's
        # counterparts by structural signature (how the cache keys them).
        sig_a = node_signatures(net_a)
        by_sig = {
            sig: uid for uid, sig in node_signatures(net_b).items()
        }
        gates_b = [by_sig[sig_a[uid]] for uid in gates_a]
        cache = VerdictCache()
        writer = cache.session()
        writer.bind(net_a, self.fingerprint())
        vector = InputVector({pi: i % 2 for i, pi in enumerate(net_a.pis)})
        assert writer.record(
            gates_a[0], gates_a[1], False, 1000,
            SatResult.SAT, vector, 7, 40,
        )
        assert writer.stats["appends"] == 1

        reader = cache.session()
        reader.bind(net_b, self.fingerprint())
        # Matching cone signatures mean the verdict replays...
        replay = reader.lookup(gates_b[0], gates_b[1], False, 1000)
        assert replay is not None
        assert replay.outcome is SatResult.SAT
        assert replay.conflicts == 7
        # ...and the positional vector decodes onto net_b's own PI uids.
        assert replay.vector.values == {
            pi: i % 2 for i, pi in enumerate(net_b.pis)
        }
        assert reader.stats["replayed_verdicts"] == 1

    @pytest.mark.parametrize(
        "stored",
        [[[-1, 1]], [[5, 1]], [[0, 2]]],
        ids=["negative-index", "index-past-end", "bad-bit"],
    )
    def test_vector_that_does_not_fit_is_a_miss(self, stored):
        """The cache is advisory: a stored counterexample that does not
        fit the session's PI list is a miss, never a replay on the wrong
        inputs."""
        from repro.transforms.strash import node_signatures

        net = random_network(seed=4, num_inputs=5, num_gates=18)
        gates = [n.uid for n in net.gates()][:2]
        signature = node_signatures(net)
        key = (
            fingerprint_key(self.fingerprint()),
            signature[gates[0]],
            signature[gates[1]],
            False,
            1000,
        )
        cache = VerdictCache()
        cache.put(
            key,
            {
                "a": key[1], "b": key[2], "c": 0, "l": 1000,
                "o": "sat", "v": stored, "cf": 1, "pr": 1, "r": 0,
            },
        )
        session = cache.session()
        session.bind(net, self.fingerprint())
        assert session.lookup(gates[0], gates[1], False, 1000) is None
        assert session.stats == {
            "appends": 0,
            "replayed_verdicts": 0,
            "misses": 1,
            "torn_tail_truncations": 0,
        }
        # The store counts the rejected entry once, as a miss, like the
        # session that rejected it.
        store = cache.stats
        assert (store["hits"], store["misses"]) == (0, 1)

    def test_fingerprint_partitions_verdicts(self):
        net = random_network(seed=4, num_inputs=5, num_gates=18)
        gates = [n.uid for n in net.gates()]
        cache = VerdictCache()
        writer = cache.session()
        writer.bind(net, self.fingerprint())
        writer.record(
            gates[0], gates[1], False, 1000, SatResult.UNSAT, None, 0, 5
        )
        other = cache.session()
        other.bind(
            net, config_fingerprint(SweepConfig(seed=6), generator=None)
        )
        assert other.lookup(gates[0], gates[1], False, 1000) is None
        assert other.stats["misses"] == 1

    def test_unbound_session_refuses(self):
        session = VerdictCache().session()
        with pytest.raises(JournalError, match="not bound"):
            session.lookup(0, 1, False, None)

    def test_consume_stats_deltas(self):
        net = random_network(seed=4, num_inputs=5, num_gates=18)
        gates = [n.uid for n in net.gates()]
        session = VerdictCache().session()
        session.bind(net, self.fingerprint())
        session.lookup(gates[0], gates[1], False, None)
        assert session.consume_stats() == {"misses": 1}
        assert session.consume_stats() == {}
