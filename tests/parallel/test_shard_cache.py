"""The persistent shard cache: keying, atomicity, degradation."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.bench_suite.registry import get_circuit
from repro.faults.stuck_at import collapsed_stuck_at_faults
from repro.faultsim.backends import SerialBackend, TableBackend
from repro.parallel import (
    InlineExecutor,
    ParallelBackend,
    ShardCache,
    backend_cache_key,
    cache_stats,
    circuit_digest,
    default_cache_dir,
    reset_cache_stats,
    shard_key,
)


@pytest.fixture()
def cache(tmp_path):
    return ShardCache(tmp_path / "shards")


class TestKeys:
    def test_circuit_digest_stable(self):
        assert circuit_digest(get_circuit("lion")) == circuit_digest(
            get_circuit("lion")
        )

    def test_circuit_digest_distinguishes_structures(self):
        assert circuit_digest(get_circuit("lion")) != circuit_digest(
            get_circuit("train4")
        )

    def test_backend_key_covers_configuration(self):
        assert backend_cache_key(TableBackend(samples=8, seed=1)) != (
            backend_cache_key(TableBackend(samples=8, seed=2))
        )
        assert backend_cache_key(TableBackend(samples=8, seed=1)) == (
            backend_cache_key(TableBackend(samples=8, seed=1))
        )

    def test_shard_key_sensitivity(self):
        circuit = get_circuit("lion")
        digest = circuit_digest(circuit)
        faults = collapsed_stuck_at_faults(circuit)
        base = shard_key(digest, TableBackend(), "stuck_at", faults[:4])
        assert base == shard_key(
            digest, TableBackend(), "stuck_at", faults[:4]
        )
        # Any input change re-addresses the entry.
        assert base != shard_key(
            digest, TableBackend(), "stuck_at", faults[:5]
        )
        assert base != shard_key(
            digest, TableBackend(), "bridging", faults[:4]
        )
        assert base != shard_key(
            digest, TableBackend(samples=8), "stuck_at", faults[:4]
        )
        assert base != shard_key(
            circuit_digest(get_circuit("train4")), TableBackend(),
            "stuck_at", faults[:4],
        )

    def test_shard_key_bytes_are_pinned(self, monkeypatch):
        """Key bytes change only with the format version.

        Format v3 keys the fault slice by its columns' little-endian
        bytes (v2 joined one text token per fault object).  The format
        version is the first piece of key material, so a version bump
        alone re-addresses every entry.
        """
        import repro.parallel.cache as cache_module

        circuit = get_circuit("lion")
        faults = collapsed_stuck_at_faults(circuit)

        def key():
            return shard_key(
                circuit_digest(circuit), SerialBackend(), "stuck_at",
                faults[:4],
            )

        pinned = (
            "7a362d46be26da11fe1728de757ceeb5661dcb63feefbc6f3cdd25fc10068922"
        )
        assert key() == pinned
        monkeypatch.setattr(cache_module, "CACHE_FORMAT_VERSION", 2)
        assert key() != pinned

    def test_sharded_build_hashes_the_circuit_once(
        self, monkeypatch, tmp_path
    ):
        import repro.parallel.backend as parallel_backend
        import repro.parallel.cache as cache_module

        calls = []
        digest = cache_module.circuit_digest

        def counting_digest(circuit):
            calls.append(circuit.name)
            return digest(circuit)

        monkeypatch.setattr(cache_module, "circuit_digest", counting_digest)
        monkeypatch.setattr(
            parallel_backend, "circuit_digest", counting_digest
        )
        backend = ParallelBackend(
            base=TableBackend(),
            executor=InlineExecutor(),
            cache_dir=str(tmp_path),
        )
        circuit = get_circuit("lion")
        for _ in range(2):  # cold (all misses), then warm (all hits)
            calls.clear()
            backend.build_bridging(circuit)
            assert calls == ["lion"]


class TestStore:
    KEY = "a" * 64

    def test_roundtrip(self, cache):
        import numpy as np

        words = np.array([0, 1, 2**64 - 3], dtype="<u8").tobytes()
        cache.put(self.KEY, words)
        assert cache.get(self.KEY) == words
        assert cache.hits == 1 and cache.misses == 0 and cache.stores == 1
        # An entry is the 16-byte header, then the payload verbatim.
        raw = cache.entries()[0].read_bytes()
        assert raw[:8] == b"RPSHARD\0"
        assert int.from_bytes(raw[8:16], "little") == 3
        assert raw[16:] == words

    def test_miss(self, cache):
        assert cache.get(self.KEY) is None
        assert cache.misses == 1

    def test_repeated_put_is_a_hit_not_a_rewrite(self, cache):
        # Content-addressed: a second writer of the same key lost a race
        # against an identical payload; the existing entry is a hit and
        # is never hammered (here the differing value makes the
        # keep-first behavior observable).
        cache.put(self.KEY, b"\x01" * 8)
        assert cache.stores == 1
        cache.put(self.KEY, b"\x01" * 8)
        assert cache.stores == 1 and cache.hits == 1
        assert cache.get(self.KEY) == b"\x01" * 8
        assert len(cache.entries()) == 1
        # No stray temp files left behind.
        assert list(cache.root.glob("*.tmp")) == []

    def test_corrupt_entry_is_a_miss(self, cache):
        cache.put(self.KEY, b"\x07" * 8)
        path = cache.entries()[0]
        path.write_bytes(b"not a pickle")
        assert cache.get(self.KEY) is None

    def test_put_repairs_corrupt_entry(self, cache):
        # Self-heal: only a *readable* existing entry short-circuits
        # put; a torn one (crashed host mid-write on a shared mount)
        # must be overwritten, or the key would miss forever.
        cache.put(self.KEY, b"\x07" * 8)
        cache.entries()[0].write_bytes(b"not a pickle")
        cache.put(self.KEY, b"\x07" * 8)
        assert cache.get(self.KEY) == b"\x07" * 8
        # A readable entry with other bytes (e.g. the wrong length) is
        # overwritten too, not kept as a lost race.
        cache.put(self.KEY, b"\x07" * 16)
        assert cache.stores == 3
        assert cache.get(self.KEY) == b"\x07" * 16

    def test_wrong_version_is_a_miss(self, cache):
        cache.put(self.KEY, b"\x07" * 8)
        path = cache.entries()[0]
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + (1).to_bytes(8, "little") + raw[16:])
        assert cache.get(self.KEY) is None

    def test_clear_and_inspect(self, cache):
        for i in range(3):
            cache.put(f"{i}" * 64, bytes([i]) * 8)
        assert len(cache.entries()) == 3
        assert cache.total_bytes() > 0
        assert cache.clear() == 3
        assert cache.entries() == []
        assert cache.total_bytes() == 0

    def test_unwritable_root_degrades_silently(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should be")
        cache = ShardCache(blocker)  # mkdir will fail with EEXIST/ENOTDIR
        cache.put(self.KEY, b"\x01" * 8)  # must not raise
        assert cache.stores == 0
        assert cache.get(self.KEY) is None

    def test_global_stats_aggregate_instances(self, tmp_path):
        reset_cache_stats()
        a = ShardCache(tmp_path / "s")
        a.put(self.KEY, b"\x05" * 8)
        b = ShardCache(tmp_path / "s")  # a fresh instance, same directory
        assert b.get(self.KEY) == b"\x05" * 8
        stats = cache_stats()
        assert stats["stores"] == 1
        assert stats["hits"] == 1

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro" / "shards"


def _hammer_one_key(args):
    """Worker for the multi-writer race test (picklable by reference)."""
    root, key, rounds = args
    cache = ShardCache(root)
    for _ in range(rounds):
        cache.put(key, bytes(range(64)))
    return cache.stores


class TestConcurrentWriters:
    """Racing writers of one key never tear or duplicate the entry."""

    KEY = "c" * 64

    def test_two_processes_hammering_same_key(self, tmp_path):
        import multiprocessing

        root = str(tmp_path / "shards")
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2) as pool:
            stores = pool.map(
                _hammer_one_key, [(root, self.KEY, 50)] * 2
            )
        # At least one writer persisted the entry; losers saw it as a
        # hit instead of rewriting.  Whatever the interleaving, the
        # surviving entry is complete and readable, there is exactly
        # one of it, and no temp droppings remain.
        assert sum(stores) >= 1
        cache = ShardCache(root)
        assert cache.get(self.KEY) == bytes(range(64))
        assert len(cache.entries()) == 1
        assert list(cache.root.glob("*.tmp")) == []


class TestVersions:
    """Format-version accounting behind `repro cache info`."""

    def test_version_counts(self, cache):
        from repro.parallel.cache import CACHE_FORMAT_VERSION

        assert CACHE_FORMAT_VERSION == 3
        assert cache.versions() == {}
        cache.put("a" * 64, b"\x01" * 8)
        cache.put("b" * 64, b"\x02" * 8)
        assert cache.versions() == {"v3": 2}

    def test_v2_entry_is_a_miss(self, cache):
        """A format-v2 entry (raw words under the previous header) is
        counted under its version and never served."""
        cache.put("a" * 64, b"\x01" * 8)
        path = cache.entries()[0]
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + (2).to_bytes(8, "little") + raw[16:])
        assert cache.versions() == {"v2": 1}
        assert cache.get("a" * 64) is None
        cache.put("a" * 64, b"\x01" * 8)
        assert cache.versions() == {"v3": 1}
        assert cache.get("a" * 64) == b"\x01" * 8

    def test_stale_and_corrupt_entries_are_tallied(self, cache, tmp_path):
        cache.put("a" * 64, b"\x01" * 8)
        (cache.root / ("d" * 64 + ".pkl")).write_bytes(b"not a pickle")
        # A format-v1 entry whose unpickling would run code: the cache
        # must never execute it, only count it stale and replace it.
        marker = tmp_path / "unpickled"
        hostile = pickle.dumps(
            {"version": 1, "signatures": _RunsOnLoad(str(marker))}
        )
        (cache.root / ("e" * 64 + ".pkl")).write_bytes(hostile)
        assert cache.versions() == {"stale": 2, "v3": 1}
        # The stale entries are exactly what get() refuses to serve.
        assert cache.get("d" * 64) is None
        assert cache.get("e" * 64) is None
        cache.put("e" * 64, b"\x03" * 8)
        assert cache.get("e" * 64) == b"\x03" * 8
        assert cache.versions() == {"stale": 1, "v3": 2}
        assert not marker.exists()
        # The payload was live: unpickling it does run the call.
        pickle.loads(hostile)
        assert marker.exists()


class _RunsOnLoad:
    """Pickles as a call to ``os.mkdir(path)`` at load time."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (os.mkdir, (self.path,))
