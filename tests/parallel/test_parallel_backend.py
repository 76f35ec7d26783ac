"""ParallelBackend: protocol conformance, identity, cache behavior.

The bit-for-bit differential sweeps against every base engine live in
``tests/test_backend_differential.py`` (and the packed variants in
``tests/test_packed_differential.py``); this module covers the
subsystem's own contract — configuration validation, shard-layout
independence, the warm-cache acceptance property, and how the
front ends' ``jobs`` reaches a
:class:`~repro.faults.universe.FaultUniverse` as a wrapped backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.bench_suite.registry import get_circuit
from repro.errors import AnalysisError
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import (
    DetectionBackend,
    TableBackend,
    make_backend,
)
from repro.faultsim.detection import DetectionTable
from repro.logic.packed import PackedSignatureMatrix
from repro.options import backend_from_options, executor_from_options
from repro.parallel import (
    InlineExecutor,
    ParallelBackend,
    PoolExecutor,
    ShardCache,
    cache_stats,
    maybe_parallel,
    reset_cache_stats,
    run_shard,
)


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "shards")


class TestConfiguration:
    def test_satisfies_protocol(self):
        assert isinstance(
            ParallelBackend(base=TableBackend()), DetectionBackend
        )

    def test_rejects_nesting(self):
        inner = ParallelBackend(base=TableBackend())
        with pytest.raises(AnalysisError, match="nest"):
            ParallelBackend(base=inner)

    def test_rejects_bad_jobs(self):
        # The worker count is the pool's: a backend takes no jobs.
        with pytest.raises(TypeError):
            ParallelBackend(base=TableBackend(), jobs=2)
        with pytest.raises(AnalysisError, match="jobs"):
            ParallelBackend(base=TableBackend(), executor=PoolExecutor(0))

    def test_rejects_bad_shards(self):
        with pytest.raises(AnalysisError, match="shards"):
            ParallelBackend(base=TableBackend(), shards=0)

    def test_hashable_for_cache_keys(self):
        a = ParallelBackend(base=TableBackend(samples=8, seed=1))
        b = ParallelBackend(base=TableBackend(samples=8, seed=1))
        assert a == b and hash(a) == hash(b)

    def test_maybe_parallel(self):
        base = TableBackend()
        assert maybe_parallel(base, None) is base
        wrapped = maybe_parallel(base, PoolExecutor(jobs=3))
        assert isinstance(wrapped, ParallelBackend)
        assert wrapped.executor == PoolExecutor(jobs=3)
        # Already-parallel backends pass through un-nested.
        assert maybe_parallel(wrapped, InlineExecutor()) is wrapped

    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert executor_from_options({}) is None
        assert executor_from_options({"jobs": 4}) == PoolExecutor(jobs=4)
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert executor_from_options({}) == PoolExecutor(jobs=3)
        # explicit beats env
        assert executor_from_options({"jobs": 2}) == PoolExecutor(jobs=2)
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(AnalysisError, match="REPRO_JOBS"):
            executor_from_options({})
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(AnalysisError, match="REPRO_JOBS must be >= 1"):
            executor_from_options({})
        with pytest.raises(AnalysisError, match="--jobs must be >= 1"):
            executor_from_options({"jobs": 0})

    def test_make_backend_jobs(self):
        backend = make_backend(
            "sampled", samples=8, seed=1, executor=PoolExecutor(jobs=2)
        )
        assert isinstance(backend, ParallelBackend)
        assert backend.base == TableBackend(samples=8, seed=1)
        assert make_backend("exhaustive", executor=None) == TableBackend()


class TestShardLayoutIndependence:
    """The merged table never depends on the shard or worker count."""

    def test_any_shard_count_is_identical(self, cache_dir):
        circuit = get_circuit("lion")
        reference = FaultUniverse(circuit)
        for shards in (1, 2, 3, 5, 64):
            backend = ParallelBackend(
                base=TableBackend(),
                executor=PoolExecutor(jobs=2),
                shards=shards,
                cache_dir=cache_dir,
            )
            u = FaultUniverse(circuit, backend=backend)
            assert u.target_table.packed.to_bigints() == (
                reference.target_table.packed.to_bigints()
            )
            assert u.untargeted_table.packed.to_bigints() == (
                reference.untargeted_table.packed.to_bigints()
            )
            assert u.untargeted_table.faults == (
                reference.untargeted_table.faults
            )

    def test_drop_undetectable_applied_after_merge(self, cache_dir):
        # More shards than detectable faults: the drop must behave as if
        # the table had been built in one piece.
        circuit = get_circuit("lion")
        backend = ParallelBackend(
            base=TableBackend(),
            executor=PoolExecutor(jobs=2),
            shards=64,
            cache_dir=cache_dir,
        )
        single = FaultUniverse(circuit).untargeted_table
        parallel = FaultUniverse(circuit, backend=backend).untargeted_table
        assert parallel.faults == single.faults
        assert all(sig for sig in parallel.packed.to_bigints())

    def test_explicit_empty_fault_list(self, cache_dir):
        circuit = get_circuit("lion")
        backend = ParallelBackend(
            base=TableBackend(),
            executor=PoolExecutor(jobs=2),
            cache_dir=cache_dir,
        )
        table = backend.build_stuck_at(circuit, faults=[])
        assert len(table) == 0


class TestShardCacheAcceptance:
    """A repeated build hits the warm shard cache (acceptance criterion)."""

    def test_warm_cache_hit_on_repeated_build(self, cache_dir):
        circuit = get_circuit("beecount")
        backend = ParallelBackend(
            base=TableBackend(samples=16,
            seed=3),
            executor=PoolExecutor(jobs=2),
            cache_dir=cache_dir,
        )
        reset_cache_stats()
        cold = FaultUniverse(circuit, backend=backend)
        cold.target_table, cold.untargeted_table
        cold_stats = cache_stats()
        assert cold_stats["hits"] == 0
        assert cold_stats["stores"] > 0
        warm = FaultUniverse(circuit, backend=backend)
        warm.target_table, warm.untargeted_table
        warm_stats = cache_stats()
        assert warm_stats["misses"] == cold_stats["misses"]  # no new misses
        assert warm_stats["hits"] == cold_stats["stores"]  # every shard hit
        assert warm.target_table.packed == cold.target_table.packed

    def test_cache_shared_across_jobs_values(self, cache_dir):
        # The shard layout is jobs-independent, so a jobs=4 run reuses
        # every shard a jobs=2 run stored.
        circuit = get_circuit("lion")
        first = ParallelBackend(
            base=TableBackend(),
            executor=PoolExecutor(jobs=2),
            cache_dir=cache_dir,
        )
        u1 = FaultUniverse(circuit, backend=first)
        u1.target_table, u1.untargeted_table
        reset_cache_stats()
        second = ParallelBackend(
            base=TableBackend(),
            executor=PoolExecutor(jobs=4),
            cache_dir=cache_dir,
        )
        u2 = FaultUniverse(circuit, backend=second)
        u2.target_table, u2.untargeted_table
        stats = cache_stats()
        assert stats["misses"] == 0
        assert stats["hits"] > 0
        assert u2.target_table.packed == u1.target_table.packed

    def test_use_cache_false_never_touches_disk(self, tmp_path):
        root = tmp_path / "never"
        backend = ParallelBackend(
            base=TableBackend(),
            executor=PoolExecutor(jobs=2),
            cache_dir=str(root),
            use_cache=False,
        )
        u = FaultUniverse(get_circuit("lion"), backend=backend)
        u.target_table, u.untargeted_table
        assert not root.exists()


class TestShardPayload:
    """The shard payload is raw word bytes, decoded only at the merge."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.usefixtures("fresh_pools")
    def test_sharded_build_derives_no_bigints(
        self, jobs, cache_dir, monkeypatch
    ):
        calls = []

        def forbidden(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called in a sharded build")

            return call

        # Raising (not only counting) also catches calls in forked pool
        # workers, whose counters would not reach this process; the
        # fresh pool forks after the patch, so its workers see it.
        monkeypatch.setattr(
            PackedSignatureMatrix, "to_bigints", forbidden("to_bigints")
        )
        monkeypatch.setattr(
            DetectionTable, "from_signatures",
            classmethod(forbidden("from_signatures")),
        )
        circuit = get_circuit("lion")
        backend = ParallelBackend(
            base=TableBackend(),
            executor=PoolExecutor(jobs=jobs),
            cache_dir=cache_dir,
        )
        reset_cache_stats()
        reference = None
        for _ in ("cold", "warm"):
            tables = (
                backend.build_stuck_at(circuit),
                backend.build_bridging(circuit),
            )
            assert reference is None or tables == reference
            reference = tables
        assert calls == []
        assert cache_stats()["hits"] > 0

    def test_wrong_length_cache_entry_is_rebuilt(self, cache_dir):
        circuit = get_circuit("lion")
        backend = ParallelBackend(
            base=TableBackend(), executor=InlineExecutor(), cache_dir=cache_dir
        )
        expected = backend.build_bridging(circuit)
        cache = ShardCache(cache_dir)
        entry = cache.entries()[0]
        entry.write_bytes(entry.read_bytes()[:-8])  # one word short
        reset_cache_stats()
        assert backend.build_bridging(circuit) == expected
        assert cache_stats()["stores"] == 1  # the short entry, rewritten
        reset_cache_stats()
        assert backend.build_bridging(circuit) == expected
        assert cache_stats()["stores"] == 0

    @pytest.mark.parametrize(
        "damage, message",
        [
            # Bit 63 of the first row's last word: beyond a 16-bit row.
            (lambda words: words[:7] + bytes([words[7] | 0x80]) + words[8:],
             "beyond the 16-bit universe"),
            (lambda words: words[:-8], "bytes"),
        ],
        ids=["padding-bit", "short"],
    )
    def test_malformed_payload_raises_at_merge(self, damage, message):
        backend = ParallelBackend(
            base=TableBackend(samples=16, seed=3),
            executor=_DamagingExecutor(damage),
            use_cache=False,
        )
        with pytest.raises(AnalysisError, match=message):
            backend.build_stuck_at(get_circuit("lion"))


@dataclass(frozen=True)
class _DamagingExecutor:
    """Inline execution that corrupts the first shard's payload."""

    damage: object
    name: str = "damaging"

    def submit(self, tasks):
        outcomes = [run_shard(task) for task in tasks]
        index, words = outcomes[0]
        outcomes[0] = (index, self.damage(words))
        return outcomes

    def describe(self):
        return self.name


class TestFaultUniverseJobs:
    """``--jobs`` reaches a universe as the backend it is given."""

    @pytest.fixture(autouse=True)
    def _no_env_execution(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)

    @staticmethod
    def universe(**options):
        backend = backend_from_options({"backend": "exhaustive", **options})
        return FaultUniverse(get_circuit("lion"), backend=backend)

    def test_jobs_wraps_backend(self, cache_dir):
        u = self.universe(jobs=2)
        assert isinstance(u.backend, ParallelBackend)
        assert u.backend.base == TableBackend()
        assert u.backend.executor == PoolExecutor(jobs=2)

    def test_jobs_one_stays_single_process(self):
        assert self.universe(jobs=1).backend == TableBackend()

    def test_jobs_composes_with_backend(self):
        u = self.universe(backend="sampled", samples=8, seed=1, jobs=2)
        assert isinstance(u.backend, ParallelBackend)
        assert u.backend.base == TableBackend(samples=8, seed=1)

    def test_parallel_backend_passes_through(self):
        backend = ParallelBackend(TableBackend(), executor=PoolExecutor(3))
        wrapped = maybe_parallel(backend, PoolExecutor(jobs=2))
        u = FaultUniverse(get_circuit("lion"), backend=wrapped)
        assert u.backend is backend

    def test_bad_jobs_rejected(self):
        with pytest.raises(AnalysisError, match="jobs"):
            self.universe(jobs=0)
