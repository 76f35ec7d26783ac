"""Experiment-layer infrastructure: caching, env overrides, rendering."""

from __future__ import annotations

import pytest

from repro.experiments.common import (
    backend_from_env,
    env_int,
    get_universe,
    get_worst_case,
    render_rows,
    suite_circuits,
)
from repro.faultsim.backends import TableBackend


class TestCaches:
    def test_universe_cached(self):
        assert get_universe("lion") is get_universe("lion")

    def test_worst_case_cached(self):
        assert get_worst_case("lion") is get_worst_case("lion")

    def test_worst_case_uses_cached_universe(self):
        u = get_universe("lion")
        wc = get_worst_case("lion")
        assert wc.target_table is u.target_table

    def test_backend_keys_the_cache(self):
        sampled = TableBackend(samples=8, seed=1)
        u_default = get_universe("lion")
        u_sampled = get_universe("lion", sampled)
        assert u_sampled is not u_default
        assert u_sampled is get_universe(
            "lion", TableBackend(samples=8, seed=1)
        )
        assert u_sampled.target_table.universe.size == 8

    def test_explicit_exhaustive_shares_default_cache_entry(self, monkeypatch):
        u_default = get_universe("lion")
        assert get_universe("lion", TableBackend()) is u_default
        monkeypatch.setenv("REPRO_BACKEND", "exhaustive")
        assert get_universe("lion") is u_default

    def test_env_switch_respected_after_default_call(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        u_default = get_universe("lion")
        monkeypatch.setenv("REPRO_BACKEND", "sampled")
        monkeypatch.setenv("REPRO_SAMPLES", "8")
        monkeypatch.setenv("REPRO_SEED", "1")
        u_env = get_universe("lion")
        assert u_env is not u_default
        assert u_env.target_table.universe.size == 8


class TestEnvOverrides:
    def test_env_int_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TESTVAR", raising=False)
        assert env_int("REPRO_TESTVAR", 7) == 7

    def test_env_int_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TESTVAR", "42")
        assert env_int("REPRO_TESTVAR", 7) == 42

    def test_suite_circuits_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CIRCUITS", raising=False)
        assert len(suite_circuits()) == 35

    def test_suite_circuits_custom_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CIRCUITS", raising=False)
        assert suite_circuits(("a", "b")) == ["a", "b"]

    def test_suite_circuits_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CIRCUITS", "lion, keyb ,cse")
        assert suite_circuits() == ["lion", "keyb", "cse"]

    def test_backend_from_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert backend_from_env() is None

    def test_backend_from_env_sampled(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sampled")
        monkeypatch.setenv("REPRO_SAMPLES", "64")
        monkeypatch.setenv("REPRO_SEED", "3")
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert backend_from_env() == TableBackend(samples=64, seed=3)

    def test_backend_from_env_rejects_samples_without_sampling(
        self, monkeypatch
    ):
        from repro.errors import AnalysisError

        monkeypatch.setenv("REPRO_BACKEND", "exhaustive")
        monkeypatch.setenv("REPRO_SAMPLES", "100")
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        with pytest.raises(AnalysisError, match="--samples only applies"):
            backend_from_env()

    def test_backend_from_env_jobs_only(self, monkeypatch):
        from repro.parallel import ParallelBackend

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_JOBS", "2")
        backend = backend_from_env()
        assert isinstance(backend, ParallelBackend)
        assert backend.base == TableBackend()
        assert backend.jobs == 2

    def test_backend_from_env_jobs_wraps_engine(self, monkeypatch):
        from repro.parallel import ParallelBackend

        monkeypatch.setenv("REPRO_BACKEND", "sampled")
        monkeypatch.setenv("REPRO_SAMPLES", "64")
        monkeypatch.setenv("REPRO_SEED", "3")
        monkeypatch.setenv("REPRO_JOBS", "2")
        backend = backend_from_env()
        assert isinstance(backend, ParallelBackend)
        assert backend.base == TableBackend(samples=64, seed=3)

    def test_backend_from_env_jobs_one_is_single_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert backend_from_env() is None


class TestParallelCacheComposition:
    """Parallel-built universes share entries with their base backend
    (the tables are bit-identical, so caching them twice would only
    duplicate hundreds of megabytes)."""

    def test_parallel_shares_base_cache_entry(self, tmp_path, monkeypatch):
        from repro.parallel import ParallelBackend

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        base = TableBackend(samples=8, seed=2)
        u_base = get_universe("lion", base)
        u_parallel = get_universe(
            "lion", ParallelBackend(base=base, jobs=2)
        )
        assert u_parallel is u_base

    def test_parallel_exhaustive_shares_default_entry(
        self, tmp_path, monkeypatch
    ):
        from repro.parallel import ParallelBackend

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        u_default = get_universe("lion")
        wrapped = ParallelBackend(base=TableBackend(), jobs=2)
        assert get_universe("lion", wrapped) is u_default
        assert get_worst_case("lion", wrapped) is get_worst_case("lion")

    def test_env_jobs_shares_default_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        u_default = get_universe("lion")
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert get_universe("lion") is u_default

    def test_executor_normalized_cache_keys(self, tmp_path, monkeypatch):
        # A distributed-built universe and a local build share one LRU
        # entry: the cache keys on the unwrapped base, never on the
        # execution substrate.
        from repro.parallel import InlineExecutor, ParallelBackend
        from repro.parallel.netqueue import TcpExecutor

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        base = TableBackend(samples=8, seed=3)
        u_base = get_universe("lion", base)
        inline = ParallelBackend(base=base, executor=InlineExecutor())
        assert get_universe("lion", inline) is u_base
        # The tcp-wrapped lookup is a cache hit, so the broker itself
        # is never consulted (none is running here).
        networked = ParallelBackend(
            base=base, executor=TcpExecutor(broker="127.0.0.1:1")
        )
        assert get_universe("lion", networked) is u_base

    def test_backend_from_env_executor(self, monkeypatch):
        from repro.parallel import ParallelBackend
        from repro.parallel.netqueue import TcpExecutor

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setenv("REPRO_EXECUTOR", "tcp")
        monkeypatch.setenv("REPRO_BROKER", "h:1")
        backend = backend_from_env()
        assert isinstance(backend, ParallelBackend)
        assert backend.executor == TcpExecutor()
        assert backend.base == TableBackend()
        monkeypatch.delenv("REPRO_EXECUTOR")
        monkeypatch.delenv("REPRO_BROKER")
        assert backend_from_env() is None


class TestRenderRows:
    def test_alignment(self):
        out = render_rows(
            ["name", "v1", "v2"],
            [["a", "1", "22"], ["bbb", "333", "4"]],
        )
        lines = out.splitlines()
        assert len(lines) == 4
        # First column left-aligned, others right-aligned.
        assert lines[2].startswith("a ")
        assert lines[2].rstrip().endswith("22")

    def test_empty_rows(self):
        out = render_rows(["h1", "h2"], [])
        assert "h1" in out

    def test_wide_cells_grow_columns(self):
        out = render_rows(["h"], [["very-long-cell-content"]])
        assert "very-long-cell-content" in out
