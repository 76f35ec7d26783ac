"""The ShardExecutor protocol: conformance, factories, injection.

Broker mechanics (leases, heartbeats, retries, the worker loop) live in
``test_netqueue.py``; the executor × base-engine bit-identity sweeps
live with the other differential suites in
``tests/test_backend_differential.py``.  This module covers the
protocol itself — the three implementations' configuration contracts,
the ``--executor``/``REPRO_EXECUTOR`` factories (resolved once, by
:func:`repro.options.executor_from_options`), and how executors are
injected through ``ParallelBackend`` / ``maybe_parallel`` / the
adaptive controller.
"""

from __future__ import annotations

import pytest

from repro.adaptive import AdaptiveBackend
from repro.bench_suite.registry import get_circuit
from repro.errors import AnalysisError
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import (
    TableBackend,
    make_backend,
)
from repro.options import backend_from_options, executor_from_options
from repro.parallel import (
    InlineExecutor,
    ParallelBackend,
    PoolExecutor,
    ShardExecutor,
    make_executor,
    maybe_parallel,
)
from repro.parallel.netqueue import TcpExecutor


class TestProtocol:
    def test_all_three_satisfy_protocol(self):
        for executor in (
            InlineExecutor(),
            PoolExecutor(jobs=2),
            TcpExecutor(broker="h:1"),
        ):
            assert isinstance(executor, ShardExecutor)

    def test_describe(self):
        assert InlineExecutor().describe() == "inline"
        assert PoolExecutor(jobs=3).describe() == "pool jobs=3"
        assert TcpExecutor(broker="h:1").describe() == "tcp"

    def test_pool_rejects_bad_jobs(self):
        with pytest.raises(AnalysisError, match="jobs"):
            PoolExecutor(jobs=0)


class TestFactories:
    def test_make_executor_names(self):
        assert make_executor("inline") == InlineExecutor()
        assert make_executor("pool") == PoolExecutor(jobs=2)
        assert make_executor("pool", jobs=5) == PoolExecutor(jobs=5)
        assert make_executor("tcp", broker="h:1") == TcpExecutor(
            broker="h:1"
        )

    def test_make_executor_pool_honours_explicit_jobs_one(
        self, monkeypatch
    ):
        # A user who pinned one worker gets one (PoolExecutor(1) runs
        # inline); only *unspecified* jobs falls back to a real pool.
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert make_executor("pool", jobs=1) == PoolExecutor(jobs=1)
        pool = {"executor": "pool"}
        assert executor_from_options({**pool, "jobs": 1}) == PoolExecutor(
            jobs=1
        )
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert executor_from_options(pool) == PoolExecutor(jobs=3)
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert executor_from_options(pool) == PoolExecutor(jobs=2)

    def test_make_executor_unknown_name(self):
        with pytest.raises(AnalysisError, match="unknown executor"):
            make_executor("cluster")

    def test_tcp_requires_broker(self, monkeypatch):
        monkeypatch.delenv("REPRO_BROKER", raising=False)
        with pytest.raises(AnalysisError, match="broker address"):
            make_executor("tcp")

    def test_broker_only_for_tcp(self):
        # The resolver refuses a broker for any other executor, so
        # make_executor (its one caller) never sees one.
        for name in ("inline", "pool"):
            with pytest.raises(AnalysisError) as err:
                executor_from_options({"executor": name, "broker": "h:1"})
            assert str(err.value) == (
                "--broker only applies to --executor tcp "
                f"(got --executor {name})"
            )

    def test_resolve_executor_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert executor_from_options({}) is None
        monkeypatch.setenv("REPRO_EXECUTOR", "pool")
        assert executor_from_options({"jobs": 3}) == PoolExecutor(jobs=3)
        # An explicit name beats the environment.
        assert executor_from_options(
            {"executor": "inline"}
        ) == InlineExecutor()

    def test_resolve_executor_tcp_env_broker(self, monkeypatch):
        # The broker address is resolved at submit time, so the
        # executor value itself stays host-independent.
        monkeypatch.setenv("REPRO_EXECUTOR", "tcp")
        monkeypatch.setenv("REPRO_BROKER", "h:1")
        assert executor_from_options({}) == TcpExecutor()
        assert executor_from_options({}).resolved_address() == ("h", 1)

    def test_resolve_rejects_orphan_broker(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        with pytest.raises(AnalysisError, match="--broker"):
            executor_from_options({"broker": "h:1"})


class TestParallelBackendIntegration:
    def test_jobs_sugar_resolves_executor(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert executor_from_options({"jobs": 1}) is None
        assert executor_from_options({"jobs": 4}) == PoolExecutor(jobs=4)
        assert ParallelBackend(TableBackend()).executor == PoolExecutor()

    def test_explicit_executor_wins_over_jobs(self):
        assert executor_from_options(
            {"jobs": 4, "executor": "inline"}
        ) == InlineExecutor()

    def test_rejects_non_executor(self):
        for executor in ("pool", None):
            with pytest.raises(AnalysisError, match="ShardExecutor"):
                ParallelBackend(base=TableBackend(), executor=executor)

    def test_hashable_with_executor(self):
        a = ParallelBackend(
            base=TableBackend(samples=8, seed=1),
            executor=TcpExecutor(broker="h:1"),
        )
        b = ParallelBackend(
            base=TableBackend(samples=8, seed=1),
            executor=TcpExecutor(broker="h:1"),
        )
        assert a == b and hash(a) == hash(b)

    def test_inline_executor_build_matches_base(self, tmp_path):
        circuit = get_circuit("lion")
        reference = FaultUniverse(circuit)
        backend = ParallelBackend(
            base=TableBackend(),
            executor=InlineExecutor(),
            cache_dir=str(tmp_path / "shards"),
        )
        universe = FaultUniverse(circuit, backend=backend)
        assert universe.target_table.packed.to_bigints() == (
            reference.target_table.packed.to_bigints()
        )
        assert universe.untargeted_table.packed.to_bigints() == (
            reference.untargeted_table.packed.to_bigints()
        )


class TestInjection:
    def test_maybe_parallel_wraps_for_executor_at_jobs_one(self):
        base = TableBackend()
        assert maybe_parallel(base, None) is base
        wrapped = maybe_parallel(base, InlineExecutor())
        assert isinstance(wrapped, ParallelBackend)
        assert wrapped.executor == InlineExecutor()

    def test_maybe_parallel_injects_into_adaptive(self):
        executor = TcpExecutor(broker="h:1")
        backend = maybe_parallel(AdaptiveBackend(), executor)
        assert isinstance(backend, AdaptiveBackend)
        assert backend.executor == executor

    def test_adaptive_with_execution_preserves_identity(self):
        # The executor is excluded from equality: experiment caches
        # must share tables across execution substrates.
        base = AdaptiveBackend()
        injected = base.with_execution(PoolExecutor(jobs=4))
        assert injected == base
        assert injected.executor == PoolExecutor(jobs=4)

    def test_parallel_rejects_internally_parallel_base(self):
        with pytest.raises(AnalysisError, match="internally"):
            ParallelBackend(base=AdaptiveBackend())

    def test_make_backend_executor_name(self, monkeypatch):
        # Names resolve at the option table; make_backend takes the
        # executor they name.
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        backend = backend_from_options({
            "backend": "sampled", "samples": 8, "seed": 1,
            "executor": "tcp", "broker": "h:1",
        })
        assert isinstance(backend, ParallelBackend)
        assert backend.base == TableBackend(samples=8, seed=1)
        assert backend.executor == TcpExecutor(broker="h:1")

    def test_make_backend_executor_instance(self):
        backend = make_backend("exhaustive", executor=PoolExecutor(jobs=3))
        assert isinstance(backend, ParallelBackend)
        assert backend.executor == PoolExecutor(jobs=3)

    def test_make_backend_adaptive_executor_injects(self):
        executor = TcpExecutor(broker="h:1")
        backend = make_backend("adaptive", executor=executor)
        assert isinstance(backend, AdaptiveBackend)
        assert backend.executor == executor

    def test_make_backend_orphan_broker(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        with pytest.raises(AnalysisError, match="broker"):
            backend_from_options({"backend": "exhaustive", "broker": "h:1"})

    def test_universe_executor_kwarg(self):
        # The universe takes no execution setting of its own: it builds
        # on the backend it is given.
        with pytest.raises(TypeError):
            FaultUniverse(get_circuit("lion"), executor=InlineExecutor())
        universe = FaultUniverse(
            get_circuit("lion"),
            backend=maybe_parallel(TableBackend(), InlineExecutor()),
        )
        assert isinstance(universe.backend, ParallelBackend)
        assert universe.backend.executor == InlineExecutor()
