"""The TCP queue transport: framing, broker, executor, worker, theft.

Covers the wire protocol's own contract (framed pickles, version
checks, address resolution), the broker's dispatch/lease/steal state
machine, and the fault paths the acceptance criteria name: a worker
killed mid-shard costs one attempt and the run still completes; a
shard stolen mid-build double-completes as a duplicate, not a
conflict; a broker restarted mid-run is survived by reconnecting
submitters and workers; a poisoned shard parks with a clean
``AnalysisError`` naming it — every completion bit-identical to the
inline build.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.bench_suite.registry import get_circuit
from repro.errors import AnalysisError
from repro.faults.stuck_at import collapsed_stuck_at_faults
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import SerialBackend, TableBackend
from repro.parallel import (
    ParallelBackend,
    ShardTask,
    circuit_digest,
    shard_key,
)
from repro.parallel.netqueue import (
    BROKER_ENV,
    BROKER_SECRET_ENV,
    NET_FORMAT_VERSION,
    BackgroundBroker,
    TcpExecutor,
    TcpWorker,
    broker_clear,
    broker_stats,
    recv_frame,
    resolve_broker,
    send_frame,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def make_task(shard_index: int = 0, count: int = 4) -> ShardTask:
    circuit = get_circuit("lion")
    backend = TableBackend()
    faults = collapsed_stuck_at_faults(circuit)
    lo = shard_index * count
    return ShardTask(
        circuit=circuit,
        backend=backend,
        kind="stuck_at",
        faults=tuple(faults[lo : lo + count]),
        base_signatures=tuple(backend.line_signatures(circuit)),
        shard_index=shard_index,
    )


def poisoned_task() -> ShardTask:
    # The serial engine is capped at 16 inputs, so this shard raises a
    # clean AnalysisError on every build attempt, on every worker.
    circuit = get_circuit("wide28")
    return ShardTask(
        circuit=circuit,
        backend=SerialBackend(),
        kind="stuck_at",
        faults=tuple(collapsed_stuck_at_faults(circuit)[:2]),
        base_signatures=None,
        shard_index=0,
    )


def worker_in_thread(
    address: str,
    tmp_path,
    name: str = "w",
    *,
    build_delay: float = 0.0,
    idle_exit: float = 10.0,
    use_cache: bool = False,
    lease_timeout: float = 30.0,
) -> tuple[TcpWorker, threading.Thread, dict]:
    """A real TCP drain loop in this process (no subprocess overhead)."""
    worker = TcpWorker(
        broker=address,
        worker_id=name,
        build_delay=build_delay,
        cache_dir=str(tmp_path / f"cache-{name}"),
        use_cache=use_cache,
        lease_timeout=lease_timeout,
    )
    out: dict = {}

    def serve() -> None:
        out["stats"] = worker.serve(idle_exit=idle_exit)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return worker, thread, out


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


class TestFraming:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"op": "build", "task": make_task(), "n": 3}
            send_frame(a, message)
            received = recv_frame(b)
            assert received["op"] == "build"
            assert received["n"] == 3
            # Object equality is too strong across a pickle boundary
            # (lazily-built circuit caches are dropped from payloads);
            # the contract is that the shipped task still addresses the
            # same shard.
            shipped, original = received["task"], message["task"]
            assert shipped.shard_index == original.shard_index
            assert shipped.faults == original.faults
            assert shard_key(
                circuit_digest(shipped.circuit), shipped.backend, shipped.kind,
                shipped.faults,
            ) == shard_key(
                circuit_digest(original.circuit), original.backend, original.kind,
                original.faults,
            )
        finally:
            a.close()
            b.close()

    def test_eof_raises_connection_error(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()

    def test_garbage_payload_is_a_clean_error(self):
        a, b = socket.socketpair()
        try:
            import struct

            a.sendall(struct.pack(">Q", 4) + b"xxxx")
            with pytest.raises(AnalysisError, match="undecodable"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            import struct

            a.sendall(struct.pack(">Q", 1 << 40))
            with pytest.raises(AnalysisError, match="oversized"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class _EvilPayload:
    """Pickles to a frame that would run ``os.system`` on load."""

    def __reduce__(self):
        return (os.system, ("echo pwned",))


class TestSecurity:
    def test_hostile_pickle_is_refused(self):
        import pickle
        import struct

        payload = pickle.dumps(_EvilPayload())
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">Q", len(payload)) + payload)
            with pytest.raises(AnalysisError, match="forbidden global"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_fixed_universe_task_roundtrips_the_unpickler(self):
        import pickle

        from repro.parallel.netqueue import _loads

        circuit = get_circuit("lion")
        backend = TableBackend(vectors=(1, 4, 9, 12))
        task = ShardTask(
            circuit=circuit,
            backend=backend,
            kind="bridging",
            faults=(),
            base_signatures=tuple(backend.line_signatures(circuit)),
            shard_index=3,
        )
        loaded = _loads(
            pickle.dumps({"task": task}, protocol=pickle.HIGHEST_PROTOCOL)
        )["task"]
        assert loaded.backend == backend
        assert loaded.backend.name == "fixed"
        assert loaded.base_signatures == task.base_signatures
        assert shard_key(
            circuit_digest(loaded.circuit), loaded.backend, loaded.kind, loaded.faults
        ) == shard_key(circuit_digest(circuit), backend, task.kind, task.faults)

    def test_retired_backend_class_is_refused(self):
        import pickle

        from repro.parallel.netqueue import _loads

        # A frame from an older peer naming a backend class this
        # version no longer ships: refused before any lookup.
        payload = (
            b"\x80\x04crepro.faultsim.backends\nSampledBackend\n)\x81."
        )
        with pytest.raises(
            pickle.UnpicklingError,
            match="forbidden global repro.faultsim.backends.SampledBackend",
        ):
            _loads(payload)

    def test_broker_drops_peer_sending_hostile_pickle(self):
        import pickle
        import struct

        payload = pickle.dumps(_EvilPayload())
        with BackgroundBroker() as broker:
            sock = socket.create_connection(
                (broker.host, broker.port), timeout=10.0
            )
            try:
                sock.sendall(
                    struct.pack(">Q", len(payload)) + payload
                )
                sock.settimeout(10.0)
                # The broker hangs up without ever unpickling the
                # frame; a rejection reply would mean it was parsed.
                with pytest.raises(ConnectionError):
                    recv_frame(sock)
            finally:
                sock.close()

    def test_shared_secret_roundtrip(self, monkeypatch):
        monkeypatch.setenv(BROKER_SECRET_ENV, "fleet-secret")
        a, b = socket.socketpair()
        try:
            send_frame(a, {"op": "ping"})
            assert recv_frame(b) == {"op": "ping"}
        finally:
            a.close()
            b.close()

    def test_mismatched_secret_rejected(self, monkeypatch):
        a, b = socket.socketpair()
        try:
            monkeypatch.setenv(BROKER_SECRET_ENV, "alpha")
            send_frame(a, {"op": "ping"})
            monkeypatch.setenv(BROKER_SECRET_ENV, "beta")
            with pytest.raises(AnalysisError, match=BROKER_SECRET_ENV):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_unauthenticated_sender_rejected(self, monkeypatch):
        a, b = socket.socketpair()
        try:
            monkeypatch.delenv(BROKER_SECRET_ENV, raising=False)
            send_frame(a, {"op": "ping"})
            monkeypatch.setenv(BROKER_SECRET_ENV, "fleet-secret")
            with pytest.raises(AnalysisError, match=BROKER_SECRET_ENV):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_end_to_end_with_shared_secret(self, tmp_path, monkeypatch):
        """Broker, worker, and submitter all authenticate every frame
        and the build still completes bit-identically."""
        monkeypatch.setenv(BROKER_SECRET_ENV, "fleet-secret")
        task = make_task()
        with BackgroundBroker() as broker:
            _worker, thread, out = worker_in_thread(
                broker.address, tmp_path, idle_exit=1.0
            )
            executor = TcpExecutor(
                broker=broker.address, wait_timeout=60.0
            )
            outcomes = executor.submit([task])
            thread.join(timeout=30)
            from repro.parallel.worker import run_shard

            _idx, expected = run_shard(task)
            assert outcomes == [(0, expected)]
            assert out["stats"]["built"] == 1


class TestResolution:
    def test_explicit_address(self):
        assert resolve_broker("host:1234") == ("host", 1234)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(BROKER_ENV, "10.0.0.5:8766")
        assert resolve_broker(None) == ("10.0.0.5", 8766)

    def test_missing_address_errors(self, monkeypatch):
        monkeypatch.delenv(BROKER_ENV, raising=False)
        with pytest.raises(AnalysisError, match="--broker HOST:PORT"):
            resolve_broker(None)

    @pytest.mark.parametrize("bad", ["nocolon", ":1", "host:", "host:x"])
    def test_malformed_address_errors(self, bad):
        with pytest.raises(AnalysisError, match="HOST:PORT"):
            resolve_broker(bad)

    def test_executor_validation(self):
        with pytest.raises(AnalysisError, match="max_attempts"):
            TcpExecutor(broker="h:1", max_attempts=0)
        with pytest.raises(AnalysisError, match="wait_timeout"):
            TcpExecutor(broker="h:1", wait_timeout=0.0)

    def test_worker_validation(self, monkeypatch):
        monkeypatch.delenv("REPRO_STEAL_DELAY", raising=False)
        with pytest.raises(AnalysisError, match="lease_timeout"):
            TcpWorker(broker="h:1", lease_timeout=0.0)
        with pytest.raises(AnalysisError, match="build_delay"):
            TcpWorker(broker="h:1", build_delay=-1.0)

    def test_steal_delay_env_hook(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEAL_DELAY", "0.75")
        assert TcpWorker(broker="h:1").build_delay == 0.75
        monkeypatch.setenv("REPRO_STEAL_DELAY", "banana")
        with pytest.raises(AnalysisError, match="REPRO_STEAL_DELAY"):
            TcpWorker(broker="h:1")

    def test_executor_is_hashable_cache_key_material(self):
        a = TcpExecutor(broker="h:1")
        b = TcpExecutor(broker="h:1")
        assert a == b and hash(a) == hash(b)
        assert a.describe() == "tcp"


class TestBrokerRoundtrip:
    def test_submit_build_result(self, tmp_path):
        tasks = [make_task(0), make_task(1)]
        with BackgroundBroker() as broker:
            _worker, thread, out = worker_in_thread(
                broker.address, tmp_path, idle_exit=1.0
            )
            executor = TcpExecutor(
                broker=broker.address, wait_timeout=60.0
            )
            outcomes = dict(executor.submit(tasks))
            assert sorted(outcomes) == [0, 1]
            from repro.parallel.worker import run_shard

            for task in tasks:
                _idx, expected = run_shard(task)
                assert outcomes[task.shard_index] == expected
            thread.join(timeout=30)
            assert out["stats"]["built"] == 2

    def test_resubmission_is_a_broker_cache_hit(self, tmp_path):
        task = make_task()
        with BackgroundBroker() as broker:
            _worker, thread, out = worker_in_thread(
                broker.address, tmp_path, idle_exit=1.0
            )
            executor = TcpExecutor(
                broker=broker.address, wait_timeout=60.0
            )
            first = executor.submit([task])
            thread.join(timeout=30)
            # No workers are attached now: the result must come from
            # the broker's result store, instantly.
            again = executor.submit([task])
            assert first == again
            stats = broker.stats()
            assert stats["counters"]["completed"] == 1
            assert out["stats"]["built"] == 1

    def test_worker_cache_hit_reports_skip(self, tmp_path):
        task = make_task()
        key = shard_key(
            circuit_digest(task.circuit), task.backend, task.kind, task.faults
        )
        from repro.parallel import ShardCache
        from repro.parallel.worker import run_shard

        _idx, words = run_shard(task)
        cache_dir = tmp_path / "cache-warm"
        ShardCache(cache_dir).put(key, words)
        with BackgroundBroker() as broker:
            worker = TcpWorker(
                broker=broker.address,
                worker_id="warm",
                cache_dir=str(cache_dir),
                use_cache=True,
            )
            out: dict = {}
            thread = threading.Thread(
                target=lambda: out.update(
                    stats=worker.serve(idle_exit=1.0)
                ),
                daemon=True,
            )
            thread.start()
            executor = TcpExecutor(
                broker=broker.address, wait_timeout=60.0
            )
            assert executor.submit([task]) == [(0, words)]
            thread.join(timeout=30)
            assert out["stats"] == {
                "built": 0, "skipped": 1, "failed": 0, "stolen": 0,
            }

    def test_worker_rebuilds_wrong_length_cached_shard(self, tmp_path):
        """A wrong-length cache entry is a miss on tcp workers too: the
        worker rebuilds the shard and heals the entry instead of
        shipping bytes the submitter's merge must reject."""
        from repro.parallel import (
            DEFAULT_NUM_SHARDS,
            InlineExecutor,
            ShardCache,
            ShardPlan,
        )

        circuit = get_circuit("lion")
        base = TableBackend()
        cache_dir = tmp_path / "cache-warm"
        inline = ParallelBackend(
            base=base, executor=InlineExecutor(), cache_dir=str(cache_dir)
        ).build_stuck_at(circuit)
        slices = ShardPlan(DEFAULT_NUM_SHARDS).split(
            collapsed_stuck_at_faults(circuit)
        )
        key = shard_key(circuit_digest(circuit), base, "stuck_at", slices[1])
        cache = ShardCache(cache_dir)
        good = cache.get(key)
        assert good is not None
        cache.put(key, good[:-8])
        with BackgroundBroker() as broker:
            worker = TcpWorker(
                broker=broker.address,
                worker_id="warm",
                cache_dir=str(cache_dir),
                use_cache=True,
            )
            out: dict = {}
            thread = threading.Thread(
                target=lambda: out.update(
                    stats=worker.serve(idle_exit=1.0)
                ),
                daemon=True,
            )
            thread.start()
            table = ParallelBackend(
                base=base,
                executor=TcpExecutor(
                    broker=broker.address, wait_timeout=60.0
                ),
                use_cache=False,
            ).build_stuck_at(circuit)
            thread.join(timeout=30)
        assert table.faults == inline.faults
        assert table.packed == inline.packed
        assert cache.get(key) == good
        assert out["stats"]["built"] == 1
        assert out["stats"]["skipped"] == len(slices) - 1

    def test_poisoned_shard_parks_with_named_error(self, tmp_path):
        with BackgroundBroker() as broker:
            _worker, thread, _out = worker_in_thread(
                broker.address, tmp_path, idle_exit=2.0
            )
            executor = TcpExecutor(
                broker=broker.address, wait_timeout=60.0, max_attempts=2,
            )
            with pytest.raises(AnalysisError, match="tcp shard 0"):
                executor.submit([poisoned_task()])
            stats = broker.stats()
            assert stats["counters"]["parked"] == 1
            assert len(stats["failed"]) == 1
            thread.join(timeout=30)

    def test_resubmit_clears_parked_failure(self, tmp_path):
        """A fresh submission of a parked shard is built again with a
        fresh retry budget, not answered from the stale failure."""
        with BackgroundBroker() as broker:
            _worker, thread, out = worker_in_thread(
                broker.address, tmp_path, idle_exit=1.0
            )
            executor = TcpExecutor(
                broker=broker.address, wait_timeout=60.0, max_attempts=1,
            )
            for _ in range(2):
                with pytest.raises(AnalysisError, match="tcp shard 0"):
                    executor.submit([poisoned_task()])
            assert broker.stats()["counters"]["parked"] == 2
            thread.join(timeout=30)
        assert out["stats"]["failed"] == 2

    def test_stats_and_clear_helpers(self, tmp_path):
        task = make_task()
        with BackgroundBroker() as broker:
            _worker, thread, _out = worker_in_thread(
                broker.address, tmp_path, idle_exit=1.0
            )
            executor = TcpExecutor(
                broker=broker.address, wait_timeout=60.0
            )
            executor.submit([task])
            thread.join(timeout=30)
            stats = broker_stats(broker.address)
            assert stats["counters"]["completed"] == 1
            assert stats["results"] == 1
            assert broker_clear(broker.address) == 1
            assert broker_stats(broker.address)["results"] == 0

    def test_unreachable_broker_is_a_clean_error(self):
        with pytest.raises(AnalysisError, match="cannot reach broker"):
            broker_stats(f"127.0.0.1:{free_port()}")

    def test_version_mismatch_rejected(self):
        with BackgroundBroker() as broker:
            sock = socket.create_connection(
                (broker.host, broker.port), timeout=10.0
            )
            try:
                send_frame(
                    sock,
                    {
                        "op": "submit",
                        "version": NET_FORMAT_VERSION + 1,
                        "shards": [],
                    },
                )
                reply = recv_frame(sock)
                assert reply["op"] == "rejected"
                assert "wire format" in reply["error"]
            finally:
                sock.close()

    def test_no_workers_times_out_with_guidance(self):
        with BackgroundBroker() as broker:
            executor = TcpExecutor(
                broker=broker.address, wait_timeout=0.5
            )
            with pytest.raises(
                AnalysisError, match="repro worker --broker"
            ):
                executor.submit([make_task()])


class TestFaultTolerance:
    def test_worker_death_mid_shard_requeues(self, tmp_path):
        """A worker that dies holding a lease costs one attempt; the
        shard is requeued to a healthy worker and completes."""
        tasks = [make_task(0), make_task(1)]
        with BackgroundBroker(lease_timeout=30.0) as broker:
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC + os.pathsep + env.get(
                "PYTHONPATH", ""
            )
            env["REPRO_QUEUE_CRASH_AFTER_CLAIM"] = "1"
            env["REPRO_CACHE_DIR"] = str(tmp_path / "crash-cache")
            env.pop(BROKER_ENV, None)
            crasher = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--broker", broker.address,
                    "--idle-exit", "60",
                ],
                env=env,
            )
            result: dict = {}

            def submit() -> None:
                executor = TcpExecutor(
                    broker=broker.address, wait_timeout=120.0
                )
                result["outcomes"] = dict(executor.submit(tasks))

            submitter = threading.Thread(target=submit, daemon=True)
            submitter.start()
            assert crasher.wait(timeout=60) == 42  # died mid-shard
            # Only now bring up the healthy worker: the crashed shard
            # must come back via the dropped connection, not luck.
            _worker, thread, _out = worker_in_thread(
                broker.address, tmp_path, name="healthy", idle_exit=5.0
            )
            submitter.join(timeout=120)
            assert not submitter.is_alive()
            thread.join(timeout=30)
            from repro.parallel.worker import run_shard

            for task in tasks:
                _idx, expected = run_shard(task)
                assert result["outcomes"][task.shard_index] == expected
            assert broker.stats()["counters"]["requeues"] >= 1

    def test_steal_mid_build_double_completes(self, tmp_path):
        """A stale in-flight shard is duplicated to an idle worker;
        first completion wins and the loser is a duplicate, so the
        result is identical and nothing conflicts."""
        task = make_task()
        with BackgroundBroker(steal_after=0.2) as broker:
            # The straggler claims the only shard and sits on it.
            _slow, slow_thread, slow_out = worker_in_thread(
                broker.address, tmp_path, name="a-slow",
                build_delay=3.0, idle_exit=8.0,
            )
            executor = TcpExecutor(
                broker=broker.address, wait_timeout=120.0
            )
            submitted: dict = {}

            def submit() -> None:
                submitted["outcomes"] = executor.submit([task])

            submitter = threading.Thread(target=submit, daemon=True)
            submitter.start()
            time.sleep(0.5)  # straggler holds the lease, now stale
            _fast, fast_thread, fast_out = worker_in_thread(
                broker.address, tmp_path, name="b-fast", idle_exit=5.0
            )
            submitter.join(timeout=120)
            assert not submitter.is_alive()
            slow_thread.join(timeout=30)
            fast_thread.join(timeout=30)
            from repro.parallel.worker import run_shard

            _idx, expected = run_shard(task)
            assert submitted["outcomes"] == [(0, expected)]
            counters = broker.stats()["counters"]
            assert counters["steals"] >= 1
            assert counters["steal_completions"] >= 1
            assert counters["duplicates"] >= 1  # the straggler's late done
            assert fast_out["stats"]["stolen"] >= 1
            assert fast_out["stats"]["built"] >= 1
            assert slow_out["stats"]["built"] >= 1  # late, discarded

    def test_steal_disabled_waits_for_straggler(self, tmp_path):
        task = make_task()
        with BackgroundBroker(steal=False, steal_after=0.1) as broker:
            _slow, slow_thread, _slow_out = worker_in_thread(
                broker.address, tmp_path, name="a-slow",
                build_delay=1.0, idle_exit=5.0,
            )
            executor = TcpExecutor(
                broker=broker.address, wait_timeout=120.0
            )
            submitted: dict = {}

            def submit() -> None:
                submitted["outcomes"] = executor.submit([task])

            submitter = threading.Thread(target=submit, daemon=True)
            submitter.start()
            time.sleep(0.3)
            _fast, fast_thread, fast_out = worker_in_thread(
                broker.address, tmp_path, name="b-fast", idle_exit=2.0
            )
            submitter.join(timeout=120)
            slow_thread.join(timeout=30)
            fast_thread.join(timeout=30)
            assert broker.stats()["counters"]["steals"] == 0
            assert fast_out["stats"]["stolen"] == 0

    def test_broker_restart_mid_run_recovers(self, tmp_path):
        """Submitter and workers both reconnect to a restarted broker
        on the same port and the run completes bit-identically."""
        tasks = [make_task(0), make_task(1), make_task(2)]
        port = free_port()
        first = BackgroundBroker(port=port).start()
        address = first.address
        result: dict = {}

        def submit() -> None:
            executor = TcpExecutor(broker=address, wait_timeout=120.0)
            result["outcomes"] = dict(executor.submit(tasks))

        submitter = threading.Thread(target=submit, daemon=True)
        submitter.start()
        time.sleep(0.3)  # shards are submitted to the first broker
        first.stop()  # broker dies mid-run, queue state lost
        second = BackgroundBroker(port=port).start()
        try:
            # Workers attach to the restarted broker; the submitter's
            # reconnect loop re-submits its outstanding shards.
            _w, thread, _out = worker_in_thread(
                address, tmp_path, name="post-restart", idle_exit=8.0
            )
            submitter.join(timeout=120)
            assert not submitter.is_alive()
            thread.join(timeout=30)
            from repro.parallel.worker import run_shard

            for task in tasks:
                _idx, expected = run_shard(task)
                assert result["outcomes"][task.shard_index] == expected
        finally:
            second.stop()


class TestStateHygiene:
    """Connection-identity and lease bookkeeping under ugly peers."""

    @staticmethod
    def _wait_for(predicate, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return
            time.sleep(0.05)
        raise AssertionError("condition not reached in time")

    def test_malformed_done_releases_builder_slot(self):
        """A 'done' whose words are not bytes (missing, or a big-int
        list) must free the builder slot and requeue the shard (one
        attempt charged each), not wedge it behind a ghost lease."""
        task = make_task()
        key = shard_key(
            circuit_digest(task.circuit), task.backend, task.kind, task.faults
        )
        with BackgroundBroker(max_builders=1) as broker:
            worker = socket.create_connection(
                (broker.host, broker.port), timeout=10.0
            )
            submitter = socket.create_connection(
                (broker.host, broker.port), timeout=10.0
            )
            try:
                send_frame(
                    worker,
                    {
                        "op": "register",
                        "version": NET_FORMAT_VERSION,
                        "worker": "clumsy",
                    },
                )
                send_frame(
                    submitter,
                    {
                        "op": "submit",
                        "version": NET_FORMAT_VERSION,
                        "shards": [
                            {"key": key, "task": task, "shard_index": 0}
                        ],
                    },
                )
                worker.settimeout(10.0)
                build = recv_frame(worker)
                assert build["op"] == "build"
                assert build["attempts"] == 0
                for attempt, bad in enumerate((None, [1, 2]), start=1):
                    send_frame(
                        worker, {"op": "done", "key": key, "words": bad}
                    )
                    rebuilt = recv_frame(worker)
                    assert rebuilt["op"] == "build"
                    # Each bad report cost one attempt.
                    assert rebuilt["attempts"] == attempt
                from repro.parallel.worker import run_shard

                _idx, words = run_shard(task)
                send_frame(
                    worker,
                    {"op": "done", "key": key, "words": words},
                )
                submitter.settimeout(10.0)
                result = recv_frame(submitter)
                assert result["op"] == "result"
                assert result["words"] == words
                counters = broker.stats()["counters"]
                assert counters["duplicates"] == 2
                assert counters["requeues"] == 2
            finally:
                worker.close()
                submitter.close()

    def test_reconnect_supersede_keeps_new_connection(self):
        """The old connection's teardown must not deregister the fresh
        registration that superseded it under the same worker id."""
        task = make_task()
        with BackgroundBroker() as broker:
            first = socket.create_connection(
                (broker.host, broker.port), timeout=10.0
            )
            second = None
            submitter = None
            try:
                send_frame(
                    first,
                    {
                        "op": "register",
                        "version": NET_FORMAT_VERSION,
                        "worker": "w",
                    },
                )
                self._wait_for(
                    lambda: [
                        w["worker"]
                        for w in broker.stats()["workers"]
                    ]
                    == ["w"]
                )
                second = socket.create_connection(
                    (broker.host, broker.port), timeout=10.0
                )
                send_frame(
                    second,
                    {
                        "op": "register",
                        "version": NET_FORMAT_VERSION,
                        "worker": "w",
                    },
                )
                self._wait_for(
                    lambda: broker.stats()["counters"][
                        "workers_registered"
                    ]
                    == 2
                )
                # Now the superseded connection unwinds; its teardown
                # runs _drop_worker for id "w" but must leave the new
                # connection registered and dispatchable.
                first.close()
                time.sleep(0.3)
                assert [
                    w["worker"] for w in broker.stats()["workers"]
                ] == ["w"]
                submitter = socket.create_connection(
                    (broker.host, broker.port), timeout=10.0
                )
                key = shard_key(
                    circuit_digest(task.circuit), task.backend, task.kind, task.faults
                )
                send_frame(
                    submitter,
                    {
                        "op": "submit",
                        "version": NET_FORMAT_VERSION,
                        "shards": [
                            {"key": key, "task": task, "shard_index": 0}
                        ],
                    },
                )
                second.settimeout(10.0)
                assert recv_frame(second)["op"] == "build"
            finally:
                first.close()
                if second is not None:
                    second.close()
                if submitter is not None:
                    submitter.close()

    def test_undecodable_broker_backs_off_and_stalls_cleanly(
        self, monkeypatch
    ):
        """A port that answers with garbage (wrong service) must fail
        via the stall deadline with escalating backoff sleeps between
        attempts — not spin connect/recv at full speed forever."""
        import struct

        monkeypatch.delenv(BROKER_SECRET_ENV, raising=False)
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = int(listener.getsockname()[1])
        stop = threading.Event()

        def garbage_server() -> None:
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                with conn:
                    try:
                        conn.sendall(struct.pack(">Q", 4) + b"zzzz")
                        conn.recv(1)  # linger until the client hangs up
                    except OSError:
                        pass

        server = threading.Thread(target=garbage_server, daemon=True)
        server.start()
        sleeps: list[float] = []
        monkeypatch.setattr(
            "repro.parallel.netqueue._sleep", sleeps.append
        )
        try:
            executor = TcpExecutor(
                broker=f"127.0.0.1:{port}", wait_timeout=0.5
            )
            with pytest.raises(AnalysisError, match="no progress"):
                executor.submit([make_task()])
            assert sleeps, "decode failures must back off, not spin"
            assert sleeps[:3] == [0.05, 0.1, 0.2]
        finally:
            stop.set()
            listener.close()
            server.join(timeout=10)

    def test_busy_worker_survives_disconnect_after_idle_exit(
        self, tmp_path
    ):
        """A worker older than idle_exit that loses its connection
        right after building must reconnect (its idle clock restarted
        by the recent build), not exit on the stale start time."""
        port = free_port()
        address = f"127.0.0.1:{port}"
        first = BackgroundBroker(port=port).start()
        second = None
        try:
            _worker, thread, out = worker_in_thread(
                address, tmp_path, name="long-lived", idle_exit=3.0
            )
            executor = TcpExecutor(broker=address, wait_timeout=60.0)
            time.sleep(2.0)  # most of the idle budget passes unused
            executor.submit([make_task(0)])  # restarts the idle clock
            time.sleep(1.5)  # lifetime > idle_exit, idle age ~1.5s
            first.stop()  # connection drops; worker must reconnect
            second = BackgroundBroker(port=port).start()
            outcomes = executor.submit([make_task(1)])
            assert [index for index, _sigs in outcomes] == [1]
            thread.join(timeout=30)
            assert out["stats"]["built"] == 2
        finally:
            first.stop()
            if second is not None:
                second.stop()


class TestEndToEnd:
    def test_universe_via_tcp_matches_inline(self, tmp_path):
        circuit = get_circuit("lion")
        with BackgroundBroker() as broker:
            _a, thread_a, _oa = worker_in_thread(
                broker.address, tmp_path, name="a", idle_exit=3.0
            )
            _b, thread_b, _ob = worker_in_thread(
                broker.address, tmp_path, name="b", idle_exit=3.0
            )
            backend = ParallelBackend(
                base=TableBackend(),
                use_cache=False,
                executor=TcpExecutor(
                    broker=broker.address, wait_timeout=120.0
                ),
            )
            tcp = FaultUniverse(circuit, backend=backend)
            inline = FaultUniverse(circuit, backend=TableBackend())
            assert (
                tcp.target_table.signatures
                == inline.target_table.signatures
            )
            assert (
                tcp.untargeted_table.signatures
                == inline.untargeted_table.signatures
            )
            thread_a.join(timeout=30)
            thread_b.join(timeout=30)

    def test_cli_queue_stats_against_live_broker(self, tmp_path, capsys):
        from repro.cli import main

        task = make_task()
        with BackgroundBroker() as broker:
            _w, thread, _out = worker_in_thread(
                broker.address, tmp_path, idle_exit=1.0
            )
            TcpExecutor(
                broker=broker.address, wait_timeout=60.0
            ).submit([task])
            thread.join(timeout=30)
            assert main(["queue", "info", "--broker", broker.address]) == 0
            info = capsys.readouterr().out
            assert f"broker: {broker.address}" in info
            assert "steal=on" in info
            assert main(["queue", "stats", "--broker", broker.address]) == 0
            stats_text = capsys.readouterr().out
            assert "counters:" in stats_text
            assert "completed=1" in stats_text
            assert main(["queue", "clear", "--broker", broker.address]) == 0
            assert "removed 1" in capsys.readouterr().out
