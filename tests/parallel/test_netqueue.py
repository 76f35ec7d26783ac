"""The TCP queue transport: framing, broker, executor, worker, theft.

Covers the wire protocol's own contract (framed pickles, version
checks, address resolution) and each path of the asyncio adapter over
real sockets: submit → build → result; a worker connection lost
mid-shard costs one attempt and the run still completes; a stale
heartbeat closes the connection; a shard stolen mid-build
double-completes as a duplicate, not a conflict; a broker restarted
mid-run is survived by reconnecting submitters and workers; a poisoned
shard parks with a clean ``AnalysisError`` naming it — every completion
bit-identical to the inline build.  The scheduling policy itself is
driven without sockets or sleeps in ``test_sched.py``.
"""

from __future__ import annotations

import hmac
import os
import pickle
import socket
import struct
import threading
import time
from contextlib import contextmanager

import pytest

from repro import obs
from repro.bench_suite.randlogic import random_circuit
from repro.bench_suite.registry import get_circuit
from repro.errors import AnalysisError
from repro.faults.bridging import BridgingFaults
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
    MAX_FRAME_BYTES,
    NET_FORMAT_VERSION,
    BackgroundBroker,
    Broker,
    TcpExecutor,
    TcpWorker,
    broker_clear,
    broker_stats,
    decode_payload,
    encode_frame,
    frame_length,
    recv_frame,
    resolve_broker,
    send_frame,
)
from repro.parallel.worker import run_shard

def make_task(shard_index: int = 0, count: int = 4) -> ShardTask:
    circuit = get_circuit("lion")
    backend = TableBackend()
    faults = collapsed_stuck_at_faults(circuit)
    lo = shard_index * count
    return ShardTask(
        circuit=circuit,
        backend=backend,
        kind="stuck_at",
        faults=faults[lo : lo + count],
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
        faults=collapsed_stuck_at_faults(circuit)[:2],
        shard_index=0,
    )


@contextmanager
def running_worker(
    address: str,
    tmp_path,
    name: str = "w",
    *,
    build_delay: float = 0.0,
    use_cache: bool = False,
    cache_dir=None,
):
    """A real TCP drain loop in this process (no subprocess overhead).

    Yields ``(worker, out)``; on exit the worker is stopped and joined,
    after which ``out["stats"]`` holds its serve counters.
    """
    worker = TcpWorker(
        broker=address,
        worker_id=name,
        build_delay=build_delay,
        cache_dir=str(cache_dir or tmp_path / f"cache-{name}"),
        use_cache=use_cache,
    )
    out: dict = {}
    thread = threading.Thread(
        target=lambda: out.update(stats=worker.serve()), daemon=True
    )
    thread.start()
    try:
        yield worker, out
    finally:
        worker.stop()
        thread.join(timeout=30)
    assert not thread.is_alive()


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.02)


def in_thread(target) -> tuple[threading.Thread, dict]:
    """Run ``target()`` on a daemon thread; its return lands in out["value"]."""
    out: dict = {}
    thread = threading.Thread(
        target=lambda: out.update(value=target()), daemon=True
    )
    thread.start()
    return thread, out


def key_of(task: ShardTask) -> str:
    return shard_key(
        circuit_digest(task.circuit), task.backend, task.kind, task.faults
    )


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


@pytest.fixture
def manual_clock(monkeypatch):
    """Every peer in this process reads time from one ManualClock."""
    clock = obs.ManualClock()
    monkeypatch.setattr(obs, "system_clock", lambda: clock)
    return clock


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
            a.sendall(struct.pack(">Q", 4) + b"xxxx")
            with pytest.raises(AnalysisError, match="undecodable"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">Q", 1 << 40))
            with pytest.raises(AnalysisError, match="oversized"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_poll_timeout_mid_frame_keeps_the_stream_in_sync(self):
        """A poll timeout that fires after part of a frame arrived must
        not leave the rest to be misread as the next frame's header."""
        message = {"op": "result", "key": "k", "words": bytes(1000)}
        frame = encode_frame(message)
        a, b = socket.socketpair()
        try:
            b.settimeout(0.2)

            def trickle() -> None:
                a.sendall(frame[:500])
                time.sleep(0.4)  # longer than the reader's poll
                a.sendall(frame[500:])

            sender, _ = in_thread(trickle)
            while True:
                try:
                    received = recv_frame(b)
                    break
                except TimeoutError:
                    continue  # what both clients do on a poll timeout
            sender.join(timeout=10)
            assert not sender.is_alive()
            assert received == message
        finally:
            a.close()
            b.close()

    def test_peer_stalled_mid_frame_is_a_connection_error(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.parallel.netqueue.CONNECT_TIMEOUT", 0.1
        )
        frame = encode_frame({"op": "ping", "pad": bytes(100)})
        a, b = socket.socketpair()
        try:
            b.settimeout(5.0)
            a.sendall(frame[:50])
            with pytest.raises(ConnectionError, match="mid-frame"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_wide_exhaustive_shard_task_is_kilobytes(self):
        """The tasks a sharded build submits carry no fault-free base,
        so a 20-input exhaustive shard is a circuit plus a fault slice."""

        class Captured(Exception):
            pass

        class Recording:
            name = "recording"

            def __init__(self):
                self.sizes = []

            def submit(self, tasks):
                self.sizes = [
                    len(pickle.dumps(t, protocol=pickle.HIGHEST_PROTOCOL))
                    for t in tasks
                ]
                raise Captured

            def describe(self):
                return self.name

        circuit = random_circuit(3, num_inputs=20, num_gates=40)
        recording = Recording()
        backend = ParallelBackend(
            base=TableBackend(), use_cache=False, executor=recording
        )
        with pytest.raises(Captured):
            backend.build_stuck_at(circuit)
        assert recording.sizes
        assert max(recording.sizes) < 64 * 1024


class _EvilPayload:
    """Pickles to a frame that would run ``os.system`` on load."""

    def __reduce__(self):
        return (os.system, ("echo pwned",))


class TestSecurity:
    def test_hostile_pickle_is_refused(self):
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
        from repro.parallel.netqueue import _loads

        circuit = get_circuit("lion")
        backend = TableBackend(vectors=(1, 4, 9, 12))
        task = ShardTask(
            circuit=circuit,
            backend=backend,
            kind="bridging",
            faults=BridgingFaults.of([]),
            shard_index=3,
        )
        loaded = _loads(
            pickle.dumps({"task": task}, protocol=pickle.HIGHEST_PROTOCOL)
        )["task"]
        assert loaded.backend == backend
        assert loaded.backend.name == "fixed"
        assert shard_key(
            circuit_digest(loaded.circuit), loaded.backend, loaded.kind, loaded.faults
        ) == shard_key(circuit_digest(circuit), backend, task.kind, task.faults)

    def test_retired_backend_class_is_refused(self):
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
            with running_worker(broker.address, tmp_path) as (_w, out):
                executor = TcpExecutor(
                    broker=broker.address, wait_timeout=60.0
                )
                outcomes = executor.submit([task])
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
            with running_worker(broker.address, tmp_path) as (_w, out):
                executor = TcpExecutor(
                    broker=broker.address, wait_timeout=60.0
                )
                outcomes = dict(executor.submit(tasks))
            assert sorted(outcomes) == [0, 1]
            for task in tasks:
                _idx, expected = run_shard(task)
                assert outcomes[task.shard_index] == expected
            assert out["stats"]["built"] == 2

    def test_resubmission_is_a_broker_cache_hit(self, tmp_path):
        task = make_task()
        with BackgroundBroker() as broker:
            executor = TcpExecutor(broker=broker.address, wait_timeout=60.0)
            with running_worker(broker.address, tmp_path) as (_w, out):
                first = executor.submit([task])
            # No workers are attached now: the result must come from
            # the broker's result store, instantly.
            wait_for(lambda: broker.stats()["workers"] == [])
            again = executor.submit([task])
            assert first == again
            stats = broker.stats()
            assert stats["counters"]["completed"] == 1
            assert out["stats"]["built"] == 1

    def test_rejected_submit_leaves_nothing_queued(self):
        """A batch with one spec that carries no ShardTask is refused
        whole: none of its valid prefix stays queued to be built for a
        submitter that has already failed."""
        task = make_task()
        with BackgroundBroker() as broker:
            sock = socket.create_connection(
                (broker.host, broker.port), timeout=10.0
            )
            try:
                send_frame(sock, {
                    "op": "submit",
                    "version": NET_FORMAT_VERSION,
                    "shards": [
                        {"key": "k-valid", "task": task, "shard_index": 0},
                        "not a task",
                    ],
                })
                reply = recv_frame(sock)
                assert reply["op"] == "rejected"
                assert "ShardTask" in reply["error"]
            finally:
                sock.close()
            stats = broker.stats()
            assert stats["pending"] == []
            assert stats["counters"]["submitted"] == 0

    def test_worker_cache_hit_reports_skip(self, tmp_path):
        task = make_task()
        from repro.parallel import ShardCache

        _idx, words = run_shard(task)
        cache_dir = tmp_path / "cache-warm"
        ShardCache(cache_dir).put(key_of(task), words)
        with BackgroundBroker() as broker:
            with running_worker(
                broker.address, tmp_path, "warm",
                use_cache=True, cache_dir=cache_dir,
            ) as (_w, out):
                executor = TcpExecutor(
                    broker=broker.address, wait_timeout=60.0
                )
                assert executor.submit([task]) == [(0, words)]
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
            with running_worker(
                broker.address, tmp_path, "warm",
                use_cache=True, cache_dir=cache_dir,
            ) as (_w, out):
                table = ParallelBackend(
                    base=base,
                    executor=TcpExecutor(
                        broker=broker.address, wait_timeout=60.0
                    ),
                    use_cache=False,
                ).build_stuck_at(circuit)
        assert table.faults == inline.faults
        assert table.packed == inline.packed
        assert cache.get(key) == good
        assert out["stats"]["built"] == 1
        assert out["stats"]["skipped"] == len(slices) - 1

    def test_poisoned_shard_parks_with_named_error(self, tmp_path):
        with BackgroundBroker() as broker:
            with running_worker(broker.address, tmp_path) as (_w, out):
                executor = TcpExecutor(
                    broker=broker.address, wait_timeout=60.0,
                    max_attempts=2,
                )
                with pytest.raises(AnalysisError, match="tcp shard 0"):
                    executor.submit([poisoned_task()])
            stats = broker.stats()
            assert stats["counters"]["parked"] == 1
            assert len(stats["failed"]) == 1
            assert out["stats"]["failed"] == 2

    def test_stats_and_clear_helpers(self, tmp_path):
        task = make_task()
        with BackgroundBroker() as broker:
            with running_worker(broker.address, tmp_path):
                TcpExecutor(
                    broker=broker.address, wait_timeout=60.0
                ).submit([task])
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
        """The stall error over real sockets names what to start (the
        stall rule itself is pinned in test_sched.py)."""
        with BackgroundBroker() as broker:
            executor = TcpExecutor(
                broker=broker.address, wait_timeout=0.1
            )
            with pytest.raises(
                AnalysisError, match="repro worker --broker"
            ):
                executor.submit([make_task()])


def register_raw(broker, worker_id: str) -> socket.socket:
    """A bare socket registered as worker ``worker_id``."""
    sock = socket.create_connection((broker.host, broker.port), timeout=10.0)
    send_frame(sock, {
        "op": "register", "version": NET_FORMAT_VERSION, "worker": worker_id,
    })
    wait_for(lambda: worker_id in [
        w["worker"] for w in broker.stats()["workers"]
    ])
    return sock


class TestFaultTolerance:
    def test_worker_death_mid_shard_requeues(self, tmp_path):
        """A worker connection that drops holding a lease (EOF) costs one
        attempt; the shard is requeued to a healthy worker and completes.
        (The crash of a real worker process is covered end to end in
        tests/obs/test_propagation.py.)"""
        tasks = [make_task(0), make_task(1)]
        with BackgroundBroker() as broker:
            doomed = register_raw(broker, "doomed")
            executor = TcpExecutor(broker=broker.address, wait_timeout=60.0)
            submitter, result = in_thread(lambda: dict(executor.submit(tasks)))
            try:
                assert recv_frame(doomed)["op"] == "build"
            finally:
                doomed.close()  # dies mid-shard, lease held
            wait_for(lambda: broker.stats()["counters"]["requeues"] == 1)
            # Only now bring up the healthy worker: the lost shard must
            # come back via the dropped connection, not luck.
            with running_worker(broker.address, tmp_path, "healthy"):
                submitter.join(timeout=60)
                assert not submitter.is_alive()
            for task in tasks:
                _idx, expected = run_shard(task)
                assert result["value"][task.shard_index] == expected
            assert broker.stats()["counters"]["requeues"] == 1

    def test_stale_heartbeat_closes_the_connection(self):
        """A worker that holds a build but never pings is closed by the
        broker's tick and its shard requeued."""
        task = make_task()
        with BackgroundBroker(
            Broker(steal=False, lease_timeout=0.2)
        ) as broker:
            silent = register_raw(broker, "silent")
            submitter = socket.create_connection(
                (broker.host, broker.port), timeout=10.0
            )
            try:
                send_frame(submitter, {
                    "op": "submit",
                    "version": NET_FORMAT_VERSION,
                    "shards": [
                        {"key": key_of(task), "task": task, "shard_index": 0}
                    ],
                })
                assert recv_frame(silent)["op"] == "build"
                with pytest.raises(ConnectionError):
                    recv_frame(silent)  # closed by the broker
            finally:
                silent.close()
                submitter.close()
            stats = broker.stats()
            assert stats["workers"] == []
            assert stats["counters"]["requeues"] == 1

    def test_steal_mid_build_double_completes(self, tmp_path):
        """A stale in-flight shard is duplicated to an idle worker;
        first completion wins and the loser is a duplicate, so the
        result is identical and nothing conflicts."""
        task = make_task()
        with BackgroundBroker(Broker(steal_after=0.1)) as broker:
            executor = TcpExecutor(broker=broker.address, wait_timeout=60.0)
            # The straggler claims the only shard and sits on it.
            with running_worker(
                broker.address, tmp_path, "a-slow", build_delay=0.8
            ) as (_slow, slow_out):
                wait_for(lambda: broker.stats()["workers"] != [])
                submitter, submitted = in_thread(
                    lambda: executor.submit([task])
                )
                wait_for(lambda: broker.stats()["building"] != [])
                with running_worker(
                    broker.address, tmp_path, "b-fast"
                ) as (_fast, fast_out):
                    submitter.join(timeout=60)
                    assert not submitter.is_alive()
                # The straggler's late done arrives as a duplicate.
                wait_for(
                    lambda: broker.stats()["counters"]["duplicates"] >= 1
                )
            _idx, expected = run_shard(task)
            assert submitted["value"] == [(0, expected)]
            counters = broker.stats()["counters"]
            assert counters["steals"] >= 1
            assert counters["steal_completions"] >= 1
            assert fast_out["stats"]["stolen"] >= 1
            assert fast_out["stats"]["built"] >= 1
            assert slow_out["stats"]["built"] >= 1  # late, discarded

    def test_broker_restart_mid_run_recovers(self, tmp_path):
        """Submitter and workers both reconnect to a restarted broker
        on the same port and the run completes bit-identically."""
        tasks = [make_task(0), make_task(1), make_task(2)]
        port = free_port()
        first = BackgroundBroker(Broker(port=port)).start()
        address = first.address
        executor = TcpExecutor(broker=address, wait_timeout=60.0)
        submitter, result = in_thread(lambda: dict(executor.submit(tasks)))
        wait_for(lambda: len(first.stats()["pending"]) == len(tasks))
        first.stop()  # broker dies mid-run, queue state lost
        second = BackgroundBroker(Broker(port=port)).start()
        try:
            # Workers attach to the restarted broker; the submitter's
            # reconnect loop re-submits its outstanding shards.
            with running_worker(address, tmp_path, "post-restart"):
                submitter.join(timeout=60)
                assert not submitter.is_alive()
            for task in tasks:
                _idx, expected = run_shard(task)
                assert result["value"][task.shard_index] == expected
        finally:
            second.stop()


class TestStateHygiene:
    """Connection identity and client back-off under ugly peers."""

    def test_reconnect_supersede_keeps_new_connection(self):
        """The old connection's teardown must not deregister the fresh
        registration that superseded it under the same worker id: the
        broker hands the scheduler each connection's own writer."""
        task = make_task()
        with BackgroundBroker() as broker:
            first = register_raw(broker, "w")
            second = submitter = None
            try:
                second = socket.create_connection(
                    (broker.host, broker.port), timeout=10.0
                )
                send_frame(second, {
                    "op": "register",
                    "version": NET_FORMAT_VERSION,
                    "worker": "w",
                })
                wait_for(
                    lambda: broker.stats()["counters"]["workers_registered"]
                    == 2
                )
                # Now the superseded connection unwinds; its teardown
                # must leave the new connection registered and
                # dispatchable.
                first.close()
                wait_for(
                    lambda: broker.stats()["counters"]["disconnects"] == 1
                )
                assert [
                    w["worker"] for w in broker.stats()["workers"]
                ] == ["w"]
                submitter = socket.create_connection(
                    (broker.host, broker.port), timeout=10.0
                )
                send_frame(submitter, {
                    "op": "submit",
                    "version": NET_FORMAT_VERSION,
                    "shards": [
                        {"key": key_of(task), "task": task, "shard_index": 0}
                    ],
                })
                second.settimeout(10.0)
                assert recv_frame(second)["op"] == "build"
            finally:
                first.close()
                if second is not None:
                    second.close()
                if submitter is not None:
                    submitter.close()

    def test_undecodable_broker_backs_off_and_stalls_cleanly(
        self, monkeypatch, manual_clock
    ):
        """A port that answers with garbage (wrong service) must fail
        via the stall deadline with escalating backoff sleeps between
        attempts — not spin connect/recv at full speed forever.  Each
        backoff sleep advances the manual clock instead of waiting."""
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

        def sleep(seconds: float) -> None:
            sleeps.append(seconds)
            manual_clock.advance(seconds)

        monkeypatch.setattr("repro.parallel.netqueue._sleep", sleep)
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
            # close() alone does not wake a blocked accept() on Linux.
            listener.shutdown(socket.SHUT_RDWR)
            listener.close()
            server.join(timeout=10)
            assert not server.is_alive()

    def test_busy_worker_survives_disconnect_after_idle_exit(
        self, tmp_path, manual_clock
    ):
        """A worker older than idle_exit that loses its connection
        right after building must reconnect (its idle clock restarted
        by the recent build), not exit on the stale start time.  The
        idle deadline itself is pinned in test_sched.py."""
        port = free_port()
        address = f"127.0.0.1:{port}"
        first = BackgroundBroker(Broker(port=port)).start()
        second = None
        worker = TcpWorker(
            broker=address,
            worker_id="long-lived",
            cache_dir=str(tmp_path / "cache-long-lived"),
            use_cache=False,
        )
        thread, out = in_thread(lambda: worker.serve(idle_exit=3.0))
        try:
            executor = TcpExecutor(broker=address, wait_timeout=60.0)
            wait_for(lambda: first.stats()["workers"] != [])
            manual_clock.advance(2.0)  # most of the idle budget unused
            executor.submit([make_task(0)])  # restarts the idle clock
            manual_clock.advance(1.5)  # lifetime > idle_exit, idle 1.5 s
            first.stop()  # connection drops; worker must reconnect
            second = BackgroundBroker(Broker(port=port)).start()
            outcomes = executor.submit([make_task(1)])
            assert [index for index, _sigs in outcomes] == [1]
            assert thread.is_alive()
        finally:
            worker.stop()
            thread.join(timeout=30)
            first.stop()
            if second is not None:
                second.stop()
        assert not thread.is_alive()
        assert out["value"]["built"] == 2


#: Each bad frame the codec must refuse: (frame bytes, the receiver's
#: shared secret, the AnalysisError message).
_PING = pickle.dumps({"op": "ping"}, protocol=pickle.HIGHEST_PROTOCOL)
BAD_FRAMES = {
    "oversized length": (
        struct.pack(">Q", MAX_FRAME_BYTES + 1), None,
        "oversized broker frame",
    ),
    "garbage payload": (
        struct.pack(">Q", 4) + b"xxxx", None, "undecodable broker frame",
    ),
    "forbidden global": (
        struct.pack(">Q", len(pickle.dumps(_EvilPayload())))
        + pickle.dumps(_EvilPayload()),
        None,
        "forbidden global",
    ),
    "non-dict pickle": (
        struct.pack(">Q", len(pickle.dumps([1, 2])))
        + pickle.dumps([1, 2]),
        None,
        "broker frame must be a dict, got list",
    ),
    "missing HMAC": (
        struct.pack(">Q", len(_PING)) + _PING, "fleet-secret",
        "shorter than its HMAC tag",
    ),
    "wrong HMAC": (
        struct.pack(">Q", 32 + len(_PING))
        + hmac.new(b"other-secret", _PING, "sha256").digest() + _PING,
        "fleet-secret",
        "failed HMAC verification",
    ),
}


class TestBadFrames:
    """One table of bad frames, fed to the codec, to the blocking
    reader and to a live broker."""

    @pytest.fixture(params=sorted(BAD_FRAMES))
    def bad(self, request, monkeypatch):
        frame, secret, match = BAD_FRAMES[request.param]
        if secret is None:
            monkeypatch.delenv(BROKER_SECRET_ENV, raising=False)
        else:
            monkeypatch.setenv(BROKER_SECRET_ENV, secret)
        return frame, match

    def test_codec_refuses(self, bad):
        frame, match = bad
        with pytest.raises(AnalysisError, match=match):
            length = frame_length(frame[:8])
            decode_payload(frame[8 : 8 + length])

    def test_recv_frame_refuses(self, bad):
        frame, match = bad
        a, b = socket.socketpair()
        try:
            a.sendall(frame)
            with pytest.raises(AnalysisError, match=match):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_broker_drops_the_peer_without_replying(self, bad):
        frame, _match = bad
        with BackgroundBroker() as broker:
            sock = socket.create_connection(
                (broker.host, broker.port), timeout=10.0
            )
            try:
                sock.sendall(frame)
                # A reply (even a rejection) would mean it was parsed.
                with pytest.raises(ConnectionError):
                    recv_frame(sock)
            finally:
                sock.close()


class TestEndToEnd:
    def test_universe_via_tcp_matches_inline(self, tmp_path):
        circuit = get_circuit("lion")
        with BackgroundBroker() as broker:
            with (
                running_worker(broker.address, tmp_path, "a"),
                running_worker(broker.address, tmp_path, "b"),
            ):
                backend = ParallelBackend(
                    base=TableBackend(),
                    use_cache=False,
                    executor=TcpExecutor(
                        broker=broker.address, wait_timeout=120.0
                    ),
                )
                tcp = FaultUniverse(circuit, backend=backend)
                tcp_f = tcp.target_table.packed.to_bigints()
                tcp_g = tcp.untargeted_table.packed.to_bigints()
        inline = FaultUniverse(circuit, backend=TableBackend())
        assert tcp_f == inline.target_table.packed.to_bigints()
        assert tcp_g == inline.untargeted_table.packed.to_bigints()

    def test_cli_queue_stats_against_live_broker(self, tmp_path, capsys):
        from repro.cli import main

        task = make_task()
        with BackgroundBroker() as broker:
            with running_worker(broker.address, tmp_path):
                TcpExecutor(
                    broker=broker.address, wait_timeout=60.0
                ).submit([task])
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
