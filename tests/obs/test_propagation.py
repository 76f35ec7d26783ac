"""Trace context across process boundaries, and broker event lines.

The acceptance scenario: a traced submitter drives the tcp executor
against a live broker, one ``repro worker --broker`` subprocess is
killed mid-shard (the ``REPRO_QUEUE_CRASH_AFTER_CLAIM`` hook), the
broker requeues its shard, and a healthy worker subprocess — started
with *no* trace environment of its own — finishes the build.  The
single JSONL file must then contain one stitched trace: worker-side
``shard_build`` spans carrying the submitter's trace id, parented under
the submitter's ``parallel_build`` spans.

The second half covers the broker's structured event lines: requeues,
poisoned-shard parks, and stale-heartbeat lease reclaims must emit
one-line ``event=...`` log records and bump the broker counters.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.bench_suite.registry import get_circuit
from repro.errors import AnalysisError
from repro.faults.stuck_at import collapsed_stuck_at_faults
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import SerialBackend, TableBackend
from repro.obs.tracer import ListTraceWriter
from repro.parallel import (
    ParallelBackend,
    ShardTask,
    circuit_digest,
    shard_key,
)
from repro.parallel.netqueue import (
    NET_FORMAT_VERSION,
    BackgroundBroker,
    Broker,
    TcpExecutor,
    TcpWorker,
    recv_frame,
    send_frame,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def worker_env(cache_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    # A private shard cache: a cache hit would skip the build (and its
    # span) entirely.
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_BROKER", None)
    env.pop("REPRO_QUEUE_CRASH_AFTER_CLAIM", None)
    # The point of the frame-borne trace path: workers join the trace
    # without inheriting any environment from the submitter.
    env.pop("REPRO_TRACE_FILE", None)
    env.pop("REPRO_TRACE_ID", None)
    return env


def spawn_worker(
    broker: str, cache_dir: Path, *, crash: bool = False
) -> subprocess.Popen:
    env = worker_env(cache_dir)
    if crash:
        env["REPRO_QUEUE_CRASH_AFTER_CLAIM"] = "1"
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--broker", broker,
            "--idle-exit", "60" if crash else "3",
        ],
        env=env,
    )


def poisoned_task() -> ShardTask:
    # The serial engine is capped at 16 inputs, so this shard raises a
    # clean AnalysisError on every build attempt.
    circuit = get_circuit("wide28")
    return ShardTask(
        circuit=circuit,
        backend=SerialBackend(),
        kind="stuck_at",
        faults=collapsed_stuck_at_faults(circuit)[:2],
        shard_index=0,
    )


class TestCrossProcessStitching:
    def test_worker_spans_join_submitter_trace_through_crash_requeue(
        self, tmp_path, monkeypatch
    ):
        trace_path = tmp_path / "run.jsonl"
        monkeypatch.setenv("REPRO_TRACE_FILE", str(trace_path))
        tracer = obs.Tracer(
            obs.JsonlTraceWriter(str(trace_path), truncate=True)
        )
        previous = obs.activate(tracer)

        with BackgroundBroker() as broker:
            backend = ParallelBackend(
                base=TableBackend(),
                executor=TcpExecutor(
                    broker=broker.address, wait_timeout=120.0
                ),
                cache_dir=str(tmp_path / "shards"),
            )

            crasher = spawn_worker(
                broker.address, tmp_path / "crasher-cache", crash=True
            )
            result: dict = {}

            def submit() -> None:
                with obs.span("analyze"):
                    universe = FaultUniverse(
                        get_circuit("lion"), backend=backend
                    )
                    result["f"] = universe.target_table.packed.to_bigints()
                    result["g"] = universe.untargeted_table.packed.to_bigints()

            submitter = threading.Thread(target=submit, daemon=True)
            submitter.start()
            assert crasher.wait(timeout=60) == 42  # died holding a lease
            healthy = spawn_worker(broker.address, tmp_path / "cache")
            submitter.join(timeout=120)
            assert not submitter.is_alive()
            assert healthy.wait(timeout=120) == 0
            assert broker.stats()["counters"]["requeues"] >= 1
        # Deactivate before closing: the reference build below would
        # otherwise reopen the closed writer's file.
        obs.reset(previous)
        tracer.close()

        reference = FaultUniverse(get_circuit("lion"))
        assert result["f"] == reference.target_table.packed.to_bigints()
        assert result["g"] == reference.untargeted_table.packed.to_bigints()

        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        # One stitched trace: every record — submitter and worker
        # alike — carries the submitter's trace id.
        assert {r["trace"] for r in records} == {tracer.trace_id}

        by_name: dict[str, list[dict]] = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        submitter_pid = str(os.getpid())

        # The submitter's parallel_build spans anchor the shard work
        # (workers write their own table_build spans too, for the
        # per-shard tables they build — those nest under their shard).
        builds = {
            r["span"]: r
            for r in by_name["parallel_build"]
            if r["proc"] == submitter_pid
        }
        assert builds, "submitter-side parallel_build spans missing"

        shards = by_name["shard_build"]
        assert shards, "no worker-side shard spans reached the file"
        for shard in shards:
            # Built in a worker subprocess, derived shard id, parented
            # under the submitter's parallel_build span.
            assert shard["proc"] != submitter_pid
            assert shard["parent"] in builds
            assert shard["span"].startswith(f"{shard['parent']}.s")

    @pytest.mark.usefixtures("fresh_pools")
    def test_traced_pool_build_after_an_untraced_one(
        self, tmp_path, monkeypatch, capsys
    ):
        # Pool workers persist across builds and keep the tracer they
        # forked under; the traced run must still get workers that
        # write its file.  Both runs share this process, untraced first.
        from repro.cli import main

        # Private shard caches: a cache hit would skip the shard spans.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "untraced"))
        assert main(["analyze", "lion", "--jobs", "2"]) == 0
        trace_path = tmp_path / "run.jsonl"
        # The CLI exports the trace path; monkeypatch removes it again.
        monkeypatch.setenv("REPRO_TRACE_FILE", str(trace_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "traced"))
        assert main(
            ["--trace", str(trace_path), "analyze", "lion", "--jobs", "2"]
        ) == 0
        capsys.readouterr()

        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        submitter_pid = str(os.getpid())
        builds = {
            r["span"]
            for r in records
            if r["name"] == "parallel_build" and r["proc"] == submitter_pid
        }
        shards = [r for r in records if r["name"] == "shard_build"]
        assert len(builds) == 2  # the F and the G table
        assert len(shards) == 16  # 8 shards each
        for shard in shards:
            assert shard["proc"] != submitter_pid
            assert shard["parent"] in builds
        assert {r["trace"] for r in records} == {records[0]["trace"]}

    def test_pool_executor_tasks_carry_the_trace_tuple(self, tmp_path):
        # The tuple rides the pickled ShardTask itself; verify the
        # stamping side without any worker round trip.
        tracer = obs.Tracer(ListTraceWriter(), trace_id="T9")
        obs.activate(tracer)
        with obs.span("table_build") as span:
            assert span.remote() == ("T9", "1")


class TestWorkerEventLines:
    def test_poisoned_shard_park_emits_one_line_events(
        self, tmp_path, caplog
    ):
        bad = poisoned_task()
        key = shard_key(circuit_digest(bad.circuit), bad.backend, bad.kind, bad.faults)
        with BackgroundBroker() as broker:
            worker = TcpWorker(
                broker=broker.address,
                worker_id="w",
                cache_dir=str(tmp_path / "cache"),
                use_cache=False,
            )
            out: dict = {}
            thread = threading.Thread(
                target=lambda: out.update(stats=worker.serve()),
                daemon=True,
            )
            thread.start()
            with caplog.at_level(logging.INFO, logger="repro.obs"):
                with pytest.raises(AnalysisError, match="tcp shard 0"):
                    TcpExecutor(
                        broker=broker.address,
                        wait_timeout=60.0,
                        max_attempts=2,
                    ).submit([bad])
            worker.stop()
            thread.join(timeout=30)
            assert not thread.is_alive()
            failed = broker.stats()["failed"]
        assert out["stats"]["failed"] == 2
        assert [entry["key"] for entry in failed] == [key]

        events = [m for m in caplog.messages if m.startswith("event=")]
        requeues = [m for m in events if m.startswith("event=task_requeued")]
        parks = [m for m in events if m.startswith("event=shard_parked")]
        assert len(requeues) == 1 and len(parks) == 1
        for line in requeues + parks:
            assert f"key={key}" in line
            assert "\n" not in line  # one line, grep-able
        assert "attempts=1" in requeues[0]
        assert "AnalysisError" in parks[0]

        counters = obs.metrics().snapshot()
        assert counters["repro_broker_requeues_total"] == {"{}": 1.0}
        assert counters["repro_broker_parked_total"] == {"{}": 1.0}

    def test_lease_reclaim_emits_event_and_counter(self, caplog):
        """A worker that holds a build but stops heartbeating is
        scavenged: its lease is reclaimed and the shard requeued."""
        task = poisoned_task()
        key = shard_key(circuit_digest(task.circuit), task.backend, task.kind, task.faults)
        with BackgroundBroker(
            Broker(lease_timeout=0.2, steal=False)
        ) as broker:
            doomed = socket.create_connection(
                (broker.host, broker.port), timeout=10.0
            )
            submitter = socket.create_connection(
                (broker.host, broker.port), timeout=10.0
            )
            try:
                with caplog.at_level(logging.INFO, logger="repro.obs"):
                    send_frame(doomed, {
                        "op": "register",
                        "version": NET_FORMAT_VERSION,
                        "worker": "doomed-worker",
                    })
                    send_frame(submitter, {
                        "op": "submit",
                        "version": NET_FORMAT_VERSION,
                        "shards": [
                            {"key": key, "task": task, "shard_index": 0}
                        ],
                    })
                    doomed.settimeout(10.0)
                    assert recv_frame(doomed)["op"] == "build"
                    # Never ping: the scavenger must reclaim the lease.
                    deadline = time.monotonic() + 10.0
                    while broker.stats()["counters"]["requeues"] < 1:
                        assert time.monotonic() < deadline
                        time.sleep(0.02)
            finally:
                doomed.close()
                submitter.close()
        lost = [
            m for m in caplog.messages
            if m.startswith("event=broker_worker_lost")
        ]
        requeues = [
            m for m in caplog.messages
            if m.startswith("event=task_requeued")
        ]
        assert len(lost) == 1 and "worker=doomed-worker" in lost[0]
        assert "heartbeat stale" in lost[0]
        assert len(requeues) == 1 and f"key={key}" in requeues[0]
        counters = obs.metrics().snapshot()
        assert counters["repro_broker_requeues_total"] == {"{}": 1.0}
