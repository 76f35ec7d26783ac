"""The span tracer: deterministic ids, stitching, writers, the facade.

Determinism is the load-bearing property: under a ``ManualClock`` and a
pinned trace id, two identical traced programs must serialize to
byte-identical JSONL.  Stitching is the second: a worker-side tracer
with its *own* trace id must adopt the submitter's id when handed a
propagated ``(trace_id, span_id)`` tuple.
"""

from __future__ import annotations

import gc
import json
import logging
import warnings

import pytest

from repro import obs
from repro.obs.clock import ManualClock
from repro.obs.tracer import JsonlTraceWriter, ListTraceWriter, Tracer


def manual_tracer(
    trace_id: str = "T", proc: str | None = "p1"
) -> tuple[Tracer, ListTraceWriter, ManualClock]:
    writer = ListTraceWriter()
    clock = ManualClock()
    return Tracer(writer, clock=clock, trace_id=trace_id, proc=proc), writer, clock


class TestSpanIds:
    def test_root_spans_number_sequentially(self):
        tracer, writer, _ = manual_tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [r["span"] for r in writer.records] == ["1", "2"]
        assert all(r["parent"] is None for r in writer.records)

    def test_nesting_follows_the_ambient_context(self):
        tracer, writer, _ = manual_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        spans = {r["name"]: r for r in writer.records}
        assert spans["outer"]["span"] == "1"
        # Inner spans finish (and record) before the outer one.
        assert [r["span"] for r in writer.records[:2]] == ["1.1", "1.2"]
        assert all(r["parent"] == "1" for r in writer.records[:2])

    def test_ambient_context_restored_after_exit(self):
        tracer, _, _ = manual_tracer()
        assert obs.current_context() is None
        with tracer.span("a") as span:
            assert obs.current_context() is span.context
        assert obs.current_context() is None

    def test_explicit_span_id_overrides_allocation(self):
        tracer, writer, _ = manual_tracer()
        with tracer.span("shard", span_id="1.s7"):
            pass
        assert writer.records[0]["span"] == "1.s7"

    def test_root_prefix_namespaces_root_ids_only(self):
        writer = ListTraceWriter()
        tracer = Tracer(
            writer, clock=ManualClock(), trace_id="T", root_prefix="w9-"
        )
        with tracer.span("reclaim"):
            with tracer.span("inner"):
                pass
        tracer.event("parked")
        ids = [r["span"] for r in writer.records]
        # Roots get the worker namespace; children inherit the parent
        # id, so only roots needed disambiguation.
        assert ids == ["w9-1.1", "w9-1", "w9-2"]


class TestStitching:
    def test_remote_parent_adopts_submitter_trace_id(self):
        # The worker has its own tracer (own trace id, own process) but
        # opens the shard span with the submitter's propagated tuple.
        worker, writer, _ = manual_tracer(trace_id="WORKER", proc="w")
        with worker.span(
            "shard_build", parent=("T1", "1.2"), span_id="1.2.s3"
        ):
            pass
        record = writer.records[0]
        assert record["trace"] == "T1"
        assert record["span"] == "1.2.s3"
        assert record["parent"] == "1.2"

    def test_remote_tuple_comes_from_span_remote(self):
        tracer, _, _ = manual_tracer()
        with tracer.span("build") as span:
            assert span.remote() == ("T", "1")

    def test_record_writes_externally_measured_span(self):
        tracer, writer, _ = manual_tracer()
        tracer.record(
            "queue_wait", 0.25, parent=("T1", "1.2"), span_id="1.2.q3"
        )
        record = writer.records[0]
        assert record["trace"] == "T1"
        assert record["dur"] == 0.25
        assert record["span"] == "1.2.q3"


class TestRecords:
    def test_durations_come_from_the_injected_clock(self):
        tracer, writer, clock = manual_tracer()
        with tracer.span("timed"):
            clock.advance(1.5)
        assert writer.records[0]["dur"] == 1.5
        assert writer.records[0]["t0"] == 1_000_000.0

    def test_exception_stamps_error_attr_and_still_records(self):
        tracer, writer, _ = manual_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        record = writer.records[0]
        assert record["attrs"]["error"] == "RuntimeError"

    def test_attrs_are_sorted_and_set_merges(self):
        tracer, writer, _ = manual_tracer()
        with tracer.span("s", zebra=1, alpha=2) as span:
            span.set(mid=3)
        assert list(writer.records[0]["attrs"]) == ["alpha", "mid", "zebra"]

    def test_trace_is_byte_deterministic_under_manual_clock(self):
        def run() -> bytes:
            tracer, writer, clock = manual_tracer()
            with tracer.span("build", circuit="lion"):
                clock.advance(0.5)
                with tracer.span("shard", span_id="1.s0"):
                    clock.advance(0.25)
            tracer.event("done", parent=None, built=2)
            return b"".join(
                json.dumps(
                    r, sort_keys=True, separators=(",", ":")
                ).encode() + b"\n"
                for r in writer.records
            )

        assert run() == run()

    def test_proc_defaults_to_pid_at_record_time(self):
        import os

        tracer, writer, _ = manual_tracer(proc=None)
        with tracer.span("s"):
            pass
        assert writer.records[0]["proc"] == str(os.getpid())


class TestJsonlWriter:
    def test_truncate_then_append_interleaves_processes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        first = JsonlTraceWriter(str(path), truncate=True)
        first.write({"kind": "span", "name": "a"})
        first.close()
        # A second writer (another process in production) appends.
        second = JsonlTraceWriter(str(path))
        second.write({"kind": "span", "name": "b"})
        second.close()
        names = [
            json.loads(line)["name"]
            for line in path.read_text().splitlines()
        ]
        assert names == ["a", "b"]

    def test_truncate_empties_a_previous_run(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"stale": true}\n')
        writer = JsonlTraceWriter(str(path), truncate=True)
        writer.close()
        assert path.read_text() == ""

    def test_lazy_open_never_creates_an_unused_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = JsonlTraceWriter(str(path))
        writer.close()
        assert not path.exists()

    def test_closed_writer_stays_closed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = JsonlTraceWriter(str(path), truncate=True)
        writer.write({"kind": "span", "name": "a"})
        writer.close()
        with pytest.raises(ValueError, match="trace.jsonl"):
            writer.write({"kind": "span", "name": "late"})
        writer.close()  # idempotent
        assert [
            json.loads(line)["name"]
            for line in path.read_text().splitlines()
        ] == ["a"]
        assert writer._fh is None


class TestActivation:
    def test_null_tracer_is_the_default(self):
        assert not obs.tracing_enabled()
        span = obs.span("anything")
        assert span.remote() is None
        with span:
            pass  # shared no-op; nothing written anywhere

    def test_environment_resolution_joins_a_trace(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE_FILE", str(path))
        obs.reset()  # drop the conftest pin; re-resolve from env
        assert obs.tracing_enabled()
        with obs.span("from_env"):
            pass
        obs.current_tracer().close()
        assert json.loads(path.read_text())["name"] == "from_env"

    def test_reset_closes_the_tracer_opened_from_the_environment(
        self, tmp_path, monkeypatch
    ):
        """Dropping the env-opened tracer closes its file: garbage
        collection finds no open trace file to warn about."""
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE_FILE", str(path))
        obs.reset()
        opened = obs.current_tracer()
        with obs.span("from_env"):
            pass  # opens the writer's file
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            obs.reset(obs.NULL_TRACER)
            del opened
            gc.collect()
        assert not [
            w for w in caught if issubclass(w.category, ResourceWarning)
        ]
        assert json.loads(path.read_text())["name"] == "from_env"

    def test_reset_keeps_an_activated_tracer_open(self, tmp_path):
        """Only the module's own tracer is closed: an activated one
        belongs to its caller."""
        writer = JsonlTraceWriter(str(tmp_path / "mine.jsonl"))
        obs.activate(Tracer(writer))
        with obs.span("mine"):
            pass
        obs.reset(obs.NULL_TRACER)
        assert writer._fh is not None
        writer.close()

    def test_trace_id_env_pins_the_id(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_ID", "PINNED")
        tracer = Tracer(ListTraceWriter())
        assert tracer.trace_id == "PINNED"

    def test_activate_returns_previous_resolution(self):
        tracer, _, _ = manual_tracer()
        previous = obs.activate(tracer)
        assert obs.current_tracer() is tracer
        obs.reset(previous)
        assert obs.current_tracer() is previous


class TestEventFacade:
    def test_event_writes_record_and_deterministic_log_line(self, caplog):
        tracer, writer, _ = manual_tracer()
        obs.activate(tracer)
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            obs.event("lease_reclaimed", key="abc123", worker="w1")
        assert writer.records[0]["kind"] == "event"
        assert writer.records[0]["name"] == "lease_reclaimed"
        assert caplog.messages == ["event=lease_reclaimed key=abc123 worker=w1"]

    def test_event_logs_even_when_tracing_is_off(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            obs.event("shard_parked", key="k", error="AnalysisError: x")
        assert "event=shard_parked" in caplog.messages[0]
