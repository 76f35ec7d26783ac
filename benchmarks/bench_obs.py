"""Overhead benchmark for the ``repro.obs`` instrumentation layer.

The design contract of the tracer is *zero overhead when off*: every
instrumented hot path (PPSFP matrix batches, detection-table builds,
executor shards) pays only a no-op span handout when no tracer is
active.  This bench quantifies that claim three ways:

1. **Disabled span cost** — a tight loop over ``obs.span(...)`` with
   the default null tracer measures the per-call price of an
   instrumentation point that is turned off.
2. **Attributed build overhead** — a traced table build (to an
   in-memory writer) counts how many spans/events one build actually
   emits; ``spans × disabled_cost ÷ untraced build wall`` is the
   fraction of a real build spent in disabled instrumentation.  The
   acceptance floor: **< 2%** (``REPRO_BENCH_OBS_MAX_OVERHEAD``
   overrides, e.g. on noisy shared CI runners).
3. **Enabled tracing cost** — the same build with a live JSONL writer,
   reported (not asserted) so the trajectory records what switching
   tracing *on* costs.

Numbers land in ``benchmarks/out/BENCH_obs.json``.

Environment knobs: ``REPRO_BENCH_OBS_CIRCUIT`` (default ``wide28``),
``REPRO_BENCH_OBS_SAMPLES`` (default 512), ``REPRO_BENCH_OBS_REPEATS``
(default 3 build repetitions, best-of), ``REPRO_BENCH_OBS_SPAN_LOOPS``
(default 200000 no-op span calls), ``REPRO_BENCH_OBS_MAX_OVERHEAD``
(default 0.02).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from conftest import env_int

OUT_PATH = Path(__file__).parent / "out" / "BENCH_obs.json"

CIRCUIT = os.environ.get("REPRO_BENCH_OBS_CIRCUIT") or "wide28"
SAMPLES = env_int("REPRO_BENCH_OBS_SAMPLES", 512)
REPEATS = env_int("REPRO_BENCH_OBS_REPEATS", 3)
SPAN_LOOPS = env_int("REPRO_BENCH_OBS_SPAN_LOOPS", 200_000)
MAX_OVERHEAD = float(
    os.environ.get("REPRO_BENCH_OBS_MAX_OVERHEAD") or "0.02"
)


def _build_once() -> float:
    """One PPSFP universe build; returns wall seconds."""
    from repro.bench_suite.registry import get_circuit
    from repro.faults.universe import FaultUniverse
    from repro.faultsim.backends import make_backend

    backend = make_backend("sampled", samples=SAMPLES, seed=7)
    universe = FaultUniverse(get_circuit(CIRCUIT), backend=backend)
    t0 = time.perf_counter()
    universe.target_table  # noqa: B018 - lazy build, forced here
    universe.untargeted_table  # noqa: B018
    return time.perf_counter() - t0


def _best_build() -> float:
    return min(_build_once() for _ in range(REPEATS))


def test_disabled_tracer_overhead(record_speedup):
    from repro import obs
    from repro.obs.tracer import ListTraceWriter, Tracer

    previous = obs.activate(obs.NULL_TRACER)
    try:
        # -- 1: per-call cost of a disabled instrumentation point ------
        t0 = time.perf_counter()
        for _ in range(SPAN_LOOPS):
            with obs.span("noop", circuit=CIRCUIT, batch=64):
                pass
        disabled_span_s = (time.perf_counter() - t0) / SPAN_LOOPS

        # -- 2: spans per build, and the untraced build wall -----------
        untraced_s = _best_build()

        writer = ListTraceWriter()
        obs.activate(Tracer(writer, trace_id="bench", proc="bench"))
        counted_s = _build_once()
        span_count = len(writer.records)
        obs.activate(obs.NULL_TRACER)
        assert span_count > 0, "instrumented build emitted no spans"

        overhead_fraction = span_count * disabled_span_s / untraced_s
        assert overhead_fraction < MAX_OVERHEAD, (
            f"disabled instrumentation costs {overhead_fraction:.2%} of a "
            f"{CIRCUIT} build ({span_count} spans x "
            f"{disabled_span_s * 1e9:.0f} ns), floor is {MAX_OVERHEAD:.0%}"
        )

        # -- 3: what tracing *on* costs (reported, not asserted) -------
        trace_path = OUT_PATH.parent / "bench_obs_trace.jsonl"
        obs.activate(
            Tracer(
                obs.JsonlTraceWriter(str(trace_path), truncate=True),
                trace_id="bench",
            )
        )
        traced_s = _best_build()
        obs.current_tracer().close()
        obs.activate(obs.NULL_TRACER)
        try:
            trace_path.unlink()
        except OSError:
            pass
    finally:
        obs.reset(previous)

    entry = {
        "name": "obs_overhead",
        "circuit": CIRCUIT,
        "samples": SAMPLES,
        "disabled_span_ns": disabled_span_s * 1e9,
        "spans_per_build": span_count,
        "untraced_build_s": untraced_s,
        "counted_build_s": counted_s,
        "traced_build_s": traced_s,
        "disabled_overhead_fraction": overhead_fraction,
        "enabled_overhead_fraction": traced_s / untraced_s - 1.0,
        "max_overhead": MAX_OVERHEAD,
    }
    record_speedup(dict(entry))

    payload = {
        "schema": 1,
        "created_unix": time.time(),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "overhead": entry,
    }
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(
        f"\n[artifact] {OUT_PATH}\n"
        f"obs overhead ({CIRCUIT}, {SAMPLES} samples): disabled span "
        f"{disabled_span_s * 1e9:.0f} ns x {span_count} spans = "
        f"{overhead_fraction:.3%} of a {untraced_s:.3f}s build "
        f"(floor {MAX_OVERHEAD:.0%}); tracing on costs "
        f"{(traced_s / untraced_s - 1.0):+.1%}\n"
    )
