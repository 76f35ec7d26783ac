"""repro.obs — tracing, metrics, and trace analysis for the stack.

Three stdlib-only modules:

* :mod:`repro.obs.clock` — injected monotonic/wall clocks (the single
  audited ``time`` call site; RPL007 enforces the funnel).
* :mod:`repro.obs.tracer` — span tracer writing JSONL trace events,
  with ``(trace_id, span_id)`` propagation through pickled shard tasks
  and broker frames so distributed builds stitch into one trace.
* :mod:`repro.obs.metrics` — a registry of counters/gauges/histograms
  rendered as Prometheus text exposition (``GET /metrics``) and JSON
  (``/stats``).

The facade here is what instrumented modules import::

    from repro import obs

    with obs.span("table_build", circuit=name, kind="stuck_at") as sp:
        ...
    obs.metrics().counter("repro_build_total", kind="stuck_at").inc()

Tracing is off by default (:func:`span` is a shared no-op) and enabled
per run via ``--trace PATH`` / ``REPRO_TRACE_FILE``; metrics are always
on and cheap (per-build, not per-vector, call sites).
"""

from __future__ import annotations

from repro.obs.clock import Clock, ManualClock, SystemClock, system_clock
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.tracer import (
    NULL_TRACER,
    JsonlTraceWriter,
    NullTracer,
    Span,
    SpanContext,
    Tracer,
    activate,
    current_context,
    current_tracer,
    event,
    reset,
    span,
    tracing_enabled,
)

__all__ = [
    "Clock",
    "JsonlTraceWriter",
    "ManualClock",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanContext",
    "SystemClock",
    "Tracer",
    "activate",
    "current_context",
    "current_tracer",
    "event",
    "global_registry",
    "metrics",
    "reset",
    "span",
    "system_clock",
    "tracing_enabled",
]


def metrics() -> MetricsRegistry:
    """The process-wide metrics registry (alias of ``global_registry``)."""
    return global_registry()
