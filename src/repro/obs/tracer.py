"""Span tracing: structured JSONL trace events with remote stitching.

A :class:`Tracer` opens named spans (``with tracer.span("table_build",
circuit="lion"): ...``) and writes one JSON object per *finished* span
to a trace file.  Three properties drive the design:

**Zero overhead when off.**  The default tracer is :data:`NULL_TRACER`;
its ``span()`` hands back one shared no-op context manager and its
``event()`` returns immediately, so instrumented hot paths cost a
dictionary literal and an attribute call when tracing is disabled (the
``bench_obs`` benchmark holds this under 2% of a table build).  Tracing
turns on explicitly (``--trace PATH`` on the CLI, :func:`activate` in
code) or through the ``REPRO_TRACE_FILE`` environment variable, which
worker processes inherit.

**Deterministic content.**  Span ids are hierarchical decimal paths
("1", "1.2", "1.2.s3") allocated by per-parent counters, never random;
record keys are emitted sorted; and every timestamp flows through the
injected :class:`~repro.obs.clock.Clock`, so a trace produced under a
:class:`~repro.obs.clock.ManualClock` with a pinned trace id is
byte-for-byte reproducible.  Under the real clock, everything except
``t0``/``dur``/``proc`` is deterministic for a deterministic program.

**Cross-process stitching.**  A span's :meth:`Span.remote` context is a
plain ``(trace_id, span_id)`` tuple that travels inside pickled
:class:`~repro.parallel.worker.ShardTask` payloads and broker build
frames.  A worker process (same host via the pool executor, any host via
``repro worker``) opens its shard span with that tuple as ``parent``:
the span adopts the *submitter's* trace id, so ``repro trace summary``
stitches worker-side spans into the submitting run's tree no matter
where they executed.  Shard spans use explicit ids derived from the
parent id and the shard index, so concurrent workers never collide.
"""

from __future__ import annotations

import contextvars
import json
import logging
import os
import threading
from types import TracebackType
from typing import IO, Mapping, Protocol, Union

from repro.obs.clock import Clock, system_clock

__all__ = [
    "JsonlTraceWriter",
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "Span",
    "SpanContext",
    "Tracer",
    "activate",
    "current_tracer",
    "event",
    "reset",
    "span",
    "tracing_enabled",
]

#: Environment variable that switches tracing on for a whole process
#: tree (the CLI sets it when ``--trace PATH`` is given, so pool
#: worker processes inherit the destination).
TRACE_FILE_ENV = "REPRO_TRACE_FILE"

#: Pins the trace id (CI fixtures diff traces byte-for-byte with this
#: plus a manual clock; the default id is unique per run).
TRACE_ID_ENV = "REPRO_TRACE_ID"

#: Structured one-line events also land here, so operators see worker
#: lease churn without a trace file (``repro worker`` attaches a
#: stderr handler at INFO).
EVENT_LOGGER = "repro.obs"

AttrValue = Union[str, int, float, bool, None]


class SpanContext:
    """The (trace id, span id) coordinates of one span."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def as_tuple(self) -> tuple[str, str]:
        return (self.trace_id, self.span_id)

    def __repr__(self) -> str:
        return f"SpanContext({self.trace_id!r}, {self.span_id!r})"


#: What ``span(parent=...)`` accepts: an in-process context, the plain
#: tuple form that travels through pickles, or None (ambient nesting).
ParentLike = Union[SpanContext, "tuple[str, str]", None]

_CURRENT: contextvars.ContextVar[SpanContext | None] = (
    contextvars.ContextVar("repro_obs_span", default=None)
)


def current_context() -> SpanContext | None:
    """The ambient span context of this thread/task (None at top level)."""
    return _CURRENT.get()


class TraceWriter(Protocol):
    """Destination for finished span records."""

    def write(self, record: Mapping[str, object]) -> None: ...

    def close(self) -> None: ...


class JsonlTraceWriter:
    """Append JSON lines to a trace file, one record per line.

    The file opens lazily on the first record (a worker that never
    builds a shard never creates it) in append mode, so submitter and
    worker processes sharing a filesystem interleave whole lines into
    one file.  ``truncate=True`` (the CLI root process) empties the
    file up front so each traced run starts a fresh trace.  A closed
    writer stays closed: a later ``write`` raises ``ValueError``, as a
    closed file does, instead of reopening the file.
    """

    def __init__(self, path: str, truncate: bool = False) -> None:
        self.path = path
        self._fh: IO[str] | None = None
        self._closed = False
        self._lock = threading.Lock()
        if truncate:
            with open(path, "w", encoding="utf-8"):
                pass

    def write(self, record: Mapping[str, object]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._closed:
                raise ValueError(f"trace file {self.path!r} is closed")
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class ListTraceWriter:
    """Collect records in memory (tests, and the summary round-trip)."""

    def __init__(self) -> None:
        self.records: list[dict[str, object]] = []
        self._lock = threading.Lock()

    def write(self, record: Mapping[str, object]) -> None:
        with self._lock:
            self.records.append(dict(record))

    def close(self) -> None:
        pass


class Span:
    """One open span; a context manager that records itself on exit."""

    __slots__ = (
        "_tracer",
        "name",
        "context",
        "parent_id",
        "attrs",
        "_t0_wall",
        "_t0_mono",
        "duration",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        context: SpanContext,
        parent_id: str | None,
        attrs: dict[str, AttrValue],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.attrs = attrs
        self._t0_wall = 0.0
        self._t0_mono = 0.0
        self.duration: float | None = None
        self._token: contextvars.Token[SpanContext | None] | None = None

    def set(self, **attrs: AttrValue) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def remote(self) -> tuple[str, str]:
        """The picklable ``(trace_id, span_id)`` propagation form."""
        return self.context.as_tuple()

    def __enter__(self) -> "Span":
        clock = self._tracer.clock
        self._t0_wall = clock.wall()
        self._t0_mono = clock.monotonic()
        self._token = _CURRENT.set(self.context)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        clock = self._tracer.clock
        self.duration = clock.monotonic() - self._t0_mono
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer.emit_span(self)


class Tracer:
    """Allocates span ids, times spans, and writes finished records.

    Parameters
    ----------
    writer:
        Destination for records (:class:`JsonlTraceWriter` in
        production, :class:`ListTraceWriter` in tests).
    clock:
        Injected time source (default: the system clock).
    trace_id:
        Pinned trace id; default honours ``REPRO_TRACE_ID``, else
        derives a per-run unique id from the wall clock and pid.
    proc:
        Process label stamped on every record.  Default None resolves
        to the writing process's pid *at record time*, so fork-started
        pool workers that inherit an activated tracer stamp their own
        pid; pass an explicit label to pin it (deterministic tests).
    root_prefix:
        Namespace for *root* span ids (children inherit their parent's
        id, so only roots can collide).  A worker process that adopts a
        submitter's trace id allocates roots from the same ``1, 2,
        ...`` sequence as the submitter; a per-worker prefix
        (``"vm-1234-"``) keeps its local roots — reclaim events,
        shard-internal builds — unambiguous in the shared trace.
    """

    enabled = True

    def __init__(
        self,
        writer: TraceWriter,
        clock: Clock | None = None,
        trace_id: str | None = None,
        proc: str | None = None,
        root_prefix: str | None = None,
    ) -> None:
        self.writer = writer
        self.clock = clock if clock is not None else system_clock()
        if trace_id is None:
            trace_id = os.environ.get(TRACE_ID_ENV) or (
                f"{int(self.clock.wall() * 1e6):x}-{os.getpid():x}"
            )
        self.trace_id = trace_id
        self.proc = proc
        self.root_prefix = root_prefix
        self._lock = threading.Lock()
        self._children: dict[str | None, int] = {}

    # -- id allocation -------------------------------------------------
    def _child_id(self, parent_id: str | None) -> str:
        with self._lock:
            n = self._children.get(parent_id, 0) + 1
            self._children[parent_id] = n
        if parent_id is not None:
            return f"{parent_id}.{n}"
        if self.root_prefix:
            return f"{self.root_prefix}{n}"
        return str(n)

    @staticmethod
    def _resolve_parent(
        parent: ParentLike,
    ) -> tuple[str | None, str | None]:
        """``(trace_id, span_id)`` of the requested or ambient parent."""
        if parent is None:
            ambient = _CURRENT.get()
            if ambient is None:
                return None, None
            return ambient.trace_id, ambient.span_id
        if isinstance(parent, SpanContext):
            return parent.trace_id, parent.span_id
        trace_id, span_id = parent
        return trace_id, span_id

    # -- span creation -------------------------------------------------
    def span(
        self,
        name: str,
        parent: ParentLike = None,
        span_id: str | None = None,
        **attrs: AttrValue,
    ) -> Span:
        """Open a span (use as a context manager).

        ``parent`` defaults to the ambient span of this thread/task; a
        propagated ``(trace_id, span_id)`` tuple adopts the *remote*
        trace id so worker-side spans stitch into the submitter's
        trace.  ``span_id`` overrides the allocated id — shard builds
        use ``<parent>.s<index>`` so retried or concurrent workers
        produce predictable, non-colliding ids.
        """
        parent_trace, parent_span = self._resolve_parent(parent)
        trace_id = parent_trace if parent_trace is not None else self.trace_id
        sid = span_id if span_id is not None else self._child_id(parent_span)
        return Span(
            self, name, SpanContext(trace_id, sid), parent_span, dict(attrs)
        )

    def record(
        self,
        name: str,
        duration: float,
        parent: ParentLike = None,
        span_id: str | None = None,
        t0: float | None = None,
        **attrs: AttrValue,
    ) -> None:
        """Write a span whose duration was measured externally.

        Used for latencies that no single process observes end to end —
        e.g. queue wait measured as claim wall time minus enqueue wall
        time.
        """
        parent_trace, parent_span = self._resolve_parent(parent)
        trace_id = parent_trace if parent_trace is not None else self.trace_id
        sid = span_id if span_id is not None else self._child_id(parent_span)
        self.writer.write(
            self._base_record(
                "span", name, trace_id, sid, parent_span,
                self.clock.wall() if t0 is None else t0,
                attrs, duration=duration,
            )
        )

    def event(
        self,
        name: str,
        parent: ParentLike = None,
        **attrs: AttrValue,
    ) -> None:
        """Write a zero-duration point event under the ambient span."""
        parent_trace, parent_span = self._resolve_parent(parent)
        trace_id = parent_trace if parent_trace is not None else self.trace_id
        sid = self._child_id(parent_span)
        self.writer.write(
            self._base_record(
                "event", name, trace_id, sid, parent_span,
                self.clock.wall(), attrs,
            )
        )

    # -- record emission -----------------------------------------------
    def emit_span(self, span: Span) -> None:
        self.writer.write(
            self._base_record(
                "span",
                span.name,
                span.context.trace_id,
                span.context.span_id,
                span.parent_id,
                span._t0_wall,
                span.attrs,
                duration=span.duration,
            )
        )

    def _base_record(
        self,
        kind: str,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        t0: float,
        attrs: Mapping[str, AttrValue],
        duration: float | None = None,
    ) -> dict[str, object]:
        record: dict[str, object] = {
            "kind": kind,
            "name": name,
            "trace": trace_id,
            "span": span_id,
            "parent": parent_id,
            "t0": round(t0, 6),
            # Resolved per record, not per tracer: a fork-started pool
            # worker inherits the activated tracer and must stamp its
            # own pid (an explicit proc label stays pinned for tests).
            "proc": self.proc if self.proc is not None else str(os.getpid()),
        }
        if duration is not None:
            record["dur"] = round(duration, 6)
        if attrs:
            record["attrs"] = dict(sorted(attrs.items()))
        return record

    def close(self) -> None:
        self.writer.close()


class NullSpan:
    """The shared do-nothing span (tracing disabled)."""

    __slots__ = ()

    name = ""
    context: SpanContext | None = None
    parent_id: str | None = None
    duration: float | None = None

    def set(self, **attrs: AttrValue) -> None:
        pass

    def remote(self) -> None:
        return None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        pass


_NULL_SPAN = NullSpan()


class NullTracer:
    """The zero-overhead disabled tracer (the default)."""

    enabled = False
    trace_id = ""

    def span(
        self,
        name: str,
        parent: ParentLike = None,
        span_id: str | None = None,
        **attrs: AttrValue,
    ) -> NullSpan:
        return _NULL_SPAN

    def record(
        self,
        name: str,
        duration: float,
        parent: ParentLike = None,
        span_id: str | None = None,
        t0: float | None = None,
        **attrs: AttrValue,
    ) -> None:
        pass

    def event(
        self,
        name: str,
        parent: ParentLike = None,
        **attrs: AttrValue,
    ) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()

#: Either flavour, as consumers see it.
AnyTracer = Union[Tracer, NullTracer]

#: None means "not yet resolved": the first :func:`current_tracer` call
#: checks ``REPRO_TRACE_FILE`` — this is how pool worker processes,
#: which inherit the submitter's environment, join a trace.
_ACTIVE: AnyTracer | None = None
_ACTIVE_LOCK = threading.Lock()
#: The tracer :func:`current_tracer` opened from the environment.
_OPENED: Tracer | None = None


def current_tracer() -> AnyTracer:
    """The process-wide active tracer (NULL_TRACER when disabled)."""
    global _ACTIVE, _OPENED
    tracer = _ACTIVE
    if tracer is None:
        with _ACTIVE_LOCK:
            if _ACTIVE is None:
                path = os.environ.get(TRACE_FILE_ENV)
                if path:
                    _ACTIVE = _OPENED = Tracer(JsonlTraceWriter(path))
                else:
                    _ACTIVE = NULL_TRACER
            tracer = _ACTIVE
    return tracer


def tracing_enabled() -> bool:
    return current_tracer().enabled


def activate(tracer: AnyTracer) -> AnyTracer | None:
    """Install ``tracer`` process-wide; returns the previous resolution."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = tracer
    return previous


def reset(previous: AnyTracer | None = None) -> None:
    """Restore a previous resolution (None re-reads the environment),
    closing a dropped tracer that the environment opened."""
    global _ACTIVE, _OPENED
    with _ACTIVE_LOCK:
        dropped, _ACTIVE = _ACTIVE, previous
        if dropped is not previous and dropped is _OPENED:
            _OPENED = None
            dropped.close()


def span(
    name: str,
    parent: ParentLike = None,
    span_id: str | None = None,
    **attrs: AttrValue,
) -> Span | NullSpan:
    """Open a span on the active tracer (the instrumentation entry)."""
    return current_tracer().span(
        name, parent=parent, span_id=span_id, **attrs
    )


def event(name: str, log: bool = True, **attrs: AttrValue) -> None:
    """Emit a structured point event: trace record + one log line.

    The log line is deterministic ``event=<name> k=v ...`` text (keys
    sorted) on the :data:`EVENT_LOGGER` logger, so worker lease churn is
    observable with plain logging even when no trace file is active.
    """
    current_tracer().event(name, **attrs)
    if log:
        fields = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        logging.getLogger(EVENT_LOGGER).info(
            "event=%s%s", name, f" {fields}" if fields else ""
        )
