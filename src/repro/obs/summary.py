"""Trace analysis: span trees, per-name aggregates, critical paths.

Consumes the JSONL files :class:`~repro.obs.tracer.JsonlTraceWriter`
produces — possibly interleaved by several processes (submitter, pool
workers, ``repro worker`` fleets) — and reassembles them into one tree
per trace id.  Reassembly relies only on record content, never file
order: parent links come from span ids, sibling order from the
hierarchical id's natural sort, so the same trace written in any
interleaving renders identically.

Timing semantics:

* **total** — the span's own recorded duration.
* **self** — total minus the sum of direct children's totals, clamped
  at zero.  Children that ran *in parallel* (pool/tcp shards) can sum
  past their parent; the clamp attributes that parent entirely to its
  children rather than inventing negative self time.
* **coverage** — the fraction of the root span's duration attributed to
  named child spans (1 − root self/total).  The acceptance bar for the
  instrumented CLI path is ≥95%.
* **critical path** — the greedy longest-child walk from the root; for
  sharded builds this surfaces the straggler shard.

Spans whose parent id never appears in the file (a worker span whose
submitter trace was written elsewhere) are promoted to roots, so a
partial trace still renders instead of vanishing.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from repro.errors import AnalysisError

__all__ = [
    "SpanNode",
    "TraceSummary",
    "build_forest",
    "load_trace",
    "render_summary",
    "render_tree",
    "summarize",
]


@dataclass
class SpanNode:
    """One span (or point event) plus its reassembled children."""

    trace: str
    span_id: str
    parent_id: str | None
    name: str
    kind: str
    t0: float
    duration: float
    proc: str
    attrs: dict[str, object]
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.duration

    @property
    def self_time(self) -> float:
        """Duration not attributed to direct children (clamped at 0)."""
        covered = sum(c.duration for c in self.children if c.kind == "span")
        return max(0.0, self.duration - covered)


def load_trace(path: str) -> list[SpanNode]:
    """Parse a JSONL trace file into flat (childless) span nodes."""
    nodes: list[SpanNode] = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read trace file: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                raw = json.loads(text)
            except ValueError as exc:
                raise AnalysisError(
                    f"{path}:{lineno}: not a JSON trace record: {exc}"
                ) from exc
            if not isinstance(raw, dict):
                raise AnalysisError(
                    f"{path}:{lineno}: trace record must be an object"
                )
            nodes.append(_node_from(raw, f"{path}:{lineno}"))
    return nodes


def _node_from(raw: dict[str, object], where: str) -> SpanNode:
    try:
        trace = str(raw["trace"])
        span_id = str(raw["span"])
        name = str(raw["name"])
    except KeyError as exc:
        raise AnalysisError(f"{where}: record missing key {exc}") from exc
    parent = raw.get("parent")
    attrs = raw.get("attrs")
    return SpanNode(
        trace=trace,
        span_id=span_id,
        parent_id=None if parent is None else str(parent),
        name=name,
        kind=str(raw.get("kind", "span")),
        t0=float(raw.get("t0", 0.0)),  # type: ignore[arg-type]
        duration=float(raw.get("dur", 0.0)),  # type: ignore[arg-type]
        proc=str(raw.get("proc", "?")),
        attrs=dict(attrs) if isinstance(attrs, dict) else {},
    )


_ID_PART = re.compile(r"(\d+)")


def _id_sort_key(span_id: str) -> tuple[tuple[str, int], ...]:
    """Natural order for hierarchical ids: 1.2 < 1.10, s2 < s10."""
    key: list[tuple[str, int]] = []
    for part in span_id.split("."):
        pieces = _ID_PART.split(part)
        prefix = pieces[0]
        number = int(pieces[1]) if len(pieces) > 1 else -1
        key.append((prefix, number))
    return tuple(key)


def build_forest(nodes: list[SpanNode]) -> dict[str, list[SpanNode]]:
    """Link children to parents; return roots grouped by trace id.

    Children are ordered by the natural sort of their span ids, which
    is also allocation order within one process — file interleaving
    does not affect the result.
    """
    by_id: dict[tuple[str, str], SpanNode] = {}
    for node in nodes:
        node.children = []
        by_id[(node.trace, node.span_id)] = node
    roots: dict[str, list[SpanNode]] = {}
    for node in nodes:
        parent = (
            by_id.get((node.trace, node.parent_id))
            if node.parent_id is not None
            else None
        )
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.setdefault(node.trace, []).append(node)
    for node in nodes:
        node.children.sort(key=lambda n: _id_sort_key(n.span_id))
    for trace_roots in roots.values():
        trace_roots.sort(key=lambda n: _id_sort_key(n.span_id))
    return roots


@dataclass
class NameAggregate:
    """Rolled-up timing for every span sharing one name."""

    name: str
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    max_single: float = 0.0


@dataclass
class TraceSummary:
    """Everything ``repro trace summary`` renders for one trace."""

    trace_id: str
    roots: list[SpanNode]
    span_count: int
    event_count: int
    procs: list[str]
    wall: float
    coverage: float
    aggregates: list[NameAggregate]
    critical_path: list[SpanNode]


def _walk(node: SpanNode) -> list[SpanNode]:
    out = [node]
    for child in node.children:
        out.extend(_walk(child))
    return out


def summarize(nodes: list[SpanNode], trace_id: str | None = None) -> TraceSummary:
    """Aggregate one trace (the largest in the file, unless pinned)."""
    forest = build_forest(nodes)
    if not forest:
        raise AnalysisError("trace is empty: no span records found")
    if trace_id is None:
        trace_id = max(
            sorted(forest),
            key=lambda t: sum(len(_walk(r)) for r in forest[t]),
        )
    try:
        roots = forest[trace_id]
    except KeyError as exc:
        known = ", ".join(sorted(forest))
        raise AnalysisError(
            f"trace id {trace_id!r} not in file (found: {known})"
        ) from exc

    everything = [n for root in roots for n in _walk(root)]
    spans = [n for n in everything if n.kind == "span"]
    events = [n for n in everything if n.kind != "span"]

    aggregates: dict[str, NameAggregate] = {}
    for node in spans:
        agg = aggregates.setdefault(node.name, NameAggregate(node.name))
        agg.count += 1
        agg.total += node.duration
        agg.self_time += node.self_time
        agg.max_single = max(agg.max_single, node.duration)

    top_root = max(
        (r for r in roots if r.kind == "span"),
        key=lambda n: n.duration,
        default=None,
    )
    wall = top_root.duration if top_root is not None else 0.0
    coverage = (
        1.0 - top_root.self_time / top_root.duration
        if top_root is not None and top_root.duration > 0
        else 0.0
    )

    path: list[SpanNode] = []
    cursor = top_root
    while cursor is not None:
        path.append(cursor)
        cursor = max(
            (c for c in cursor.children if c.kind == "span"),
            key=lambda n: n.duration,
            default=None,
        )

    return TraceSummary(
        trace_id=trace_id,
        roots=roots,
        span_count=len(spans),
        event_count=len(events),
        procs=sorted({n.proc for n in everything}),
        wall=wall,
        coverage=coverage,
        aggregates=sorted(
            aggregates.values(), key=lambda a: (-a.total, a.name)
        ),
        critical_path=path,
    )


def _fmt_secs(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000:.2f}ms"


def _attr_text(attrs: dict[str, object], limit: int = 4) -> str:
    if not attrs:
        return ""
    parts = [f"{k}={attrs[k]}" for k in sorted(attrs)[:limit]]
    if len(attrs) > limit:
        parts.append("...")
    return " {" + " ".join(parts) + "}"


def render_summary(summary: TraceSummary, top: int = 10) -> str:
    """The ``repro trace summary`` report (deterministic text)."""
    lines = [
        f"trace {summary.trace_id}",
        f"  spans: {summary.span_count}"
        f"  events: {summary.event_count}"
        f"  procs: {len(summary.procs)}",
        f"  wall: {_fmt_secs(summary.wall)}"
        f"  attributed to child spans: {summary.coverage * 100:.1f}%",
        "",
        f"  {'span name':<24} {'count':>5} {'total':>10} "
        f"{'self':>10} {'max':>10}",
    ]
    for agg in summary.aggregates[:top]:
        lines.append(
            f"  {agg.name:<24} {agg.count:>5} "
            f"{_fmt_secs(agg.total):>10} {_fmt_secs(agg.self_time):>10} "
            f"{_fmt_secs(agg.max_single):>10}"
        )
    dropped = len(summary.aggregates) - top
    if dropped > 0:
        lines.append(f"  ... {dropped} more span name(s)")
    lines.append("")
    lines.append("  critical path:")
    for i, node in enumerate(summary.critical_path[: top + 2]):
        lines.append(
            f"  {'  ' * i}-> {node.name} {_fmt_secs(node.duration)}"
            f" [span {node.span_id}]"
        )
    return "\n".join(lines)


def render_tree(summary: TraceSummary, max_attrs: int = 4) -> str:
    """The ``repro trace tree`` report: the full indented span tree."""
    lines = [f"trace {summary.trace_id}"]

    def emit(node: SpanNode, depth: int) -> None:
        indent = "  " * (depth + 1)
        if node.kind == "span":
            lines.append(
                f"{indent}{node.name}"
                f"  total={_fmt_secs(node.duration)}"
                f" self={_fmt_secs(node.self_time)}"
                f" [span {node.span_id} proc {node.proc}]"
                f"{_attr_text(node.attrs, max_attrs)}"
            )
        else:
            lines.append(
                f"{indent}* {node.name}"
                f" [event proc {node.proc}]{_attr_text(node.attrs, max_attrs)}"
            )
        for child in node.children:
            emit(child, depth + 1)

    for root in summary.roots:
        emit(root, 0)
    return "\n".join(lines)
