"""Metrics: a process-wide registry of counters, gauges, histograms.

This generalizes the service's latency histograms (``serve/stats.py``
now builds on :class:`Histogram` from here) into one shared registry
that every layer — table builds, shard cache, tcp broker, PPSFP
kernel, adaptive controller, HTTP service — writes into, and that
renders in two shapes:

* :meth:`MetricsRegistry.render` — Prometheus text exposition format
  (version 0.0.4): ``# HELP`` / ``# TYPE`` headers, cumulative
  ``_bucket{le=...}`` histogram series with ``_sum`` / ``_count``, and
  deterministic ordering (families by name, series by label values) so
  two snapshots of identical state are byte-identical.
* Per-instrument ``snapshot()`` dicts — the JSON shape ``/stats``
  already serves.

Unlike tracing, metrics are always on: every update is a guarded
in-place add on a plain attribute, cheap enough for per-build and
per-batch (not per-vector) call sites.  Instruments are created lazily
and cached by ``(name, labels)``, so hot paths call
``registry.counter("repro_build_total", kind="stuck_at").inc()``
without holding instrument handles.

Quantiles on an *empty* histogram are ``None`` (rendered as JSON
``null``), not the lowest bucket bound — an idle endpoint must not
report a fake 1 ms p99.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Union

__all__ = [
    "Counter",
    "DEFAULT_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
]

#: Upper bucket bounds in seconds (1-2.5-5 per decade, 1 ms .. 100 s);
#: observations above the last bound land in the overflow bucket.
DEFAULT_BOUNDS: tuple[float, ...] = (
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 25.0, 50.0,
    100.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Label sets are stored sorted by key so the same labels in any kwarg
#: order address the same series.
Labels = tuple[tuple[str, str], ...]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that goes up and down (queue depth, hot-tier size)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bound histogram with approximate quantiles.

    One bisect per observation; counts are per-bucket (cumulative sums
    are computed at render time, as the Prometheus format requires).
    """

    __slots__ = ("bounds", "counts", "count", "sum", "max", "_lock")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be increasing: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (seconds, for latency histograms)."""
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.sum += value
            if value > self.max:
                self.max = value

    def quantile(self, q: float) -> float | None:
        """Approximate q-quantile: the upper bound of the q-th bucket.

        The overflow bucket reports the observed maximum.  Returns
        ``None`` before the first observation — an empty histogram has
        no quantiles, and reporting the lowest bucket bound would
        invent a latency that was never measured.
        """
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for i, bucket in enumerate(self.counts):
            cumulative += bucket
            if cumulative >= rank and bucket:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max
        return self.max

    def snapshot(self) -> dict[str, object]:
        """JSON-ready summary (stable key order; empty quantiles null)."""
        buckets = {
            f"le_{bound:g}s": self.counts[i]
            for i, bound in enumerate(self.bounds)
        }
        buckets["overflow"] = self.counts[len(self.bounds)]
        return {
            "count": self.count,
            "sum_s": self.sum,
            "mean_s": self.sum / self.count if self.count else 0.0,
            "max_s": self.max,
            "p50_s": self.quantile(0.5),
            "p99_s": self.quantile(0.99),
            "buckets": buckets,
        }


Instrument = Union[Counter, Gauge, Histogram]


class _Family:
    """All series of one metric name (same kind, varying labels)."""

    __slots__ = ("name", "kind", "help", "bounds", "series")

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        bounds: tuple[float, ...] | None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.bounds = bounds
        self.series: dict[Labels, Instrument] = {}


class MetricsRegistry:
    """Lazily-created, label-addressed instruments plus rendering."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- instrument access ---------------------------------------------
    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        instrument = self._series(name, "counter", help, None, labels)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        instrument = self._series(name, "gauge", help, None, labels)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
        **labels: str,
    ) -> Histogram:
        instrument = self._series(name, "histogram", help, bounds, labels)
        assert isinstance(instrument, Histogram)
        return instrument

    def _series(
        self,
        name: str,
        kind: str,
        help_text: str,
        bounds: tuple[float, ...] | None,
        labels: dict[str, str],
    ) -> Instrument:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in labels:
            if not _LABEL_NAME.match(label) or label == "le":
                raise ValueError(f"invalid label name: {label!r}")
        key: Labels = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, bounds)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {family.kind}, not a {kind}"
                )
            series = family.series.get(key)
            if series is None:
                if kind == "counter":
                    series = Counter()
                elif kind == "gauge":
                    series = Gauge()
                else:
                    series = Histogram(
                        bounds if bounds is not None else DEFAULT_BOUNDS
                    )
                family.series[key] = series
            return series

    def reset(self) -> None:
        """Drop every family (test isolation for the global registry)."""
        with self._lock:
            self._families.clear()

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition format 0.0.4, deterministic order."""
        lines: list[str] = []
        with self._lock:
            families = [self._families[n] for n in sorted(self._families)]
        for family in families:
            if family.help:
                lines.append(
                    f"# HELP {family.name} {_escape_help(family.help)}"
                )
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels in sorted(family.series):
                series = family.series[labels]
                if isinstance(series, (Counter, Gauge)):
                    lines.append(
                        f"{family.name}{_labels_text(labels)}"
                        f" {_fmt(series.value)}"
                    )
                else:
                    lines.extend(_histogram_lines(family.name, labels, series))
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, object]:
        """JSON-ready dump: ``{name: {labels-text: value-or-summary}}``."""
        out: dict[str, object] = {}
        with self._lock:
            families = [self._families[n] for n in sorted(self._families)]
        for family in families:
            per_series: dict[str, object] = {}
            for labels in sorted(family.series):
                series = family.series[labels]
                key = _labels_text(labels) or "{}"
                if isinstance(series, (Counter, Gauge)):
                    per_series[key] = series.value
                else:
                    per_series[key] = series.snapshot()
            out[family.name] = per_series
        return out


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _labels_text(labels: Labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _fmt_bound(bound: float) -> str:
    return _fmt(bound) if bound == int(bound) else f"{bound:g}"


def _histogram_lines(
    name: str, labels: Labels, histogram: Histogram
) -> list[str]:
    lines: list[str] = []
    cumulative = 0
    for i, bound in enumerate(histogram.bounds):
        cumulative += histogram.counts[i]
        lines.append(
            f"{name}_bucket"
            f"{_labels_text(labels, (('le', _fmt_bound(bound)),))}"
            f" {cumulative}"
        )
    lines.append(
        f"{name}_bucket{_labels_text(labels, (('le', '+Inf'),))}"
        f" {histogram.count}"
    )
    lines.append(f"{name}_sum{_labels_text(labels)} {_fmt(histogram.sum)}")
    lines.append(f"{name}_count{_labels_text(labels)} {histogram.count}")
    return lines


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry the instrumented layers write into."""
    return _GLOBAL
