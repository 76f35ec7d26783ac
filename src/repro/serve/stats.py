"""Service telemetry: request counters and latency histograms.

The service answers ``/stats`` from these structures, so they are
designed for cheap updates on the request path (one bisect per
observation) and a deterministic JSON snapshot: bucket labels are
fixed 1-2.5-5 log-spaced bounds, and every mapping is emitted in a
stable order.

The histogram is :class:`repro.obs.metrics.Histogram`, the one the
shared registry every layer writes into uses.  Quantiles of an *empty*
histogram are ``None`` — ``/stats`` reports ``null`` rather than the
lowest bucket bound for an endpoint that has served nothing.

Per-endpoint observations are mirrored into the process-wide metrics
registry (``repro_http_requests_total`` / ``repro_http_request_seconds``
by method and path), which is what ``GET /metrics`` renders.
"""

from __future__ import annotations

from repro import obs
from repro.obs.metrics import Histogram

__all__ = ["EndpointStats", "ServiceStats"]


class EndpointStats:
    """Per-endpoint request/error counters plus a latency histogram."""

    def __init__(self, route: str = "") -> None:
        self.route = route
        self.requests = 0
        self.errors = 0
        self.latency = Histogram()

    def observe(self, seconds: float, error: bool) -> None:
        self.requests += 1
        if error:
            self.errors += 1
        self.latency.observe(seconds)
        if self.route:
            method, _, path = self.route.partition(" ")
            registry = obs.metrics()
            registry.counter(
                "repro_http_requests_total",
                help="HTTP requests served, by route and outcome",
                method=method,
                path=path,
                outcome="error" if error else "ok",
            ).inc()
            registry.histogram(
                "repro_http_request_seconds",
                help="HTTP request latency, by route",
                method=method,
                path=path,
            ).observe(seconds)

    def snapshot(self) -> dict[str, object]:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "latency": self.latency.snapshot(),
        }


class ServiceStats:
    """All per-endpoint stats, keyed by route (``"POST /analyze"``)."""

    def __init__(self) -> None:
        self._endpoints: dict[str, EndpointStats] = {}

    def endpoint(self, route: str) -> EndpointStats:
        stats = self._endpoints.get(route)
        if stats is None:
            stats = EndpointStats(route)
            self._endpoints[route] = stats
        return stats

    @property
    def total_requests(self) -> int:
        return sum(s.requests for s in self._endpoints.values())

    def snapshot(self) -> dict[str, object]:
        return {
            route: self._endpoints[route].snapshot()
            for route in sorted(self._endpoints)
        }
