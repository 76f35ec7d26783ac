"""``repro serve``: the always-on analysis service.

Layers, bottom up:

:mod:`repro.serve.singleflight`
    Deduplication of concurrent identical builds — N requesters, one
    table construction.
:mod:`repro.serve.stats`
    Request counters and latency histograms behind ``/stats``.
:mod:`repro.serve.service`
    :class:`AnalysisService` — payloads parsed through the CLI's own
    argument parser, a tiered table cache (in-memory LRU hot tier over
    the content-addressed shard cache), and response rendering shared
    with the CLI so service output is byte-identical to ``repro
    analyze`` / ``escape`` / ``partition``.
:mod:`repro.serve.http`
    The asyncio HTTP transport (:class:`HttpServer`, a
    :mod:`repro.daemon` endpoint that ``repro serve`` runs in the
    foreground) and the :class:`BackgroundServer` host tests and
    benchmarks embed.
"""

from repro.serve.singleflight import SingleFlight
from repro.serve.stats import EndpointStats, ServiceStats
from repro.serve.service import AnalysisService, ServiceError
from repro.serve.http import BackgroundServer, HttpServer

__all__ = [
    "AnalysisService",
    "BackgroundServer",
    "EndpointStats",
    "HttpServer",
    "ServiceError",
    "ServiceStats",
    "SingleFlight",
]
