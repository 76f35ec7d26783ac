"""The analysis service: request handling above the transport layer.

:class:`AnalysisService` accepts JSON request payloads, turns them into
the *exact* argv the CLI would parse, builds detection tables through a
tiered cache, and renders responses with the same report functions
``repro analyze`` / ``repro escape`` / ``repro partition`` use — so a
service response is byte-identical to the corresponding CLI run.

Tiered cache
    The hot tier is a bounded in-memory :class:`~repro.caching.LRUCache`
    of built :class:`~repro.faults.universe.FaultUniverse` values
    (tables and worst-case scan included) and rendered partition
    reports, keyed on circuit digest plus the normalized
    backend identity.  Below it sits the existing content-addressed
    shard cache (``REPRO_CACHE_DIR``), which parallel builds consult
    per shard — a hot-tier miss that the shard cache covers rebuilds
    tables from disk instead of from simulation.

Single flight
    Builds are deduplicated through
    :class:`~repro.serve.singleflight.SingleFlight`: N concurrent
    identical requests trigger exactly one table build; the rest await
    the same future.

Streaming
    ``analyze/stream`` responses interleave adaptive round-by-round
    progress lines (``progress: round 1: ...``) with the final report.
    Progress is published through a per-key hub so *every* concurrent
    streamed request observes the one build's rounds, with replay for
    late joiners.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import io
from dataclasses import dataclass, replace
from typing import Any, AsyncIterator, Callable, cast

from repro import obs
from repro.adaptive import AdaptiveBackend
from repro.bench_suite.registry import get_circuit
from repro.caching import LRUCache, table_lru_capacity
from repro.circuit.netlist import Circuit
from repro.cli import (
    analyze_report,
    build_parser,
    escape_report,
    execution_label,
    partition_report,
)
from repro.errors import ReproError
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import table_identity
from repro.io_formats import NETLIST_FORMATS, parse_netlist
from repro.options import OPTIONS, backend_from_options
from repro.parallel import ShardExecutor, circuit_digest
from repro.serve.singleflight import SingleFlight
from repro.serve.stats import ServiceStats

__all__ = ["AnalysisService", "ServiceError"]

#: Hot-tier key: (kind, circuit digest, backend identity, extras...).
CacheKey = tuple[object, ...]

#: Accepted payload option keys per command, in argv emission order:
#: every row of the option table, then the command's own flags.
_COMMAND_KEYS: dict[str, tuple[str, ...]] = {
    command: tuple(option.dest for option in OPTIONS) + extras
    for command, extras in (
        ("analyze", ("seed", "confidence")),
        ("escape", ("seed", "k", "nmax")),
        ("partition", ("seed", "max_inputs")),
    )
}
#: Payload keys of valueless flags, sent as JSON booleans.
_SWITCHES = frozenset(
    o.dest for o in OPTIONS if o.kwargs.get("action") == "store_true"
)


class ServiceError(ReproError):
    """A request the service rejects (HTTP 400)."""


@dataclass
class _Request:
    """One parsed, validated analysis request."""

    command: str
    args: argparse.Namespace
    circuit: Circuit
    circuit_name: str
    backend: Any
    cache_key: CacheKey


class _ProgressHub:
    """Fan-out of one build's progress lines to streamed requests.

    ``publish`` is called from the build's executor thread (the
    adaptive ``on_round`` hook); delivery hops onto the event loop, so
    subscribers only ever touch the hub from the loop thread.  The full
    line history is kept for replay: a request joining an in-flight
    build still streams every round from the beginning.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self.lines: list[str] = []
        self._subscribers: list[asyncio.Queue[str | None]] = []
        self.closed = False

    def publish(self, line: str) -> None:
        """Thread-safe: record ``line`` and wake every subscriber."""
        self._loop.call_soon_threadsafe(self._deliver, line)

    def _deliver(self, line: str) -> None:
        self.lines.append(line)
        for queue in self._subscribers:
            queue.put_nowait(line)

    def close(self) -> None:
        """Thread-safe: signal end-of-progress to every subscriber."""
        self._loop.call_soon_threadsafe(self._seal)

    def _seal(self) -> None:
        self.closed = True
        for queue in self._subscribers:
            queue.put_nowait(None)

    def subscribe(self) -> tuple[asyncio.Queue[str | None], list[str]]:
        """A live queue plus the replay of lines published so far."""
        queue: asyncio.Queue[str | None] = asyncio.Queue()
        replay = list(self.lines)
        if self.closed:
            queue.put_nowait(None)
        else:
            self._subscribers.append(queue)
        return queue, replay


class AnalysisService:
    """Shared state and handlers behind the ``repro serve`` endpoints."""

    def __init__(
        self,
        *,
        executor: ShardExecutor | None = None,
        table_lru: int | None = None,
    ) -> None:
        #: The execution setting ``repro serve`` resolved at start-up;
        #: requests that name none of ``jobs``/``executor``/``broker``
        #: build on it.
        self.executor = executor
        capacity = (
            table_lru_capacity() if table_lru is None else table_lru
        )
        self.cache: LRUCache[CacheKey, object] = LRUCache(capacity)
        self.flights: SingleFlight[CacheKey, object] = SingleFlight()
        self.stats = ServiceStats()
        self._parser = build_parser()
        self._hubs: dict[CacheKey, _ProgressHub] = {}

    # -- request parsing ----------------------------------------------
    def _resolve(self, command: str, payload: object) -> _Request:
        """Validate ``payload`` into a request, via the CLI parser.

        The payload becomes an argv the CLI parser consumes, so every
        default (seed 2005, confidence 0.95, ...) and every validation
        rule is the CLI's own — the two front ends cannot drift.
        """
        if not isinstance(payload, dict):
            raise ServiceError(
                f"request body must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        allowed = _COMMAND_KEYS[command]
        unknown = sorted(set(payload) - set(allowed) - {"circuit"})
        if unknown:
            raise ServiceError(
                f"unknown option(s) for {command}: {', '.join(unknown)}; "
                f"accepted: circuit, {', '.join(allowed)}"
            )
        circuit, circuit_name, registered = self._circuit_for(payload)
        argv = [command, circuit_name if registered else "-"]
        for key in allowed:
            if key not in payload:
                continue
            value = payload[key]
            flag = "--" + key.replace("_", "-")
            if key in _SWITCHES:
                if not isinstance(value, bool):
                    raise ServiceError(
                        f"option {key!r} must be a JSON boolean, "
                        f"got {value!r}"
                    )
                if value:
                    argv.append(flag)
            elif isinstance(value, bool):
                raise ServiceError(f"option {key!r} must not be a boolean")
            else:
                argv.extend([flag, str(value)])
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                args = self._parser.parse_args(argv)
        except SystemExit:
            detail = stderr.getvalue().strip().splitlines()
            raise ServiceError(
                detail[-1] if detail else "invalid request parameters"
            ) from None
        # A request naming jobs/executor/broker resolves its own
        # setting as the CLI would (``...``); others take the service's.
        named = {"jobs", "executor", "broker"} & payload.keys()
        backend = backend_from_options(
            vars(args), "service", ... if named else self.executor
        )
        cache_key: CacheKey
        if command == "partition":
            cache_key = (
                "partition",
                circuit_digest(circuit),
                table_identity(backend),
                args.max_inputs,
            )
        else:
            cache_key = (
                "tables",
                circuit_digest(circuit),
                table_identity(backend),
                execution_label(getattr(backend, "executor", None)),
            )
        return _Request(
            command=command,
            args=args,
            circuit=circuit,
            circuit_name=circuit_name,
            backend=backend,
            cache_key=cache_key,
        )

    def _circuit_for(
        self, payload: dict[Any, Any]
    ) -> tuple[Circuit, str, bool]:
        """Resolve ``circuit``: a registry name or an inline source."""
        spec = payload.get("circuit")
        if spec is None:
            raise ServiceError(
                "request is missing 'circuit' (a registry name or an "
                "inline {'format', 'source'} object)"
            )
        if isinstance(spec, str):
            return get_circuit(spec), spec, True
        if isinstance(spec, dict):
            unknown = sorted(set(spec) - {"format", "source", "name"})
            if unknown:
                raise ServiceError(
                    f"unknown inline-circuit key(s): {', '.join(unknown)}"
                )
            fmt = spec.get("format")
            source = spec.get("source")
            if not isinstance(fmt, str) or fmt not in NETLIST_FORMATS:
                raise ServiceError(
                    f"inline circuit 'format' must be one of "
                    f"{', '.join(NETLIST_FORMATS)}, got {fmt!r}"
                )
            if not isinstance(source, str):
                raise ServiceError(
                    "inline circuit 'source' must be the netlist text"
                )
            name = spec.get("name")
            if name is not None and not isinstance(name, str):
                raise ServiceError("inline circuit 'name' must be a string")
            circuit = parse_netlist(fmt, source, name=name)
            return circuit, circuit.name, False
        raise ServiceError(
            f"'circuit' must be a name or an inline object, got "
            f"{type(spec).__name__}"
        )

    # -- the tiered build ---------------------------------------------
    async def _hot_tier(
        self,
        request: _Request,
        build: Callable[[_ProgressHub | None], object],
        progress: bool = False,
    ) -> object:
        """``request``'s hot-tier value, tier by tier.

        Hot tier first; on a miss, exactly one single-flight build runs
        ``build`` in a worker thread (where any parallel backend then
        consults the on-disk shard cache) and stores its result.  With
        ``progress`` the build also gets a progress hub, registered for
        the streaming endpoint until the build settles.
        """
        key = request.cache_key
        value = self.cache.get(key)
        obs.metrics().counter(
            "repro_hot_tier_lookups_total",
            help="Hot-tier probes on the request path",
            outcome="miss" if value is None else "hit",
        ).inc()
        if value is not None:
            return value
        loop = asyncio.get_running_loop()
        hub: _ProgressHub | None = None
        if progress:
            hub = self._hubs.get(key)
            if hub is None:
                hub = _ProgressHub(loop)
                self._hubs[key] = hub

        async def factory() -> object:
            # run_in_executor does not propagate contextvars, so the
            # request span is captured here (loop thread) and passed to
            # the build span explicitly — builds show up as children of
            # the HTTP request that led the flight.
            parent = obs.current_context()

            def traced_build() -> object:
                with obs.span(
                    "service_build",
                    parent=parent,
                    command=request.command,
                    circuit=request.circuit_name,
                ):
                    return build(hub)

            try:
                built = await loop.run_in_executor(None, traced_build)
                self.cache.put(key, built)
                return built
            finally:
                if hub is not None and self._hubs.get(key) is hub:
                    del self._hubs[key]
                    hub.close()

        return await self.flights.run(key, factory)

    async def _tables(self, request: _Request) -> FaultUniverse:
        """The built universe for ``request``; adaptive builds publish
        each round to the streaming endpoint."""
        backend = request.backend

        def build(hub: _ProgressHub | None) -> FaultUniverse:
            if hub is None:
                return self._build_universe(request.circuit, backend)
            target, publish = backend.target_halfwidth, hub.publish
            return self._build_universe(request.circuit, replace(
                backend, on_round=lambda round_: publish(round_.render(target))
            ))

        return cast(FaultUniverse, await self._hot_tier(
            request, build, progress=isinstance(backend, AdaptiveBackend)
        ))

    @staticmethod
    def _build_universe(circuit: Circuit, backend: Any) -> FaultUniverse:
        """A universe with its tables and worst-case scan built, so the
        one flight for its key does all the work and renders only read."""
        universe = FaultUniverse(circuit, backend=backend)
        universe.worst_case
        return universe

    # -- endpoint handlers --------------------------------------------
    async def analyze(self, payload: object) -> str:
        """``POST /analyze``: the ``repro analyze`` report, cached."""
        request = self._resolve("analyze", payload)
        universe = await self._tables(request)
        return await self._render(
            lambda: analyze_report(
                universe,
                circuit_name=request.circuit_name,
                backend_name=request.args.backend,
                seed=request.args.seed,
                confidence=request.args.confidence,
            )
        )

    async def escape(self, payload: object) -> str:
        """``POST /escape``: the ``repro escape`` report, cached tables."""
        request = self._resolve("escape", payload)
        universe = await self._tables(request)
        return await self._render(
            lambda: escape_report(
                universe,
                circuit_name=request.circuit_name,
                backend_name=request.args.backend,
                k=request.args.k,
                nmax=request.args.nmax,
                seed=request.args.seed,
            )
        )

    async def partition(self, payload: object) -> str:
        """``POST /partition``: the ``repro partition`` report, cached."""
        request = self._resolve("partition", payload)
        report = await self._hot_tier(
            request,
            lambda _hub: partition_report(
                request.circuit,
                request.backend,
                circuit_name=request.circuit_name,
                max_inputs=request.args.max_inputs,
            ),
        )
        return cast(str, report)

    async def analyze_stream(self, payload: object) -> AsyncIterator[str]:
        """``POST /analyze/stream``: progress lines, then the report.

        Yields ``progress: <round>`` lines while an adaptive build runs
        (replayed from the start when joining an in-flight build), then
        the byte-identical ``repro analyze`` report.  Non-adaptive
        backends and hot-tier hits skip straight to the report.
        """
        request = self._resolve("analyze", payload)
        task = asyncio.ensure_future(self._tables(request))
        # One tick so the build task runs far enough to register its
        # progress hub (or to resolve a cached universe without one).
        await asyncio.sleep(0)
        hub = self._hubs.get(request.cache_key)
        try:
            if hub is not None:
                queue, replay = hub.subscribe()
                for line in replay:
                    yield f"progress: {line}\n"
                while True:
                    getter = asyncio.ensure_future(queue.get())
                    done, _pending = await asyncio.wait(
                        {getter, task},
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    if getter in done:
                        line = getter.result()
                        if line is None:
                            break
                        yield f"progress: {line}\n"
                        continue
                    # The build settled without closing our queue (e.g.
                    # another leader's cached result): flush what was
                    # published and move on to the report.
                    getter.cancel()
                    while not queue.empty():
                        line = queue.get_nowait()
                        if line is not None:
                            yield f"progress: {line}\n"
                    break
            universe = await task
        finally:
            # A client that disconnects mid-stream abandons its wait;
            # single-flight cancels the build once the last one leaves.
            if not task.done():
                task.cancel()
        yield await self._render(
            lambda: analyze_report(
                universe,
                circuit_name=request.circuit_name,
                backend_name=request.args.backend,
                seed=request.args.seed,
                confidence=request.args.confidence,
            )
        )

    @staticmethod
    async def _render(render: Callable[[], str]) -> str:
        """Run a report renderer off the event loop thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, render)

    # -- introspection ------------------------------------------------
    def stats_snapshot(self) -> dict[str, object]:
        """The ``/stats`` document."""
        return {
            "requests": self.stats.total_requests,
            "endpoints": self.stats.snapshot(),
            "hot_tier": self.cache.stats(),
            "flights": self.flights.stats(),
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` document (Prometheus text exposition).

        Event-driven metrics (request counters, latency histograms,
        build/cache/queue counters) accumulate in the process-wide
        registry as they happen; state-shaped numbers (hot-tier
        occupancy, in-flight builds) are sampled into gauges at scrape
        time so the exposition always reflects the current service.
        """
        registry = obs.metrics()
        for prefix, source, what in (
            ("repro_hot_tier", self.cache.stats(), "hot-tier LRU"),
            ("repro_flights", self.flights.stats(), "single-flight"),
        ):
            for name in sorted(source):
                value = source[name]
                registry.gauge(
                    f"{prefix}_{name}",
                    help=f"Sampled {what} counter at scrape time",
                ).set(float(value))
        return registry.render()
