"""Asyncio HTTP transport for the analysis service.

A deliberately small HTTP/1.1 subset on ``asyncio.start_server`` — the
stdlib is the only dependency the project allows, and the service needs
exactly: JSON request bodies sized by ``Content-Length``, plain-text
report responses, chunked transfer encoding for streamed progress, and
``Connection: close`` semantics (one request per connection).

Routes
    ``GET /healthz``
        Liveness: ``{"status": "ok"}``.
    ``GET /stats``
        Request counters, hot-tier hit rate, in-flight builds, and
        per-endpoint latency histograms.
    ``GET /metrics``
        The shared :mod:`repro.obs.metrics` registry as Prometheus
        text exposition (version 0.0.4), with hot-tier and
        single-flight gauges sampled at scrape time.
    ``POST /analyze`` / ``POST /escape`` / ``POST /partition``
        JSON payload in, the byte-identical CLI report out
        (``text/plain``).
    ``POST /analyze/stream``
        Chunked ``text/plain``: ``progress: <round>`` lines as an
        adaptive build grows, then the full report.

Errors are JSON: a :class:`~repro.errors.ReproError` (bad circuit,
bad options, parse failure) is the client's fault → 400; anything else
is ours → 500.  :class:`HttpServer` is a :mod:`repro.daemon` endpoint;
:class:`BackgroundServer` hosts it on a daemon thread.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import AsyncIterator

from repro import obs
from repro.daemon import BackgroundHost
from repro.errors import ReproError
from repro.serve.service import AnalysisService

__all__ = ["BackgroundServer", "HttpServer"]

#: Largest accepted request body; analysis payloads are small JSON
#: documents (inline netlists included), so this is purely a backstop.
MAX_BODY_BYTES = 16 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
}


class HttpServer:
    """One service instance behind the HTTP routes."""

    def __init__(
        self, service: AnalysisService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.Server | None = None

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle (a repro.daemon endpoint) ---------------------------
    async def start(self) -> asyncio.Server:
        """Bind, record the bound port, return the listening server."""
        self._server = await asyncio.start_server(
            self.handle, self.host, self.port
        )
        self.port = int(self._server.sockets[0].getsockname()[1])
        return self._server

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ------------------------------------------
    async def handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one request on one connection, then close it."""
        try:
            request = await self._read_request(reader)
            if request is not None:
                method, path, body = request
                await self._dispatch(method, path, body, writer)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away or sent garbage framing; just close
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes] | None:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return None
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            return method, path, b"\xff"  # unparseable on purpose -> 400
        body = await reader.readexactly(length) if length > 0 else b""
        return method, path, body

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        route = f"{method} {path}"
        endpoint = self.service.stats.endpoint(route)
        started = time.monotonic()
        error = True
        with obs.current_tracer().span(
            "http_request", method=method, path=path
        ) as request_span:
            ctx = request_span.context
            headers: tuple[tuple[str, str], ...] = ()
            if ctx is not None:
                headers = (
                    ("X-Repro-Trace-Id", ctx.trace_id),
                    ("X-Repro-Span-Id", ctx.span_id),
                )
            try:
                if method == "GET" and path == "/healthz":
                    await self._send_json(
                        writer, 200, {"status": "ok"}, headers=headers
                    )
                elif method == "GET" and path == "/stats":
                    await self._send_json(
                        writer,
                        200,
                        self.service.stats_snapshot(),
                        headers=headers,
                    )
                elif method == "GET" and path == "/metrics":
                    await self._send(
                        writer,
                        200,
                        "text/plain; version=0.0.4; charset=utf-8",
                        self.service.metrics_text().encode("utf-8"),
                        headers=headers,
                    )
                elif method == "POST" and path == "/analyze/stream":
                    await self._send_stream(
                        writer,
                        self.service.analyze_stream(self._payload(body)),
                        headers=headers,
                    )
                elif method == "POST" and path in (
                    "/analyze",
                    "/escape",
                    "/partition",
                ):
                    handler = {
                        "/analyze": self.service.analyze,
                        "/escape": self.service.escape,
                        "/partition": self.service.partition,
                    }[path]
                    report = await handler(self._payload(body))
                    await self._send_text(writer, 200, report, headers=headers)
                else:
                    await self._send_json(
                        writer,
                        404,
                        {"error": f"no such endpoint: {route}"},
                        headers=headers,
                    )
                    return  # a miss is not an endpoint error
                error = False
            except ReproError as exc:
                await self._send_json(
                    writer, 400, {"error": str(exc)}, headers=headers
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - boundary: report, don't crash the server
                await self._send_json(
                    writer,
                    500,
                    {"error": f"internal error: {type(exc).__name__}: {exc}"},
                    headers=headers,
                )
            finally:
                request_span.set(error=error)
                endpoint.observe(time.monotonic() - started, error)

    @staticmethod
    def _payload(body: bytes) -> object:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ReproError(
                "request body must be a valid JSON document"
            ) from None

    # -- response writing ---------------------------------------------
    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        payload: bytes,
        *,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        extra = "".join(f"{name}: {value}\r\n" for name, value in headers)
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{extra}"
            f"Connection: close\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    @classmethod
    async def _send_json(
        cls,
        writer: asyncio.StreamWriter,
        status: int,
        document: dict[str, object],
        *,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        await cls._send(
            writer, status, "application/json", body, headers=headers
        )

    @classmethod
    async def _send_text(
        cls,
        writer: asyncio.StreamWriter,
        status: int,
        text: str,
        *,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        await cls._send(
            writer,
            status,
            "text/plain; charset=utf-8",
            text.encode("utf-8"),
            headers=headers,
        )

    async def _send_stream(
        self,
        writer: asyncio.StreamWriter,
        chunks: AsyncIterator[str],
        *,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        """Send an async iterator of text as a chunked 200 response.

        The first chunk is awaited *before* the status line goes out,
        so request validation errors still surface as a clean 400
        instead of a half-written 200.
        """
        try:
            first = await anext(chunks)
        except StopAsyncIteration:
            first = ""
        extra = "".join(f"{name}: {value}\r\n" for name, value in headers)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain; charset=utf-8\r\n"
            "Transfer-Encoding: chunked\r\n"
            f"{extra}"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        await self._write_chunk(writer, first)
        async for chunk in chunks:
            await self._write_chunk(writer, chunk)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    @staticmethod
    async def _write_chunk(
        writer: asyncio.StreamWriter, text: str
    ) -> None:
        if not text:
            return  # a zero-length chunk would terminate the stream
        data = text.encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("latin-1"))
        writer.write(data + b"\r\n")
        await writer.drain()


class BackgroundServer(BackgroundHost[HttpServer]):
    """The service on a daemon thread — for tests and benchmarks:
    ``with BackgroundServer() as server:`` listens on an OS-assigned
    port, and ``server.address`` is its base URL."""

    def __init__(
        self,
        service: AnalysisService | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service if service is not None else AnalysisService()
        super().__init__(HttpServer(self.service, host, port), "serve")
