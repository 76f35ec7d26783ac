"""One host for the long-lived asyncio endpoints, stdlib only.

An :class:`Endpoint` (``repro serve``'s
:class:`~repro.serve.http.HttpServer`, ``repro broker``'s
:class:`~repro.parallel.netqueue.Broker`) binds in ``start()``,
recording its port, and unbinds in ``close()``.  The CLI runs one with
:func:`run_foreground`; tests, benchmarks and ``repro serve
--broker-port`` run one on a daemon thread with :class:`BackgroundHost`.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import sys
import threading
from collections.abc import AsyncIterator, Coroutine
from concurrent.futures import Future
from typing import Any, Generic, Protocol, Self, TypeVar

from repro.errors import AnalysisError

__all__ = ["BackgroundHost", "Endpoint", "run_foreground"]

#: Seconds a background start, stop or :meth:`BackgroundHost.call` may take.
TIMEOUT_S = 30.0

T = TypeVar("T")


class Endpoint(Protocol):
    host: str
    port: int

    @property
    def address(self) -> str: ...
    async def start(self) -> asyncio.Server: ...
    async def close(self) -> None: ...


E = TypeVar("E", bound=Endpoint)


@contextlib.asynccontextmanager
async def _serving(endpoint: Endpoint, name: str) -> AsyncIterator[None]:
    try:
        await endpoint.start()
    except (OSError, OverflowError) as exc:  # in use, bad host, bad port
        raise AnalysisError(f"repro {name} failed to start: {exc}") from exc
    try:
        yield
    finally:
        await endpoint.close()


def run_foreground(endpoint: Endpoint, name: str, detail: str) -> int:
    """``repro NAME``: print ``repro NAME listening on ADDRESS (DETAIL)``
    once bound (so ``--port 0`` is usable and wrappers can wait for the
    line), serve until SIGINT or SIGTERM, print ``repro NAME: shutting
    down``, close the endpoint, shut down the process's shard pools and
    return 0."""

    async def main() -> None:
        async with _serving(endpoint, name):
            stopped = asyncio.Event()
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, stopped.set
            )
            sys.stdout.write(
                f"repro {name} listening on {endpoint.address} ({detail})\n"
            )
            sys.stdout.flush()
            try:
                await stopped.wait()  # or until SIGINT cancels main
            finally:
                sys.stdout.write(f"repro {name}: shutting down\n")

    try:
        with contextlib.suppress(KeyboardInterrupt):  # how asyncio.run ends
            asyncio.run(main())
    finally:
        # asyncio.run has joined the build threads by now, so no build
        # holds a pool; its workers must not outlive the endpoint.
        from repro.parallel.executors import shutdown_pools

        shutdown_pools()
    return 0


class BackgroundHost(Generic[E]):
    """``endpoint``'s event loop on a daemon thread named ``repro-NAME``.

    ``start()`` (or ``with``) returns once the endpoint is bound and
    raises :class:`~repro.errors.AnalysisError` if it is not;
    :meth:`call` runs a coroutine on the loop; ``stop()`` closes the
    endpoint and joins the thread, and stopping twice is a no-op.
    """

    def __init__(self, endpoint: E, name: str) -> None:
        self.endpoint = endpoint
        self.name = name
        self._bound: Future[None] = Future()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopped: asyncio.Event | None = None

    @property
    def host(self) -> str:
        return self.endpoint.host

    @property
    def port(self) -> int:
        return self.endpoint.port

    @property
    def address(self) -> str:
        return self.endpoint.address

    def start(self) -> Self:
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._main(),),
            name=f"repro-{self.name}", daemon=True,
        )
        self._thread.start()
        try:
            self._bound.result(timeout=TIMEOUT_S)
        except TimeoutError:
            raise AnalysisError(
                f"repro {self.name} failed to start in {TIMEOUT_S:g}s"
            ) from None
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stopped is not None:
            with contextlib.suppress(RuntimeError):  # the loop has ended
                self._loop.call_soon_threadsafe(self._stopped.set)
        if self._thread is not None:
            self._thread.join(timeout=TIMEOUT_S)

    def call(self, coro: Coroutine[Any, Any, T]) -> T:
        """Run ``coro`` on the host's loop and return its result."""
        loop = self._loop
        if loop is None or not loop.is_running():
            coro.close()
            raise AnalysisError(f"repro {self.name} is not running")
        future = asyncio.run_coroutine_threadsafe(coro, loop)
        return future.result(timeout=TIMEOUT_S)

    def __enter__(self) -> Self:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        try:
            async with _serving(self.endpoint, self.name):
                self._bound.set_result(None)
                await self._stopped.wait()
        except AnalysisError as exc:  # start() raises it on its thread
            self._bound.set_exception(exc)
