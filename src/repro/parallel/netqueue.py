"""TCP queue transport with work stealing: the distributed work queue.

Distributed table builds need no shared mount and no polling.  A single
asyncio :class:`Broker` (started with ``repro broker --port N`` or
embedded in ``repro serve``) holds the queue state in memory and talks
a tiny length-prefixed pickle protocol over TCP:

* **submitters** (:class:`TcpExecutor`, the ``--executor tcp``
  substrate) send one ``submit`` frame per batch and then block on the
  socket for ``result`` frames — no polling;
* **workers** (:class:`TcpWorker`, ``repro worker --broker HOST:PORT``)
  register once and block on the socket for ``build`` frames — dispatch
  is push-based, a worker's lease is its connection, and heartbeat
  ``ping`` frames ride the same connection while a shard builds.

Scheduler and adapter
    Every peer's policy is a state machine in :mod:`repro.parallel.sched`
    with no I/O and no clock: the broker's dispatch, leases, stealing,
    retries and parking (:class:`~repro.parallel.sched.Scheduler`), the
    submitter's results, stall deadline and reconnects
    (:class:`~repro.parallel.sched.SubmitterMachine`), and the worker's
    idle exit and reconnects
    (:class:`~repro.parallel.sched.WorkerMachine`).  This module keeps
    only the sockets: :class:`Broker`, :class:`TcpExecutor` and
    :class:`TcpWorker` read ``obs.system_clock().monotonic()`` once per
    event, hand it to their machine with the frame, and do what the
    machine returns.  Every frame goes through one codec
    (:func:`encode_frame`, :func:`frame_length`,
    :func:`decode_payload`), blocking or asyncio alike.

Work stealing
    Queued shards are a global FIFO, so an idle worker "steals" queued
    work simply by being dispatched to next.  The interesting theft is
    the stale lease: when the queue is empty and a peer has held its
    in-flight shard for at least ``steal_after`` seconds, the idle
    worker is handed a *duplicate* build of the shard with the stalest
    lease (ties break on the smaller key).  First completion wins; the
    loser's ``done`` is counted as a duplicate and discarded.  Stealing
    is safe by construction because shard results are content-addressed:
    both builders produce the identical bytes the
    :class:`~repro.parallel.cache.ShardCache` already treats as one
    entry, so double-completion is a cache hit, not a conflict.

Fault tolerance: a worker that disconnects
(or whose heartbeat goes stale) mid-shard costs that shard one attempt
and requeues it, bounded by ``max_attempts`` before the shard is parked
and surfaced to the submitter as a clean
:class:`~repro.errors.AnalysisError`; a submitter that loses its broker
connection reconnects and re-submits its outstanding shards (results
are kept broker-side, so nothing is rebuilt); a worker that finishes a
shard after losing its connection still wrote the result through its
local shard cache, so the re-dispatched build is a skip.

Trust model
    Frames are pickles, so the transport defends in two layers.  Every
    peer (broker, worker, submitter) unpickles through a restricted
    loader that refuses any global outside the shard-spec allowlist —
    a crafted pickle naming ``os.system`` is dropped at the frame
    boundary, never executed.  On top of that, setting
    ``REPRO_BROKER_SECRET`` (identically on every peer) requires an
    HMAC-SHA256 tag over each frame's payload, so hosts without the
    secret cannot inject frames at all.  The broker binds
    ``127.0.0.1`` by default; expose it more widely only on networks
    where every reachable host is trusted, and set the shared secret
    when you do.
"""

from __future__ import annotations

import asyncio
import hmac
import io
import os
import pickle
import socket
import struct
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

from repro import obs
from repro.errors import AnalysisError
from repro.obs.tracer import TRACE_FILE_ENV
from repro.parallel.cache import ShardCache, circuit_digest, shard_key
from repro.parallel.sched import (
    DEFAULT_MAX_ATTEMPTS,
    Actions,
    Scheduler,
    SubmitterMachine,
    WorkerMachine,
)
from repro.parallel.worker import ShardTask, payload_size, run_shard

__all__ = [
    "BROKER_ENV",
    "BROKER_SECRET_ENV",
    "STEAL_DELAY_ENV",
    "BackgroundBroker",
    "Broker",
    "TcpExecutor",
    "TcpWorker",
    "broker_clear",
    "broker_stats",
    "resolve_broker",
    "resolve_wait_timeout",
    "run_broker",
]

#: Environment fallback for ``--broker`` (``HOST:PORT``).
BROKER_ENV = "REPRO_BROKER"

#: Shared-secret frame authentication.  When set — identically on the
#: broker, every worker, and every submitter — each frame's payload is
#: prefixed with an HMAC-SHA256 tag over it, and frames whose tag does
#: not verify are rejected before a single byte is unpickled.  Set it
#: whenever the broker is exposed beyond localhost.
BROKER_SECRET_ENV = "REPRO_BROKER_SECRET"

#: Test hook: a worker whose environment sets this to a float sleeps
#: that many seconds before every shard build (heartbeats still
#: flowing), simulating a straggler so steal paths can be exercised
#: deterministically — the hook behind ``benchmarks/bench_dist.py`` and
#: the CI mixed-speed fleet smoke.
STEAL_DELAY_ENV = "REPRO_STEAL_DELAY"

#: Test hook: a worker process whose environment sets this to ``N``
#: hard-exits (``os._exit``) right after receiving its ``N``-th build —
#: mid-shard, connection dropped — so the crash-recovery path (lost
#: lease, requeue, completion by a surviving worker) can be exercised
#: end to end.
CRASH_ENV = "REPRO_QUEUE_CRASH_AFTER_CLAIM"

#: Bumped whenever the wire format changes; mismatched peers are
#: rejected with a clean error instead of being mis-deserialized
#: (3: a shard task no longer carries fault-free base signatures;
#: 4: its fault slice is a fault array, pickled as columns).
NET_FORMAT_VERSION = 4

#: Frame-size backstop (a shard task is a circuit plus a fault slice —
#: kilobytes, not gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">Q")

#: Per-attempt TCP connect deadline of submitters and workers, and the
#: deadline of every blocking read or write outside a poll (a frame
#: that has begun must finish within it).
CONNECT_TIMEOUT = 10.0

#: Indirection for tests: monkeypatching ``netqueue._sleep`` pins the
#: reconnect/backoff schedule without wall-clock waits.
_sleep = time.sleep

#: Unpickling a hostile or truncated payload can raise nearly anything.
_DECODE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
    TypeError,
)

#: The only globals a frame pickle may reference: the shard-spec types
#: that legitimately ride the wire.  Anything else — ``os.system``,
#: ``builtins.eval``, any repro callable — is refused before it is
#: resolved, so a crafted pickle cannot execute code on a peer.
#: Primitives (dicts, lists, tuples, strings, numbers) have dedicated
#: opcodes and need no entry here.
_SAFE_FRAME_GLOBALS = frozenset(
    {
        ("repro.parallel.worker", "ShardTask"),
        ("repro.circuit.netlist", "Circuit"),
        ("repro.circuit.netlist", "Line"),
        ("repro.circuit.netlist", "LineKind"),
        ("repro.circuit.gate", "GateType"),
        ("repro.faultsim.backends", "TableBackend"),
        ("repro.faultsim.backends", "SerialBackend"),
        ("repro.faults.stuck_at", "StuckAtFaults"),
        ("repro.faults.bridging", "BridgingFaults"),
    }
)

#: HMAC-SHA256 digest length (the frame-payload prefix when a shared
#: secret is configured).
_MAC_SIZE = 32


class _FrameUnpickler(pickle.Unpickler):
    """``pickle.Unpickler`` restricted to the frame allowlist."""

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) not in _SAFE_FRAME_GLOBALS:
            raise pickle.UnpicklingError(
                f"frame references forbidden global {module}.{name}"
            )
        return super().find_class(module, name)


def _loads(payload: bytes) -> Any:
    return _FrameUnpickler(io.BytesIO(payload)).load()


def _secret() -> bytes | None:
    raw = os.environ.get(BROKER_SECRET_ENV, "")
    return raw.encode("utf-8") if raw else None


def _unseal(sealed: bytes) -> bytes:
    secret = _secret()
    if secret is None:
        return sealed
    if len(sealed) < _MAC_SIZE:
        raise AnalysisError(
            "broker frame is shorter than its HMAC tag — is the peer "
            f"running without {BROKER_SECRET_ENV}?"
        )
    tag, payload = sealed[:_MAC_SIZE], sealed[_MAC_SIZE:]
    if not hmac.compare_digest(
        hmac.new(secret, payload, "sha256").digest(), tag
    ):
        raise AnalysisError(
            "broker frame failed HMAC verification — do all peers "
            f"share the same {BROKER_SECRET_ENV}?"
        )
    return payload


# ----------------------------------------------------------------------
# The frame codec: an 8-byte big-endian length prefix + one pickled dict
# (HMAC-tagged when a shared secret is configured).  Every bad frame is
# an AnalysisError; a reader that gets one drops the peer.
# ----------------------------------------------------------------------
def encode_frame(message: dict[str, Any]) -> bytes:
    """Header plus sealed pickle: the bytes of one frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    secret = _secret()
    if secret is not None:
        payload = hmac.new(secret, payload, "sha256").digest() + payload
    return _HEADER.pack(len(payload)) + payload


def frame_length(header: bytes) -> int:
    """The payload length a frame header announces, if acceptable."""
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise AnalysisError(
            f"oversized broker frame ({length} bytes); not a repro broker?"
        )
    return int(length)


def decode_payload(payload: bytes) -> dict[str, Any]:
    """Verify, unpickle (allowlisted globals only) and type-check."""
    unsealed = _unseal(payload)
    try:
        message = _loads(unsealed)
    except _DECODE_ERRORS as exc:
        raise AnalysisError(f"undecodable broker frame: {exc}") from exc
    if not isinstance(message, dict):
        raise AnalysisError(
            f"broker frame must be a dict, got {type(message).__name__}"
        )
    return message


def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    sock.sendall(encode_frame(message))


def recv_frame(sock: socket.socket) -> dict[str, Any]:
    """One frame off a blocking socket.

    The socket's timeout bounds only the wait for the frame's first
    byte, so a :class:`TimeoutError` means nothing was consumed and the
    caller may poll again.  A frame that has begun is read to its end
    under ``CONNECT_TIMEOUT`` (which the socket keeps afterwards); a
    peer that stalls mid-frame is a :class:`ConnectionError`, because
    the stream cannot be resynchronised.
    """
    first = sock.recv(_HEADER.size)
    if not first:
        raise ConnectionError("peer closed the connection")
    sock.settimeout(CONNECT_TIMEOUT)
    try:
        header = first + _recv_exactly(sock, _HEADER.size - len(first))
        payload = _recv_exactly(sock, frame_length(header))
    except TimeoutError as exc:
        raise ConnectionError(
            f"peer stalled mid-frame for {CONNECT_TIMEOUT:.0f}s"
        ) from exc
    return decode_payload(payload)


def _recv_exactly(sock: socket.socket, size: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < size:
        chunk = sock.recv(size - len(chunks))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.extend(chunk)
    return bytes(chunks)


async def _read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """One frame off an asyncio stream; None on EOF or a bad frame."""
    try:
        header = await reader.readexactly(_HEADER.size)
        return decode_payload(await reader.readexactly(frame_length(header)))
    except (asyncio.IncompleteReadError, ConnectionError, AnalysisError):
        return None


def _write_frame(
    writer: asyncio.StreamWriter, message: dict[str, Any]
) -> None:
    if not writer.is_closing():
        writer.write(encode_frame(message))


# ----------------------------------------------------------------------
# Configuration resolution
# ----------------------------------------------------------------------
def resolve_broker(
    broker: str | None = None,
    *,
    what: str = "the tcp executor",
    flag: str = "--broker",
) -> tuple[str, int]:
    """``HOST:PORT`` from the explicit value, else ``REPRO_BROKER``."""
    resolved = broker or os.environ.get(BROKER_ENV)
    if not resolved:
        raise AnalysisError(
            f"{what} needs a broker address: pass {flag} HOST:PORT "
            f"(or set {BROKER_ENV})"
        )
    host, sep, port_text = resolved.rpartition(":")
    if not sep or not host or not port_text.isdigit():
        raise AnalysisError(
            f"broker address must be HOST:PORT, got {resolved!r}"
        )
    return host, int(port_text)


def resolve_wait_timeout(wait_timeout: float | None = None) -> float:
    """The distributed-submit stall deadline, in seconds.

    An explicit value wins; else ``REPRO_QUEUE_TIMEOUT``; else 600.
    It counts "seconds without *any* shard completing", reset on every
    completion.
    """
    if wait_timeout is not None:
        return wait_timeout
    raw = os.environ.get("REPRO_QUEUE_TIMEOUT")
    if raw:
        try:
            value = float(raw)
        except ValueError:
            raise AnalysisError(
                f"REPRO_QUEUE_TIMEOUT must be a positive number, "
                f"got {raw!r}"
            ) from None
        if value <= 0:
            raise AnalysisError(
                f"REPRO_QUEUE_TIMEOUT must be a positive number, "
                f"got {raw!r}"
            )
        return value
    return 600.0


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _connect(address: tuple[str, int]) -> socket.socket:
    return socket.create_connection(address, timeout=CONNECT_TIMEOUT)


def _poll(sock: socket.socket, timeout: float) -> dict[str, Any] | None:
    """The next frame, or None when none begins within ``timeout``.

    A bad frame (wrong service, missing shared secret) ends the
    connection like a lost one: :class:`ConnectionError`.
    """
    sock.settimeout(timeout)
    try:
        return recv_frame(sock)
    except TimeoutError:
        return None
    except AnalysisError as exc:
        raise ConnectionError(str(exc)) from exc


# ----------------------------------------------------------------------
# The broker: an asyncio adapter around the scheduler
# ----------------------------------------------------------------------
class Broker:
    """The asyncio face of a :class:`~repro.parallel.sched.Scheduler`.

    The broker owns the listening socket and the connections, and
    nothing else: it reads each frame, hands it to the scheduler with
    ``obs.system_clock().monotonic()``, and writes back the frames the
    scheduler returns (closing the peers it names).  A timer calls
    :meth:`Scheduler.tick` to scavenge stale heartbeats and mature
    steals.  All state lives on one event loop — no locks.
    ``steal``, ``steal_after`` and ``lease_timeout`` configure the
    scheduler.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        steal: bool = True,
        steal_after: float = 0.5,
        lease_timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.scheduler: Scheduler[asyncio.StreamWriter] = Scheduler(
            steal=steal, steal_after=steal_after, lease_timeout=lease_timeout
        )
        self._server: asyncio.Server | None = None
        self._ticker: asyncio.Task[None] | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> asyncio.Server:
        """Bind, start the scavenger tick, return the listening server."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = int(self._server.sockets[0].getsockname()[1])
        self._ticker = asyncio.get_running_loop().create_task(
            self._tick_loop()
        )
        return self._server

    async def close(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            self._ticker = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one peer (worker or submitter) until it disconnects."""
        clock = obs.system_clock()
        sched = self.scheduler
        try:
            while True:
                message = await _read_frame(reader)
                if message is None:
                    break
                op = message.get("op")
                now = clock.monotonic()
                if op in ("register", "submit") and (
                    message.get("version") != NET_FORMAT_VERSION
                ):
                    _write_frame(writer, {"op": "rejected", "error": (
                        f"wire format {message.get('version')!r} != "
                        f"{NET_FORMAT_VERSION} (mismatched repro versions?)"
                    )})
                elif op == "register":
                    self._apply(sched.register(writer, message, now))
                elif op == "submit":
                    self._apply(sched.submit(writer, message, now))
                elif op == "done":
                    self._apply(sched.done(writer, message, now))
                elif op == "error":
                    self._apply(sched.error(writer, message, now))
                elif op == "ping":
                    self._apply(sched.beat(writer, now))
                elif op == "stats":
                    _write_frame(
                        writer, {"op": "stats", "stats": self.stats_doc()}
                    )
                elif op == "clear":
                    removed, actions = sched.clear()
                    self._apply(actions)
                    _write_frame(writer, {"op": "cleared", "removed": removed})
                else:
                    _write_frame(
                        writer,
                        {"op": "rejected", "error": f"unknown op {op!r}"},
                    )
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            self._apply(sched.disconnect(writer, clock.monotonic()))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # Loop shutdown cancels handler tasks mid-close; either
                # way the connection is gone.
                pass

    @staticmethod
    def _apply(actions: Actions[asyncio.StreamWriter]) -> None:
        for writer, frame in actions.sends:
            _write_frame(writer, frame)
        for writer in actions.closes:
            writer.close()

    async def _tick_loop(self) -> None:
        """Scavenge stale heartbeats and mature steal candidates."""
        sched = self.scheduler
        interval = max(
            0.05, min(sched.steal_after / 2.0, sched.lease_timeout / 4.0)
        )
        while True:
            await asyncio.sleep(interval)
            self._apply(sched.tick(obs.system_clock().monotonic()))

    # -- introspection (`repro queue ... --broker`) --------------------
    def stats_doc(self) -> dict[str, Any]:
        return {
            "address": f"{self.host}:{self.port}",
            **self.scheduler.stats(obs.system_clock().monotonic()),
        }


# ----------------------------------------------------------------------
# Foreground / background broker entry points
# ----------------------------------------------------------------------
def run_broker(broker: Broker) -> int:
    """Run ``broker`` in the foreground until interrupted.

    Prints a ready line (with the actually-bound port, so ``--port 0``
    is usable) before serving, so wrappers can wait for it.
    """

    async def main() -> None:
        server = await broker.start()
        steal = "on" if broker.scheduler.steal else "off"
        sys.stdout.write(
            f"repro broker listening on {broker.host}:{broker.port} "
            f"(steal={steal})\n"
        )
        sys.stdout.flush()
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        sys.stdout.write("repro broker: shutting down\n")
    return 0


class BackgroundBroker:
    """A broker on a daemon thread — for tests, benchmarks, and serve.

    ``with BackgroundBroker() as broker:`` yields a listening broker on
    an OS-assigned port; ``broker.address`` is its ``HOST:PORT``.  Pass
    a configured :class:`Broker` to change its address or policy, e.g.
    ``BackgroundBroker(Broker(steal=False, lease_timeout=0.2))``.  The
    event loop lives entirely on the background thread; the foreground
    talks to it over real sockets like any other peer.
    """

    def __init__(self, broker: Broker | None = None) -> None:
        self.broker = broker if broker is not None else Broker()
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._error: BaseException | None = None

    @property
    def host(self) -> str:
        return self.broker.host

    @property
    def port(self) -> int:
        return self.broker.port

    @property
    def address(self) -> str:
        return f"{self.broker.host}:{self.broker.port}"

    def start(self) -> "BackgroundBroker":
        self._thread = threading.Thread(
            target=self._run, name="repro-broker", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise AnalysisError("broker failed to start in 30s")
        if self._error is not None:
            raise AnalysisError(
                f"broker failed to start: {self._error}"
            )
        return self

    def stop(self) -> None:
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # loop already closed: stopping twice is a no-op
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def stats(self) -> dict[str, Any]:
        """A broker-state snapshot, taken on the broker's own loop."""
        loop = self._loop
        if loop is None or not loop.is_running():
            raise AnalysisError("broker is not running")

        async def snapshot() -> dict[str, Any]:
            return self.broker.stats_doc()

        return asyncio.run_coroutine_threadsafe(snapshot(), loop).result(
            timeout=10.0
        )

    def __enter__(self) -> "BackgroundBroker":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced to start() on the foreground thread
            self._error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await self.broker.start()
        self._ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            await self.broker.close()


# ----------------------------------------------------------------------
# Client helpers (`repro queue {info,stats,clear} --broker`)
# ----------------------------------------------------------------------
def _broker_roundtrip(
    broker: str | None, request: dict[str, Any], *, what: str
) -> dict[str, Any]:
    address = resolve_broker(broker, what=what, flag="--broker")
    label = f"{address[0]}:{address[1]}"
    try:
        sock = _connect(address)
    except OSError as exc:
        raise AnalysisError(
            f"cannot reach broker at {label}: {exc} — is "
            f"`repro broker` running there?"
        ) from exc
    try:
        send_frame(
            sock, {**request, "version": NET_FORMAT_VERSION}
        )
        return recv_frame(sock)
    except (ConnectionError, OSError) as exc:
        raise AnalysisError(
            f"broker at {label} dropped the connection: {exc}"
        ) from exc
    finally:
        sock.close()


def broker_stats(broker: str | None = None) -> dict[str, Any]:
    """The live state document of a running broker."""
    reply = _broker_roundtrip(
        broker, {"op": "stats"}, what="repro queue"
    )
    if reply.get("op") != "stats" or not isinstance(
        reply.get("stats"), dict
    ):
        raise AnalysisError(f"unexpected broker reply: {reply.get('op')!r}")
    stats = reply["stats"]
    assert isinstance(stats, dict)
    return stats


def broker_clear(broker: str | None = None) -> int:
    """Drop a running broker's queue state; returns entries removed."""
    reply = _broker_roundtrip(
        broker, {"op": "clear"}, what="repro queue"
    )
    if reply.get("op") != "cleared":
        raise AnalysisError(f"unexpected broker reply: {reply.get('op')!r}")
    return int(reply.get("removed") or 0)


# ----------------------------------------------------------------------
# The submitter: ShardExecutor over TCP
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TcpExecutor:
    """Distributed execution through a TCP broker (``--executor tcp``).

    Parameters
    ----------
    broker:
        ``HOST:PORT`` of the broker (default: ``REPRO_BROKER``,
        resolved at submit time so one executor value works across
        hosts).
    max_attempts:
        Build attempts (raised builds + lost workers) before a shard
        is parked broker-side and the run fails with an error naming
        it.
    wait_timeout:
        Give up after this many seconds *without any shard completing*
        (a stall deadline, reset on every completion;
        ``REPRO_QUEUE_TIMEOUT`` overrides).  Lost connections are
        retried with bounded exponential backoff inside this budget.
    """

    broker: str | None = None
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    wait_timeout: float | None = None
    name: ClassVar[str] = "tcp"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise AnalysisError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.wait_timeout is not None and self.wait_timeout <= 0:
            raise AnalysisError(
                f"wait_timeout must be > 0, got {self.wait_timeout}"
            )

    def resolved_address(self) -> tuple[str, int]:
        return resolve_broker(self.broker)

    def describe(self) -> str:
        return "tcp"

    # -- the submit/block loop -----------------------------------------
    def submit(self, tasks: list[ShardTask]) -> list[tuple[int, bytes]]:
        address = self.resolved_address()
        label = f"{address[0]}:{address[1]}"
        trace_file = (
            os.environ.get(TRACE_FILE_ENV)
            if obs.tracing_enabled()
            else None
        )
        trace_id = (
            obs.current_tracer().trace_id
            if obs.tracing_enabled()
            else None
        )
        specs: list[dict[str, Any]] = []
        # One structural hash per circuit per submit (a build's tasks
        # share one circuit object).
        digests: dict[int, str] = {}
        for task in tasks:
            digest = digests.get(id(task.circuit))
            if digest is None:
                digest = digests[id(task.circuit)] = circuit_digest(
                    task.circuit
                )
            key = shard_key(digest, task.backend, task.kind, task.faults)
            specs.append(
                {
                    "key": key,
                    "task": task,
                    "shard_index": task.shard_index,
                    "max_attempts": self.max_attempts,
                    "trace_file": trace_file,
                    "trace_id": trace_id,
                    "enqueued_wall": obs.system_clock().wall(),
                }
            )
        obs.metrics().counter(
            "repro_tcp_submitted_total",
            help="Shard tasks submitted to a TCP broker",
        ).inc(len(specs))
        with obs.span("tcp_submit", broker=label, shards=len(tasks)):
            return self._collect(address, SubmitterMachine(
                specs,
                stall_limit=resolve_wait_timeout(self.wait_timeout),
                label=label,
                now=obs.system_clock().monotonic(),
            ))

    @staticmethod
    def _collect(
        address: tuple[str, int], machine: SubmitterMachine
    ) -> list[tuple[int, bytes]]:
        """Connect, (re)submit and collect until ``machine`` finishes."""
        clock = obs.system_clock()
        while not machine.finished:
            try:
                with _connect(address) as sock:
                    send_frame(sock, {
                        "op": "submit",
                        "version": NET_FORMAT_VERSION,
                        "shards": machine.pending(),
                    })
                    while not machine.finished:
                        message = _poll(
                            sock, machine.poll_timeout(clock.monotonic())
                        )
                        if message is None:
                            machine.check(clock.monotonic())
                        else:
                            machine.receive(message, clock.monotonic())
            except OSError as exc:
                _sleep(machine.lost(clock.monotonic(), str(exc)))
        return machine.outcomes


# ----------------------------------------------------------------------
# The worker: push-based drain loop over TCP
# ----------------------------------------------------------------------
@dataclass
class TcpWorker:
    """The drain loop behind ``repro worker --broker HOST:PORT``.

    Registers once, then blocks on the socket for pushed ``build``
    frames — no polling.  While a shard builds, a background thread
    heartbeats ``ping`` frames over the same connection; a worker
    killed mid-shard simply drops the connection, which the broker
    converts into a requeue.  Results are written through the worker's
    local content-addressed shard cache before being reported, so a
    completion that never reaches the broker is replayed as a cache
    hit on re-dispatch.  ``build_delay`` (or the ``REPRO_STEAL_DELAY``
    environment hook) sleeps before every build — the deterministic
    straggler knob behind the steal benchmark and tests.
    """

    broker: str | None = None
    worker_id: str = field(default_factory=default_worker_id)
    lease_timeout: float = 30.0
    build_delay: float = 0.0
    cache_dir: str | Path | None = None
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.lease_timeout <= 0:
            raise AnalysisError(
                f"lease_timeout must be > 0, got {self.lease_timeout}"
            )
        if self.build_delay == 0.0:
            raw = os.environ.get(STEAL_DELAY_ENV, "")
            if raw:
                try:
                    self.build_delay = float(raw)
                except ValueError:
                    raise AnalysisError(
                        f"{STEAL_DELAY_ENV} must be a number of seconds, "
                        f"got {raw!r}"
                    ) from None
        if self.build_delay < 0:
            raise AnalysisError(
                f"build_delay must be >= 0, got {self.build_delay}"
            )
        raw_crash = os.environ.get(CRASH_ENV, "")
        self._crash_after = int(raw_crash) if raw_crash else 0
        self._cache = ShardCache(self.cache_dir)
        self._stop = threading.Event()
        self._send_lock = threading.Lock()
        self._sock: socket.socket | None = None

    def stop(self) -> None:
        """Thread-safe: interrupt :meth:`serve` (for tests/benchmarks)."""
        self._stop.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def serve(
        self,
        max_tasks: int | None = None,
        idle_exit: float | None = None,
    ) -> dict[str, int]:
        """Serve builds; returns ``{"built","skipped","failed","stolen"}``.

        ``max_tasks`` bounds the number of shards built; ``idle_exit``
        stops the loop after that many seconds without a build in
        progress (None: serve forever).  Lost broker connections
        reconnect with bounded exponential backoff.
        """
        address = resolve_broker(
            self.broker, what="repro worker", flag="--broker"
        )
        clock = obs.system_clock()
        machine = WorkerMachine(
            idle_exit=idle_exit, max_tasks=max_tasks, now=clock.monotonic()
        )
        while not self._stop.is_set():
            try:
                with _connect(address) as sock:
                    self._sock = sock
                    send_frame(sock, {
                        "op": "register",
                        "version": NET_FORMAT_VERSION,
                        "worker": self.worker_id,
                    })
                    machine.registered()
                    self._drain(sock, machine)
                    break
            except OSError:
                pass  # the machine knows whether a build was in flight
            finally:
                self._sock = None
            delay = machine.lost(clock.monotonic())
            if delay is None or self._stop.is_set():
                break
            _sleep(delay)
        return machine.stats

    def _drain(self, sock: socket.socket, machine: WorkerMachine) -> None:
        """Build what one connection pushes until the worker is done for
        good (stop, idle exit or ``max_tasks``); raises
        :class:`OSError` when the connection is lost."""
        clock = obs.system_clock()
        while not self._stop.is_set() and not machine.finished:
            message = _poll(sock, machine.poll_timeout(clock.monotonic()))
            if message is None:
                if machine.idle_expired(clock.monotonic()):
                    return
                continue
            op = message.get("op")
            if op == "rejected":
                raise AnalysisError(
                    f"broker rejected this worker: {message.get('error')}"
                )
            if op != "build":
                continue
            claims = machine.claim(message, clock.monotonic())
            if self._crash_after and claims >= self._crash_after:
                os._exit(42)  # test hook: die mid-shard, lease held
            key = str(message.get("key") or "")
            self._adopt_trace(message)
            self._report_queue_wait(message)
            task = message.get("task")
            cached = self._cache.get(key) if self.use_cache else None
            if cached is not None and isinstance(task, ShardTask):
                size = task.backend.universe_for(task.circuit).size
                if len(cached) != payload_size(len(task.faults), size):
                    cached = None  # a miss; the rebuild's put overwrites it
            if cached is not None:
                # A duplicate of an already-built shard (steal race or
                # re-dispatch): the content-addressed result stands.
                machine.settle("skipped", clock.monotonic())
                self._send(sock, {
                    "op": "done", "key": key, "words": cached,
                })
                continue
            try:
                words = self._build(sock, message)
            except OSError:
                raise  # the connection died; reconnect, don't report
            except Exception as exc:  # noqa: BLE001 - reported to the broker
                machine.settle("failed", clock.monotonic())
                self._send(sock, {
                    "op": "error",
                    "key": key,
                    "error": f"{type(exc).__name__}: {exc}",
                })
                continue
            if self.use_cache:
                self._cache.put(key, words)
            machine.settle("built", clock.monotonic())
            obs.metrics().counter(
                "repro_tcp_completed_total",
                help="Shards built to completion by TCP workers",
            ).inc()
            self._send(sock, {
                "op": "done", "key": key, "words": words,
            })

    def _send(self, sock: socket.socket, message: dict[str, Any]) -> None:
        """Serialize frame writes (the heartbeat thread shares the
        connection with the drain loop)."""
        with self._send_lock:
            send_frame(sock, message)

    def _adopt_trace(self, message: dict[str, Any]) -> None:
        """Join the submitter's trace when this process has none.

        First sighting wins: the build frame carries the submitter's trace file and
        id, and the worker id namespaces worker-local root spans.
        """
        trace_file = message.get("trace_file")
        if not trace_file or obs.tracing_enabled():
            return
        trace_id = message.get("trace_id")
        obs.activate(
            obs.Tracer(
                obs.JsonlTraceWriter(str(trace_file)),
                trace_id=str(trace_id) if trace_id else None,
                root_prefix=f"{self.worker_id}-",
            )
        )

    def _report_queue_wait(self, message: dict[str, Any]) -> None:
        enqueued = message.get("enqueued_wall")
        if enqueued is None:
            return
        wait = max(0.0, obs.system_clock().wall() - float(enqueued))
        obs.metrics().histogram(
            "repro_queue_wait_seconds",
            help="Enqueue-to-claim latency of queue shards",
        ).observe(wait)

    def _build(
        self, sock: socket.socket, message: dict[str, Any]
    ) -> bytes:
        task = message.get("task")
        if not isinstance(task, ShardTask):
            raise AnalysisError(
                "build frame carried no ShardTask payload"
            )
        stop = threading.Event()
        # Four beats per lease, at most one a second.
        interval = max(0.01, min(1.0, self.lease_timeout / 4.0))

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    self._send(sock, {"op": "ping"})
                except OSError:
                    return  # connection died; the drain loop handles it

        thread = threading.Thread(target=beat, daemon=True)
        thread.start()
        try:
            if self.build_delay > 0:
                _sleep(self.build_delay)
            _index, words = run_shard(task)
            return words
        finally:
            stop.set()
            thread.join()
