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

Work stealing
    Queued shards are a global FIFO, so an idle worker "steals" queued
    work simply by being dispatched to next.  The interesting theft is
    the stale lease: when the queue is empty and a peer has held its
    in-flight shard for at least ``steal_after`` seconds, the idle
    worker is handed a *duplicate* build of the most-loaded peer's
    shard (the peer whose lease set holds the stalest lease; ties break
    on the smaller key).  First completion wins; the loser's ``done``
    is counted as a duplicate and discarded.  Stealing is safe by
    construction because shard results are content-addressed: both
    builders produce the identical bytes the
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

Determinism: dispatch order is submission FIFO, idle workers are served
in sorted id order, and steal victims are chosen by (stalest lease,
smallest key) — the whole broker is single-threaded asyncio state with
no hash-order iteration, so a re-run distributes identically.

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
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import obs
from repro.errors import AnalysisError
from repro.obs.tracer import TRACE_FILE_ENV
from repro.parallel.backoff import Backoff
from repro.parallel.cache import ShardCache, circuit_digest, shard_key
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

#: Default number of build attempts a shard gets before it is parked
#: (covers both raised builds and lost workers).
DEFAULT_MAX_ATTEMPTS = 3

#: Test hook: a worker process whose environment sets this to ``N``
#: hard-exits (``os._exit``) right after receiving its ``N``-th build —
#: mid-shard, connection dropped — so the crash-recovery path (lost
#: lease, requeue, completion by a surviving worker) can be exercised
#: end to end.
CRASH_ENV = "REPRO_QUEUE_CRASH_AFTER_CLAIM"

#: Bumped whenever the wire format changes; mismatched peers are
#: rejected with a clean error instead of being mis-deserialized.
NET_FORMAT_VERSION = 2

#: Frame-size backstop (a shard task is a circuit plus a fault slice —
#: kilobytes, not gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">Q")

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
        ("repro.faults.stuck_at", "StuckAtFault"),
        ("repro.faults.bridging", "BridgingFault"),
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


def _seal(payload: bytes) -> bytes:
    secret = _secret()
    if secret is None:
        return payload
    return hmac.new(secret, payload, "sha256").digest() + payload


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
# Wire framing: 8-byte big-endian length prefix + one pickled dict
# (HMAC-tagged when a shared secret is configured).
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, message: dict[str, Any]) -> None:
    payload = _seal(
        pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    )
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> dict[str, Any]:
    header = _recv_exactly(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise AnalysisError(
            f"oversized broker frame ({length} bytes); not a repro broker?"
        )
    payload = _unseal(_recv_exactly(sock, length))
    try:
        message = _loads(payload)
    except _DECODE_ERRORS as exc:
        raise AnalysisError(f"undecodable broker frame: {exc}") from exc
    if not isinstance(message, dict):
        raise AnalysisError(
            f"broker frame must be a dict, got {type(message).__name__}"
        )
    return message


def _recv_exactly(sock: socket.socket, size: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < size:
        chunk = sock.recv(size - len(chunks))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.extend(chunk)
    return bytes(chunks)


async def _read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """One frame off an asyncio stream; None on EOF/garbage (drop peer)."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        return None
    try:
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    try:
        message = _loads(_unseal(payload))
    except (AnalysisError,) + _DECODE_ERRORS:
        return None
    return message if isinstance(message, dict) else None


def _write_frame(
    writer: asyncio.StreamWriter, message: dict[str, Any]
) -> None:
    if writer.is_closing():
        return
    payload = _seal(
        pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    )
    writer.write(_HEADER.pack(len(payload)) + payload)


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


def _short(text: str, limit: int = 160) -> str:
    """Event-attribute-sized failure text."""
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _connect(address: tuple[str, int], timeout: float) -> socket.socket:
    return socket.create_connection(address, timeout=timeout)


# ----------------------------------------------------------------------
# The broker
# ----------------------------------------------------------------------
@dataclass
class _WorkerConn:
    """Broker-side state of one registered worker connection."""

    worker_id: str
    writer: asyncio.StreamWriter
    current: str | None = None
    stolen: bool = False
    assigned_at: float = 0.0
    last_beat: float = 0.0


class Broker:
    """In-memory task broker: FIFO dispatch, leases, work stealing.

    All state lives on one event loop — no locks, no hash-order
    iteration.  ``steal_after`` is the lease age beyond which an idle
    worker duplicates a peer's in-flight shard; ``lease_timeout`` is
    the heartbeat age beyond which a busy worker is presumed dead and
    disconnected (costing its shard one attempt); ``max_builders``
    bounds how many workers may build the same shard concurrently.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        steal: bool = True,
        steal_after: float = 0.5,
        lease_timeout: float = 30.0,
        max_builders: int = 3,
        result_cap: int = 4096,
    ) -> None:
        if steal_after <= 0:
            raise AnalysisError(
                f"steal_after must be > 0, got {steal_after}"
            )
        if lease_timeout <= 0:
            raise AnalysisError(
                f"lease_timeout must be > 0, got {lease_timeout}"
            )
        if max_builders < 1:
            raise AnalysisError(
                f"max_builders must be >= 1, got {max_builders}"
            )
        if result_cap < 1:
            raise AnalysisError(
                f"result_cap must be >= 1, got {result_cap}"
            )
        self.host = host
        self.port = port
        self.steal = steal
        self.steal_after = steal_after
        self.lease_timeout = lease_timeout
        self.max_builders = max_builders
        self.result_cap = result_cap
        #: FIFO of not-yet-dispatched keys (values unused).
        self._pending: OrderedDict[str, None] = OrderedDict()
        #: Every unresolved key -> its task spec (pending or building).
        self._specs: dict[str, dict[str, Any]] = {}
        #: key -> {worker_id: assigned_at} for in-flight builds.
        self._builders: dict[str, dict[str, float]] = {}
        #: key -> submitter writers waiting for its result.
        self._waiters: dict[str, list[asyncio.StreamWriter]] = {}
        #: Finished shard payloads, bounded LRU.
        self._results: OrderedDict[str, bytes] = OrderedDict()
        #: Terminally failed keys -> error text.
        self._failures: dict[str, str] = {}
        self._workers: dict[str, _WorkerConn] = {}
        self.counters: dict[str, int] = {
            "submitted": 0,
            "dispatched": 0,
            "completed": 0,
            "duplicates": 0,
            "steals": 0,
            "steal_completions": 0,
            "requeues": 0,
            "parked": 0,
            "workers_registered": 0,
        }
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
        worker_id: str | None = None
        try:
            while True:
                message = await _read_frame(reader)
                if message is None:
                    break
                op = message.get("op")
                if op == "register":
                    worker_id = self._register(message, writer)
                elif op == "ping":
                    if worker_id is not None:
                        conn = self._workers.get(worker_id)
                        if conn is not None and conn.writer is writer:
                            conn.last_beat = time.monotonic()
                elif op == "done":
                    self._done(worker_id, message)
                elif op == "error":
                    self._build_error(worker_id, message)
                elif op == "submit":
                    self._submit(message, writer)
                elif op == "stats":
                    _write_frame(
                        writer, {"op": "stats", "stats": self.stats_doc()}
                    )
                elif op == "clear":
                    _write_frame(
                        writer, {"op": "cleared", "removed": self.clear()}
                    )
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
            if worker_id is not None:
                self._drop_worker(
                    worker_id, "connection lost", writer=writer
                )
            self._drop_waiter(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # Loop shutdown cancels handler tasks mid-close; either
                # way the connection is gone.
                pass

    # -- worker protocol -----------------------------------------------
    def _register(
        self, message: dict[str, Any], writer: asyncio.StreamWriter
    ) -> str | None:
        if message.get("version") != NET_FORMAT_VERSION:
            _write_frame(
                writer,
                {
                    "op": "rejected",
                    "error": (
                        f"wire format {message.get('version')!r} != "
                        f"{NET_FORMAT_VERSION} (mismatched repro versions?)"
                    ),
                },
            )
            return None
        worker_id = str(message.get("worker") or "")
        if not worker_id:
            _write_frame(
                writer,
                {"op": "rejected", "error": "register needs a worker id"},
            )
            return None
        # A reconnect under the same id supersedes the dead connection.
        if worker_id in self._workers:
            self._drop_worker(worker_id, "superseded by a reconnect")
        self._workers[worker_id] = _WorkerConn(
            worker_id=worker_id,
            writer=writer,
            last_beat=time.monotonic(),
        )
        self.counters["workers_registered"] += 1
        obs.event("broker_worker_registered", worker=worker_id)
        self._pump()
        return worker_id

    def _done(
        self, worker_id: str | None, message: dict[str, Any]
    ) -> None:
        key = str(message.get("key") or "")
        conn = self._workers.get(worker_id) if worker_id else None
        stolen = False
        if conn is not None and conn.current == key:
            stolen = conn.stolen
            conn.current = None
            conn.stolen = False
        words = message.get("words")
        if key in self._specs and isinstance(words, bytes):
            self._resolve(key, words, worker_id or "?", stolen)
        else:
            # A late duplicate (the shard was resolved by a faster
            # builder, or cleared) or a malformed report: the first
            # good result stands, but the reporter must still release
            # its builder slot, or a ghost lease consumes one of the
            # key's ``max_builders`` forever.
            self.counters["duplicates"] += 1
            obs.metrics().counter(
                "repro_broker_duplicates_total",
                help="Late duplicate completions discarded by the broker",
            ).inc()
            if worker_id is not None:
                builders = self._builders.get(key)
                if builders is not None:
                    builders.pop(worker_id, None)
                    if not builders:
                        del self._builders[key]
                        if key in self._specs:
                            # A malformed report was the only build in
                            # flight: charge the attempt and requeue.
                            self._attempt_failed(
                                key,
                                "malformed done frame (words not bytes)",
                            )
        self._pump()

    def _build_error(
        self, worker_id: str | None, message: dict[str, Any]
    ) -> None:
        key = str(message.get("key") or "")
        error = str(message.get("error") or "unknown worker error")
        conn = self._workers.get(worker_id) if worker_id else None
        if conn is not None and conn.current == key:
            conn.current = None
            conn.stolen = False
        if key in self._specs and worker_id is not None:
            builders = self._builders.get(key, {})
            builders.pop(worker_id, None)
            if not builders:
                self._builders.pop(key, None)
                self._attempt_failed(key, error)
        self._pump()

    def _drop_worker(
        self,
        worker_id: str,
        reason: str,
        *,
        writer: asyncio.StreamWriter | None = None,
    ) -> None:
        conn = self._workers.get(worker_id)
        if conn is None:
            return
        if writer is not None and conn.writer is not writer:
            # The id was re-registered by a newer connection (or the
            # scavenger already dropped this one and the worker came
            # back): the live registration is not ours to deregister.
            return
        del self._workers[worker_id]
        key = conn.current
        if key is not None and key in self._specs:
            builders = self._builders.get(key, {})
            builders.pop(worker_id, None)
            if not builders:
                self._builders.pop(key, None)
                self._attempt_failed(
                    key, f"worker {worker_id} lost mid-shard ({reason})"
                )
        obs.event(
            "broker_worker_lost", worker=worker_id, reason=_short(reason)
        )
        self._pump()

    # -- submitter protocol --------------------------------------------
    def _submit(
        self, message: dict[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        if message.get("version") != NET_FORMAT_VERSION:
            _write_frame(
                writer,
                {
                    "op": "rejected",
                    "error": (
                        f"wire format {message.get('version')!r} != "
                        f"{NET_FORMAT_VERSION} (mismatched repro versions?)"
                    ),
                },
            )
            return
        shards = message.get("shards")
        if not isinstance(shards, list):
            _write_frame(
                writer,
                {"op": "rejected", "error": "submit needs a shard list"},
            )
            return
        for spec in shards:
            if not isinstance(spec, dict) or not isinstance(
                spec.get("task"), ShardTask
            ):
                _write_frame(
                    writer,
                    {
                        "op": "rejected",
                        "error": "submit shards must carry ShardTask specs",
                    },
                )
                return
            key = str(spec.get("key") or "")
            cached = self._results.get(key)
            if cached is not None:
                self._results.move_to_end(key)
                _write_frame(
                    writer,
                    {
                        "op": "result",
                        "key": key,
                        "words": cached,
                        "worker": None,
                        "stolen": False,
                    },
                )
                continue
            # A fresh submission clears a parked failure and gets a
            # fresh retry budget.
            self._failures.pop(key, None)
            if key not in self._specs:
                self._specs[key] = {
                    "key": key,
                    "task": spec["task"],
                    "shard_index": spec.get("shard_index"),
                    "attempts": 0,
                    "max_attempts": int(
                        spec.get("max_attempts") or DEFAULT_MAX_ATTEMPTS
                    ),
                    "trace_file": spec.get("trace_file"),
                    "trace_id": spec.get("trace_id"),
                    "enqueued_wall": spec.get("enqueued_wall"),
                }
                self._pending[key] = None
                self.counters["submitted"] += 1
                obs.metrics().counter(
                    "repro_broker_submitted_total",
                    help="Shard tasks accepted by the broker",
                ).inc()
            waiters = self._waiters.setdefault(key, [])
            if writer not in waiters:
                waiters.append(writer)
        self._pump()

    def _drop_waiter(self, writer: asyncio.StreamWriter) -> None:
        """A submitter went away; its shards stay queued (results are
        kept, so a reconnect-and-resubmit finds them instantly)."""
        for key in sorted(self._waiters):
            waiters = [w for w in self._waiters[key] if w is not writer]
            if waiters:
                self._waiters[key] = waiters
            else:
                del self._waiters[key]

    # -- state transitions ---------------------------------------------
    def _resolve(
        self, key: str, words: bytes, worker: str, stolen: bool
    ) -> None:
        self._specs.pop(key, None)
        self._pending.pop(key, None)
        self._builders.pop(key, None)
        self._results[key] = words
        while len(self._results) > self.result_cap:
            self._results.popitem(last=False)
        self.counters["completed"] += 1
        if stolen:
            self.counters["steal_completions"] += 1
        obs.metrics().counter(
            "repro_broker_completed_total",
            help="Shards completed through the broker",
        ).inc()
        for waiter in self._waiters.pop(key, []):
            _write_frame(
                waiter,
                {
                    "op": "result",
                    "key": key,
                    "words": words,
                    "worker": worker,
                    "stolen": stolen,
                },
            )

    def _attempt_failed(self, key: str, error: str) -> None:
        spec = self._specs[key]
        spec["attempts"] += 1
        if spec["attempts"] >= spec["max_attempts"]:
            self._park(key, f"attempt {spec['attempts']}: {error}")
            return
        self._pending[key] = None
        self.counters["requeues"] += 1
        obs.event(
            "task_requeued",
            key=key,
            attempts=spec["attempts"],
            reason=_short(error),
        )
        obs.metrics().counter(
            "repro_broker_requeues_total",
            help="Broker shards requeued after a failed attempt",
        ).inc()

    def _park(self, key: str, error: str) -> None:
        self._specs.pop(key, None)
        self._pending.pop(key, None)
        self._builders.pop(key, None)
        self._failures[key] = error
        self.counters["parked"] += 1
        obs.event("shard_parked", key=key, error=_short(error))
        obs.metrics().counter(
            "repro_broker_parked_total",
            help="Broker shards parked terminally after exhausting retries",
        ).inc()
        for waiter in self._waiters.pop(key, []):
            _write_frame(
                waiter, {"op": "failed", "key": key, "error": error}
            )

    # -- dispatch and stealing -----------------------------------------
    def _pump(self) -> None:
        """Hand work to every idle worker: FIFO first, then theft."""
        now = time.monotonic()
        for worker_id in sorted(self._workers):
            conn = self._workers[worker_id]
            if conn.current is not None:
                continue
            if self._pending:
                key, _ = self._pending.popitem(last=False)
                self._assign(conn, key, now, stolen=False)
                continue
            if not self.steal:
                continue
            key_or_none = self._steal_candidate(worker_id, now)
            if key_or_none is None:
                continue
            self._assign(conn, key_or_none, now, stolen=True)
            self.counters["steals"] += 1
            obs.event(
                "broker_steal",
                key=key_or_none[:12],
                thief=worker_id,
            )
            obs.metrics().counter(
                "repro_steal_total",
                help="Stale in-flight shards duplicated to an idle worker",
            ).inc()

    def _steal_candidate(self, thief: str, now: float) -> str | None:
        """The stalest eligible in-flight shard, deterministically.

        With one in-flight shard per connection, the "most-loaded peer"
        is the one whose lease set holds the stalest lease; ties break
        on the smaller shard key.  A shard is eligible once its oldest
        lease is ``steal_after`` old, the thief is not already building
        it, and fewer than ``max_builders`` workers hold it.
        """
        best: tuple[float, str] | None = None
        for key in sorted(self._specs):
            builders = self._builders.get(key)
            if not builders:
                continue  # pending, not in flight
            if thief in builders or len(builders) >= self.max_builders:
                continue
            age = now - min(builders.values())
            if age < self.steal_after:
                continue
            rank = (-age, key)
            if best is None or rank < best:
                best = rank
        return best[1] if best is not None else None

    def _assign(
        self, conn: _WorkerConn, key: str, now: float, *, stolen: bool
    ) -> None:
        spec = self._specs[key]
        self._builders.setdefault(key, {})[conn.worker_id] = now
        conn.current = key
        conn.stolen = stolen
        conn.assigned_at = now
        conn.last_beat = now
        self.counters["dispatched"] += 1
        obs.metrics().counter(
            "repro_broker_dispatched_total",
            help="Shard builds pushed to workers by the broker",
        ).inc()
        _write_frame(
            conn.writer,
            {
                "op": "build",
                "key": key,
                "task": spec["task"],
                "shard_index": spec["shard_index"],
                "attempts": spec["attempts"],
                "stolen": stolen,
                "trace_file": spec["trace_file"],
                "trace_id": spec["trace_id"],
                "enqueued_wall": spec["enqueued_wall"],
            },
        )

    async def _tick_loop(self) -> None:
        """Scavenge stale heartbeats and mature steal candidates."""
        interval = max(
            0.05, min(self.steal_after / 2.0, self.lease_timeout / 4.0)
        )
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            stale = [
                worker_id
                for worker_id in sorted(self._workers)
                if self._workers[worker_id].current is not None
                and now - self._workers[worker_id].last_beat
                > self.lease_timeout
            ]
            for worker_id in stale:
                conn = self._workers[worker_id]
                age = now - conn.last_beat
                writer = conn.writer
                self._drop_worker(
                    worker_id,
                    f"heartbeat stale for {age:.1f}s (presumed dead "
                    f"mid-shard)",
                )
                writer.close()
            self._pump()

    # -- introspection (`repro queue ... --broker`) --------------------
    def stats_doc(self) -> dict[str, Any]:
        now = time.monotonic()
        building = []
        for key in sorted(self._builders):
            holders = self._builders[key]
            building.append(
                {
                    "key": key,
                    "attempts": self._specs[key]["attempts"],
                    "builders": [
                        {
                            "worker": worker_id,
                            "age_s": round(
                                max(0.0, now - holders[worker_id]), 3
                            ),
                        }
                        for worker_id in sorted(holders)
                    ],
                }
            )
        return {
            "address": f"{self.host}:{self.port}",
            "steal": self.steal,
            "pending": list(self._pending),
            "building": building,
            "workers": [
                {
                    "worker": worker_id,
                    "current": self._workers[worker_id].current,
                }
                for worker_id in sorted(self._workers)
            ],
            "results": len(self._results),
            "failed": [
                {"key": key, "error": self._failures[key]}
                for key in sorted(self._failures)
            ],
            "counters": dict(self.counters),
        }

    def clear(self) -> int:
        """Drop every queued task, result, and failure marker.

        Waiting submitters are failed cleanly rather than left hanging.
        """
        removed = (
            len(self._specs) + len(self._results) + len(self._failures)
        )
        for key in sorted(self._specs):
            for waiter in self._waiters.pop(key, []):
                _write_frame(
                    waiter,
                    {
                        "op": "failed",
                        "key": key,
                        "error": "queue cleared by operator",
                    },
                )
        self._specs.clear()
        self._pending.clear()
        self._builders.clear()
        self._results.clear()
        self._failures.clear()
        return removed


# ----------------------------------------------------------------------
# Foreground / background broker entry points
# ----------------------------------------------------------------------
def run_broker(
    host: str = "127.0.0.1",
    port: int = 8766,
    *,
    steal: bool = True,
    steal_after: float = 0.5,
    lease_timeout: float = 30.0,
) -> int:
    """Run a broker in the foreground until interrupted.

    Prints a ready line (with the actually-bound port, so ``--port 0``
    is usable) before serving, so wrappers can wait for it.
    """
    broker = Broker(
        host,
        port,
        steal=steal,
        steal_after=steal_after,
        lease_timeout=lease_timeout,
    )

    async def main() -> None:
        server = await broker.start()
        sys.stdout.write(
            f"repro broker listening on {broker.host}:{broker.port} "
            f"(steal={'on' if steal else 'off'})\n"
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
    an OS-assigned port; ``broker.address`` is its ``HOST:PORT``.  The
    event loop lives entirely on the background thread; the foreground
    talks to it over real sockets like any other peer.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        steal: bool = True,
        steal_after: float = 0.5,
        lease_timeout: float = 30.0,
        max_builders: int = 3,
    ) -> None:
        self.broker = Broker(
            host,
            port,
            steal=steal,
            steal_after=steal_after,
            lease_timeout=lease_timeout,
            max_builders=max_builders,
        )
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
        sock = _connect(address, timeout=10.0)
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
        ``REPRO_QUEUE_TIMEOUT`` overrides).
    connect_timeout:
        Per-attempt TCP connect deadline; lost connections are retried
        with bounded exponential backoff inside the stall budget.
    """

    broker: str | None = None
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    wait_timeout: float | None = None
    connect_timeout: float = 10.0
    name: str = "tcp"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise AnalysisError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.wait_timeout is not None and self.wait_timeout <= 0:
            raise AnalysisError(
                f"wait_timeout must be > 0, got {self.wait_timeout}"
            )
        if self.connect_timeout <= 0:
            raise AnalysisError(
                f"connect_timeout must be > 0, got {self.connect_timeout}"
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
        index_of: dict[str, int] = {}
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
            index_of[key] = task.shard_index
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
            return self._collect(
                address, label, specs, index_of,
                resolve_wait_timeout(self.wait_timeout),
            )

    def _collect(
        self,
        address: tuple[str, int],
        label: str,
        specs: list[dict[str, Any]],
        index_of: dict[str, int],
        stall_limit: float,
    ) -> list[tuple[int, bytes]]:
        outcomes: list[tuple[int, bytes]] = []
        outstanding = set(index_of)
        backoff = Backoff(0.05, cap=2.0)
        last_progress = time.monotonic()
        sock: socket.socket | None = None
        try:
            while outstanding:
                if sock is None:
                    try:
                        sock = _connect(address, self.connect_timeout)
                        # Re-submission after a broker restart only
                        # carries the still-outstanding shards; resolved
                        # keys never rebuild.
                        send_frame(
                            sock,
                            {
                                "op": "submit",
                                "version": NET_FORMAT_VERSION,
                                "shards": [
                                    spec
                                    for spec in specs
                                    if spec["key"] in outstanding
                                ],
                            },
                        )
                    except OSError as exc:
                        if sock is not None:
                            sock.close()
                            sock = None
                        self._check_stall(
                            last_progress, stall_limit, label,
                            len(outstanding), reason=str(exc),
                        )
                        _sleep(backoff.next())
                        continue
                sock.settimeout(1.0)
                try:
                    message = recv_frame(sock)
                except TimeoutError:
                    self._check_stall(
                        last_progress, stall_limit, label,
                        len(outstanding),
                    )
                    continue
                except (ConnectionError, OSError, AnalysisError) as exc:
                    # Broker went away — or spoke garbage (wrong
                    # service, missing shared secret) — mid-wait: back
                    # off within the stall budget, then reconnect +
                    # resubmit.  Only completions reset the backoff, so
                    # a connect-then-garbage loop escalates instead of
                    # spinning.
                    sock.close()
                    sock = None
                    self._check_stall(
                        last_progress, stall_limit, label,
                        len(outstanding), reason=str(exc),
                    )
                    _sleep(backoff.next())
                    continue
                op = message.get("op")
                if op == "result":
                    key = str(message.get("key") or "")
                    if key in outstanding:
                        words = message.get("words")
                        if not isinstance(words, bytes):
                            raise AnalysisError(
                                f"broker at {label} returned a malformed "
                                f"result for shard {index_of[key]}"
                            )
                        outcomes.append((index_of[key], words))
                        outstanding.discard(key)
                        last_progress = time.monotonic()
                        backoff.reset()
                elif op == "failed":
                    key = str(message.get("key") or "")
                    raise AnalysisError(
                        f"tcp shard {index_of.get(key, '?')} "
                        f"(key {key[:12]}…) failed permanently: "
                        f"{message.get('error')}"
                    )
                elif op == "rejected":
                    raise AnalysisError(
                        f"broker at {label} rejected the submission: "
                        f"{message.get('error')}"
                    )
        finally:
            if sock is not None:
                sock.close()
        return outcomes

    @staticmethod
    def _check_stall(
        last_progress: float,
        stall_limit: float,
        label: str,
        outstanding: int,
        reason: str | None = None,
    ) -> None:
        if time.monotonic() - last_progress <= stall_limit:
            return
        hint = f" ({reason})" if reason else ""
        raise AnalysisError(
            f"broker at {label} made no progress on {outstanding} "
            f"shard(s) within {stall_limit:.0f}s{hint} — is a "
            f"`repro broker` running at {label}, with `repro worker "
            f"--broker {label}` processes attached?"
        )


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
    heartbeat_interval: float | None = None
    build_delay: float = 0.0
    cache_dir: str | Path | None = None
    use_cache: bool = True
    connect_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.lease_timeout <= 0:
            raise AnalysisError(
                f"lease_timeout must be > 0, got {self.lease_timeout}"
            )
        if self.heartbeat_interval is None:
            self.heartbeat_interval = max(
                0.01, min(1.0, self.lease_timeout / 4.0)
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
        stops the loop after that many seconds without a pushed build
        (None: serve forever).  Lost broker connections reconnect with
        bounded exponential backoff.
        """
        stats = {"built": 0, "skipped": 0, "failed": 0, "stolen": 0}
        address = resolve_broker(
            self.broker, what="repro worker", flag="--broker"
        )
        reconnect = Backoff(0.05, cap=2.0)
        claims = 0
        idle_since = time.monotonic()
        while not self._stop.is_set():
            try:
                sock = _connect(address, self.connect_timeout)
            except OSError:
                if self._idle_expired(idle_since, idle_exit):
                    return stats
                _sleep(reconnect.next())
                continue
            self._sock = sock
            try:
                send_frame(
                    sock,
                    {
                        "op": "register",
                        "version": NET_FORMAT_VERSION,
                        "worker": self.worker_id,
                    },
                )
                # Registered again: later blips should not keep paying
                # the full backoff cap accumulated over the lifetime.
                reconnect.reset()
                finished, claims, idle_since = self._drain(
                    sock, stats, claims, max_tasks, idle_exit, idle_since
                )
                if finished:
                    return stats
            except OSError:
                # Connection died mid-build/report (recv-side deaths
                # return through _drain): the worker was active moments
                # ago, so restart its idle clock before reconnecting.
                idle_since = time.monotonic()
            finally:
                self._sock = None
                sock.close()
            if self._stop.is_set():
                return stats
            if self._idle_expired(idle_since, idle_exit):
                return stats
            _sleep(reconnect.next())
        return stats

    @staticmethod
    def _idle_expired(
        idle_since: float, idle_exit: float | None
    ) -> bool:
        return (
            idle_exit is not None
            and time.monotonic() - idle_since >= idle_exit
        )

    def _drain(
        self,
        sock: socket.socket,
        stats: dict[str, int],
        claims: int,
        max_tasks: int | None,
        idle_exit: float | None,
        idle_since: float,
    ) -> tuple[bool, int, float]:
        """The per-connection receive loop.

        Returns ``(finished, claims, idle_since)``: finished means the
        worker is done for good (stop, idle-exit, or max-tasks);
        otherwise the caller reconnects, judging its own idle-exit
        against the returned ``idle_since`` (which this loop advances
        on every build) rather than the stale value it passed in.
        """
        while not self._stop.is_set():
            sock.settimeout(
                min(0.5, idle_exit) if idle_exit is not None else 1.0
            )
            try:
                message = recv_frame(sock)
            except TimeoutError:
                if self._idle_expired(idle_since, idle_exit):
                    return True, claims, idle_since
                continue
            except (ConnectionError, OSError, AnalysisError):
                return False, claims, idle_since
            op = message.get("op")
            if op == "rejected":
                raise AnalysisError(
                    f"broker rejected this worker: {message.get('error')}"
                )
            if op != "build":
                continue
            idle_since = time.monotonic()
            claims += 1
            if self._crash_after and claims >= self._crash_after:
                os._exit(42)  # test hook: die mid-shard, lease held
            key = str(message.get("key") or "")
            if message.get("stolen"):
                stats["stolen"] += 1
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
                stats["skipped"] += 1
                self._send(sock, {
                    "op": "done", "key": key, "words": cached,
                })
                continue
            try:
                words = self._build(sock, message)
            except OSError:
                raise  # the connection died; reconnect, don't report
            except Exception as exc:  # noqa: BLE001 - reported to the broker
                stats["failed"] += 1
                self._send(
                    sock,
                    {
                        "op": "error",
                        "key": key,
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
                continue
            if self.use_cache:
                self._cache.put(key, words)
            stats["built"] += 1
            obs.metrics().counter(
                "repro_tcp_completed_total",
                help="Shards built to completion by TCP workers",
            ).inc()
            self._send(sock, {
                "op": "done", "key": key, "words": words,
            })
            if max_tasks is not None and stats["built"] >= max_tasks:
                return True, claims, idle_since
        return True, claims, idle_since

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
        interval = self.heartbeat_interval
        assert interval is not None  # set in __post_init__

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
