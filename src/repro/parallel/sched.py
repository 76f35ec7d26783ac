"""The tcp transport's policies, with no I/O and no clock.

Each peer's policy is a state machine here that takes the monotonic
time ``now`` as an argument; :mod:`repro.parallel.netqueue` keeps only
the sockets and does what the machines return, and tests pass explicit
``now`` values instead of sleeping.  :class:`Scheduler` is the broker:
FIFO dispatch, leases, heartbeats, work stealing, retries and parking.
Each event is a method call carrying its frame; each returns
:class:`Actions` — the ``(peer, frame)`` pairs to send, in order, then
the peers to close.  A *peer* is any hashable connection handle: the
broker passes its ``asyncio.StreamWriter``, tests pass strings.
:class:`SubmitterMachine` is one ``TcpExecutor.submit`` call and
:class:`WorkerMachine` one ``TcpWorker.serve`` call; both reconnect on
one fixed schedule (0.05 s doubling to 2 s, restarted by progress).

``_builders[key] = {worker: leased_at}`` is the scheduler's only record
of leases; a worker holds at most one.  :meth:`Scheduler._release` is
the one way a lease ends without a result: the last builder's release
charges the key one attempt and requeues it, or parks it at
``max_attempts``.  Dispatch is submission FIFO to idle workers in
sorted id order, and steal victims are chosen by (stalest lease,
smallest key), so a replay of the same events sends the same frames.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Any, Generic, TypeVar

from repro import obs
from repro.errors import AnalysisError
from repro.parallel.worker import ShardTask

__all__ = [
    "DEFAULT_MAX_ATTEMPTS", "MAX_BUILDERS", "RESULT_CAP", "Actions",
    "Scheduler", "SubmitterMachine", "WorkerMachine",
]

#: Default number of build attempts a shard gets before it is parked
#: (covers both raised builds and lost workers).
DEFAULT_MAX_ATTEMPTS = 3

#: At most this many workers build one shard at once: its first
#: builder plus steals.
MAX_BUILDERS = 3

#: Finished shard payloads kept for resubmissions (an LRU).
RESULT_CAP = 4096

#: The clients' reconnect schedule: the first delay, doubled per
#: failed attempt up to the cap.
RECONNECT_INITIAL = 0.05
RECONNECT_CAP = 2.0

#: Longest single socket wait of a client, and the shortest (a zero
#: timeout would make the socket non-blocking).
POLL_INTERVAL = 1.0
MIN_POLL = 0.01

Peer = TypeVar("Peer", bound=Hashable)


def _short(text: str, limit: int = 160) -> str:
    """Event-attribute-sized failure text."""
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _poll_timeout(deadline: float, now: float) -> float:
    """How long a client may block on its socket before a deadline."""
    return min(POLL_INTERVAL, max(MIN_POLL, deadline - now))


@dataclass
class Actions(Generic[Peer]):
    """What one event asks of the transport: sends first, then closes."""

    sends: list[tuple[Peer, dict[str, Any]]] = field(default_factory=list)
    closes: list[Peer] = field(default_factory=list)


@dataclass
class _WorkerConn(Generic[Peer]):
    """One registered worker connection."""

    peer: Peer
    current: str | None = None
    stolen: bool = False
    last_beat: float = 0.0


class Scheduler(Generic[Peer]):
    """Queue state and policy of one broker.

    ``steal_after`` is the lease age beyond which an idle worker
    duplicates a peer's in-flight shard (when ``steal`` is on);
    ``lease_timeout`` is the heartbeat age beyond which a busy worker
    is presumed dead and closed, costing its shard one attempt.
    """

    def __init__(
        self,
        *,
        steal: bool = True,
        steal_after: float = 0.5,
        lease_timeout: float = 30.0,
    ) -> None:
        for name, value in (
            ("steal_after", steal_after), ("lease_timeout", lease_timeout)
        ):
            if value <= 0:
                raise AnalysisError(f"{name} must be > 0, got {value}")
        self.steal = steal
        self.steal_after = steal_after
        self.lease_timeout = lease_timeout
        #: FIFO of not-yet-dispatched keys (values unused).
        self._pending: OrderedDict[str, None] = OrderedDict()
        #: Every unresolved key -> its task spec (pending or building).
        self._specs: dict[str, dict[str, Any]] = {}
        #: key -> {worker_id: leased_at} for in-flight builds.
        self._builders: dict[str, dict[str, float]] = {}
        #: key -> submitter peers waiting for its result.
        self._waiters: dict[str, list[Peer]] = {}
        #: Finished shard payloads, bounded LRU.
        self._results: OrderedDict[str, bytes] = OrderedDict()
        #: Terminally failed keys -> error text.
        self._failures: dict[str, str] = {}
        self._workers: dict[str, _WorkerConn[Peer]] = {}
        #: peer -> the worker id registered on it (the inverse of
        #: ``_workers[id].peer``, so a superseded peer maps to nothing).
        self._ids: dict[Peer, str] = {}
        self.counters: dict[str, int] = dict.fromkeys((
            "submitted", "dispatched", "completed", "duplicates", "steals",
            "steal_completions", "requeues", "parked", "workers_registered",
            "disconnects",
        ), 0)
        self._out: Actions[Peer] = Actions()

    # -- events --------------------------------------------------------
    def submit(
        self, peer: Peer, message: dict[str, Any], now: float
    ) -> Actions[Peer]:
        """Queue a batch of shard specs; ``peer`` waits for each result."""
        shards = message.get("shards")
        if not isinstance(shards, list):
            return self._reject(peer, "submit needs a shard list")
        if not all(
            isinstance(spec, dict) and isinstance(spec.get("task"), ShardTask)
            for spec in shards
        ):
            # Validated before anything is queued: a rejected batch
            # leaves no orphaned prefix behind to be built for no one.
            return self._reject(
                peer, "submit shards must carry ShardTask specs"
            )
        for spec in shards:
            key = str(spec.get("key") or "")
            cached = self._results.get(key)
            if cached is not None:
                self._results.move_to_end(key)
                self._send(
                    peer, "result",
                    key=key, words=cached, worker=None, stolen=False,
                )
                continue
            # A fresh submission clears a parked failure and gets a
            # fresh retry budget.
            self._failures.pop(key, None)
            if key not in self._specs:
                self._specs[key] = {
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
                self._count(
                    "submitted", "repro_broker_submitted_total",
                    "Shard tasks accepted by the broker",
                )
            waiters = self._waiters.setdefault(key, [])
            if peer not in waiters:
                waiters.append(peer)
        self._pump(now)
        return self._flush()

    def register(
        self, peer: Peer, message: dict[str, Any], now: float
    ) -> Actions[Peer]:
        """A worker announces itself on ``peer`` and becomes dispatchable."""
        worker_id = str(message.get("worker") or "")
        if not worker_id:
            return self._reject(peer, "register needs a worker id")
        # A reconnect under the same id supersedes the dead connection
        # (as does a second registration on this one).
        for stale in (self._ids.get(peer), worker_id):
            if stale is not None and stale in self._workers:
                self._drop(stale, "superseded by a reconnect")
        self._workers[worker_id] = _WorkerConn(peer, last_beat=now)
        self._ids[peer] = worker_id
        self.counters["workers_registered"] += 1
        obs.event("broker_worker_registered", worker=worker_id)
        self._pump(now)
        return self._flush()

    def beat(self, peer: Peer, now: float) -> Actions[Peer]:
        """A heartbeat: the worker on ``peer`` is alive."""
        worker_id = self._ids.get(peer)
        if worker_id is not None:
            self._workers[worker_id].last_beat = now
        return self._flush()

    def done(
        self, peer: Peer, message: dict[str, Any], now: float
    ) -> Actions[Peer]:
        """A worker reports a finished build; the first result wins."""
        worker_id = self._ids.get(peer)
        key = str(message.get("key") or "")
        stolen = self._finish(worker_id, key)
        words = message.get("words")
        if key in self._specs and isinstance(words, bytes):
            self._resolve(key, words, worker_id or "?", stolen)
        else:
            # A late duplicate (the shard was resolved by a faster
            # builder, or cleared) or a malformed report: the first
            # good result stands, but the reporter must still release
            # its builder slot, or a ghost lease holds one of the key's
            # ``MAX_BUILDERS`` forever.
            self._count(
                "duplicates", "repro_broker_duplicates_total",
                "Late duplicate completions discarded by the broker",
            )
            if worker_id is not None:
                self._release(
                    worker_id, key, "malformed done frame (words not bytes)"
                )
        self._pump(now)
        return self._flush()

    def error(
        self, peer: Peer, message: dict[str, Any], now: float
    ) -> Actions[Peer]:
        """A worker reports a build that raised."""
        worker_id = self._ids.get(peer)
        key = str(message.get("key") or "")
        self._finish(worker_id, key)
        if worker_id is not None:
            self._release(
                worker_id,
                key,
                str(message.get("error") or "unknown worker error"),
            )
        self._pump(now)
        return self._flush()

    def disconnect(self, peer: Peer, now: float) -> Actions[Peer]:
        """``peer`` closed: its worker is lost and its waits end.

        A submitter's shards stay queued (results are kept, so a
        reconnect-and-resubmit finds them at once).  A peer whose id
        was superseded by a reconnect maps to nothing here, so it can
        never deregister its successor.
        """
        self.counters["disconnects"] += 1
        worker_id = self._ids.get(peer)
        if worker_id is not None:
            self._drop(worker_id, "connection lost")
        for key in sorted(self._waiters):
            waiters = [w for w in self._waiters[key] if w != peer]
            if waiters:
                self._waiters[key] = waiters
            else:
                del self._waiters[key]
        self._pump(now)
        return self._flush()

    def tick(self, now: float) -> Actions[Peer]:
        """Close busy workers whose heartbeat is stale; mature steals."""
        for worker_id in sorted(self._workers):
            conn = self._workers[worker_id]
            age = now - conn.last_beat
            if conn.current is None or age <= self.lease_timeout:
                continue
            self._out.closes.append(conn.peer)
            self._drop(
                worker_id,
                f"heartbeat stale for {age:.1f}s (presumed dead mid-shard)",
            )
        self._pump(now)
        return self._flush()

    # -- queries -------------------------------------------------------
    def stats(self, now: float) -> dict[str, Any]:
        """The state document behind ``repro queue info|stats``."""
        building = [
            {
                "key": key,
                "attempts": self._specs[key]["attempts"],
                "builders": [
                    {"worker": w, "age_s": round(max(0.0, now - at), 3)}
                    for w, at in sorted(holders.items())
                ],
            }
            for key, holders in sorted(self._builders.items())
        ]
        return {
            "steal": self.steal,
            "pending": list(self._pending),
            "building": building,
            "workers": [
                {"worker": w, "current": self._workers[w].current}
                for w in sorted(self._workers)
            ],
            "results": len(self._results),
            "failed": [
                {"key": key, "error": self._failures[key]}
                for key in sorted(self._failures)
            ],
            "counters": dict(self.counters),
        }

    def clear(self) -> tuple[int, Actions[Peer]]:
        """Drop every queued task, result, and failure marker.

        Returns the number of entries removed.  Waiting submitters are
        failed cleanly rather than left hanging.
        """
        removed = (
            len(self._specs) + len(self._results) + len(self._failures)
        )
        for key in sorted(self._specs):
            for waiter in self._waiters.pop(key, []):
                self._send(
                    waiter, "failed",
                    key=key, error="queue cleared by operator",
                )
        self._specs.clear()
        self._pending.clear()
        self._builders.clear()
        self._results.clear()
        self._failures.clear()
        return removed, self._flush()

    # -- transitions ---------------------------------------------------
    def _send(self, peer: Peer, op: str, **fields: Any) -> None:
        self._out.sends.append((peer, {"op": op, **fields}))

    def _count(self, counter: str, metric: str, help: str) -> None:
        """Bump a ``repro queue stats`` counter and its obs metric."""
        self.counters[counter] += 1
        obs.metrics().counter(metric, help=help).inc()

    def _flush(self) -> Actions[Peer]:
        out = self._out
        self._out = Actions()
        return out

    def _reject(self, peer: Peer, error: str) -> Actions[Peer]:
        self._send(peer, "rejected", error=error)
        return self._flush()

    def _finish(self, worker_id: str | None, key: str) -> bool:
        """Mark the worker idle if ``key`` is its build; True if stolen."""
        conn = None if worker_id is None else self._workers.get(worker_id)
        if conn is None or conn.current != key:
            return False
        stolen = conn.stolen
        conn.current = None
        conn.stolen = False
        return stolen

    def _drop(self, worker_id: str, reason: str) -> None:
        conn = self._workers.pop(worker_id)
        del self._ids[conn.peer]
        if conn.current is not None:
            self._release(
                worker_id,
                conn.current,
                f"worker {worker_id} lost mid-shard ({reason})",
            )
        obs.event(
            "broker_worker_lost", worker=worker_id, reason=_short(reason)
        )

    def _release(self, worker_id: str, key: str, reason: str) -> None:
        """End ``worker_id``'s lease on ``key`` without a result.

        The last builder's release charges the key one attempt and
        requeues it, or parks it at ``max_attempts``.
        """
        builders = self._builders.get(key)
        if builders is None or builders.pop(worker_id, None) is None:
            return
        if builders:
            return  # another builder still holds the key
        del self._builders[key]
        spec = self._specs[key]
        spec["attempts"] += 1
        if spec["attempts"] >= spec["max_attempts"]:
            self._park(key, f"attempt {spec['attempts']}: {reason}")
            return
        self._pending[key] = None
        self._count(
            "requeues", "repro_broker_requeues_total",
            "Broker shards requeued after a failed attempt",
        )
        obs.event(
            "task_requeued",
            key=key,
            attempts=spec["attempts"],
            reason=_short(reason),
        )

    def _retire(self, key: str) -> list[Peer]:
        """Forget ``key``'s queue state; returns its waiters."""
        self._specs.pop(key, None)
        self._pending.pop(key, None)
        self._builders.pop(key, None)
        return self._waiters.pop(key, [])

    def _resolve(
        self, key: str, words: bytes, worker: str, stolen: bool
    ) -> None:
        waiters = self._retire(key)
        self._results[key] = words
        while len(self._results) > RESULT_CAP:
            self._results.popitem(last=False)
        self._count(
            "completed", "repro_broker_completed_total",
            "Shards completed through the broker",
        )
        if stolen:
            self.counters["steal_completions"] += 1
        for waiter in waiters:
            self._send(
                waiter, "result",
                key=key, words=words, worker=worker, stolen=stolen,
            )

    def _park(self, key: str, error: str) -> None:
        waiters = self._retire(key)
        self._failures[key] = error
        self._count(
            "parked", "repro_broker_parked_total",
            "Broker shards parked terminally after exhausting retries",
        )
        obs.event("shard_parked", key=key, error=_short(error))
        for waiter in waiters:
            self._send(waiter, "failed", key=key, error=error)

    # -- dispatch and stealing -----------------------------------------
    def _pump(self, now: float) -> None:
        """Hand work to every idle worker: FIFO first, then theft."""
        for worker_id in sorted(self._workers):
            conn = self._workers[worker_id]
            if conn.current is not None:
                continue
            if self._pending:
                key, _ = self._pending.popitem(last=False)
                self._assign(worker_id, key, now, stolen=False)
                continue
            if not self.steal:
                continue
            stolen_key = self._steal_candidate(worker_id, now)
            if stolen_key is None:
                continue
            self._assign(worker_id, stolen_key, now, stolen=True)
            self._count(
                "steals", "repro_steal_total",
                "Stale in-flight shards duplicated to an idle worker",
            )
            obs.event("broker_steal", key=stolen_key[:12], thief=worker_id)

    def _steal_candidate(self, thief: str, now: float) -> str | None:
        """The stalest eligible in-flight shard, deterministically.

        With one in-flight shard per connection, the "most-loaded peer"
        is the one whose lease set holds the stalest lease; ties break
        on the smaller shard key.  A shard is eligible once its oldest
        lease is ``steal_after`` old, the thief is not already building
        it, and fewer than ``MAX_BUILDERS`` workers hold it.
        """
        best: tuple[float, str] | None = None
        for key in sorted(self._builders):
            builders = self._builders[key]
            if thief in builders or len(builders) >= MAX_BUILDERS:
                continue
            age = now - min(builders.values())
            if age < self.steal_after:
                continue
            rank = (-age, key)
            if best is None or rank < best:
                best = rank
        return best[1] if best is not None else None

    def _assign(
        self, worker_id: str, key: str, now: float, *, stolen: bool
    ) -> None:
        spec = self._specs[key]
        conn = self._workers[worker_id]
        self._builders.setdefault(key, {})[worker_id] = now
        conn.current = key
        conn.stolen = stolen
        conn.last_beat = now
        self._count(
            "dispatched", "repro_broker_dispatched_total",
            "Shard builds pushed to workers by the broker",
        )
        self._send(
            conn.peer, "build",
            key=key,
            task=spec["task"],
            shard_index=spec["shard_index"],
            attempts=spec["attempts"],
            stolen=stolen,
            trace_file=spec["trace_file"],
            trace_id=spec["trace_id"],
            enqueued_wall=spec["enqueued_wall"],
        )


# ----------------------------------------------------------------------
# The clients
# ----------------------------------------------------------------------
class SubmitterMachine:
    """The policy of one ``TcpExecutor.submit`` call.

    ``specs`` are the submit frame's shard specs (each carries ``key``
    and ``shard_index``).  :attr:`outcomes` collects ``(shard_index,
    words)`` in arrival order; the submission is :attr:`finished` once
    every key has its result.  ``stall_limit`` seconds without a
    completion end it with an error that says what to start; ``label``
    is the broker's ``HOST:PORT`` for messages.
    """

    def __init__(
        self,
        specs: list[dict[str, Any]],
        *,
        stall_limit: float,
        label: str,
        now: float,
    ) -> None:
        self.specs = specs
        self._index_of = {
            spec["key"]: spec["shard_index"] for spec in specs
        }
        self.outstanding = set(self._index_of)
        self.outcomes: list[tuple[int, bytes]] = []
        self.stall_limit = stall_limit
        self.label = label
        self._progress_at = now
        self._delay = RECONNECT_INITIAL

    @property
    def finished(self) -> bool:
        return not self.outstanding

    def pending(self) -> list[dict[str, Any]]:
        """The specs to send on a (re)connect: resolved keys never rebuild."""
        return [
            spec for spec in self.specs if spec["key"] in self.outstanding
        ]

    def poll_timeout(self, now: float) -> float:
        return _poll_timeout(self._progress_at + self.stall_limit, now)

    def receive(self, message: dict[str, Any], now: float) -> None:
        """Take one broker frame; raises on ``failed``/``rejected``."""
        op = message.get("op")
        key = str(message.get("key") or "")
        if op == "result" and key in self.outstanding:
            words = message.get("words")
            if not isinstance(words, bytes):
                raise AnalysisError(
                    f"broker at {self.label} returned a malformed "
                    f"result for shard {self._index_of[key]}"
                )
            self.outcomes.append((self._index_of[key], words))
            self.outstanding.discard(key)
            self._progress_at = now
            self._delay = RECONNECT_INITIAL
        elif op == "failed":
            raise AnalysisError(
                f"tcp shard {self._index_of.get(key, '?')} "
                f"(key {key[:12]}…) failed permanently: "
                f"{message.get('error')}"
            )
        elif op == "rejected":
            raise AnalysisError(
                f"broker at {self.label} rejected the submission: "
                f"{message.get('error')}"
            )

    def check(self, now: float, reason: str | None = None) -> None:
        """Raise once more than ``stall_limit`` seconds pass without a
        completion."""
        if now - self._progress_at <= self.stall_limit:
            return
        hint = f" ({reason})" if reason else ""
        raise AnalysisError(
            f"broker at {self.label} made no progress on "
            f"{len(self.outstanding)} shard(s) within "
            f"{self.stall_limit:.0f}s{hint} — is a `repro broker` running "
            f"at {self.label}, with `repro worker --broker {self.label}` "
            f"processes attached?"
        )

    def lost(self, now: float, reason: str) -> float:
        """The connection failed, or its peer spoke garbage: the delay
        before reconnecting (raises once stalled).  Only completions
        restart the schedule, so a connect-then-garbage loop escalates
        instead of spinning."""
        self.check(now, reason)
        delay, self._delay = self._delay, min(2 * self._delay, RECONNECT_CAP)
        return delay


class WorkerMachine:
    """The policy of one ``TcpWorker.serve`` call.

    :attr:`stats` counts builds ``built``, ``skipped`` (cache hits),
    ``failed`` and ``stolen``; the worker is :attr:`finished` after
    ``max_tasks`` builds.  ``idle_exit`` seconds without a build in
    progress end the loop (None: serve forever).
    """

    def __init__(
        self,
        *,
        idle_exit: float | None = None,
        max_tasks: int | None = None,
        now: float,
    ) -> None:
        self.idle_exit = idle_exit
        self.max_tasks = max_tasks
        self.stats = dict.fromkeys(
            ("built", "skipped", "failed", "stolen"), 0
        )
        self.claims = 0
        self._active_at = now
        self._building = False
        self._delay = RECONNECT_INITIAL

    @property
    def finished(self) -> bool:
        return (
            self.max_tasks is not None
            and self.stats["built"] >= self.max_tasks
        )

    def idle_expired(self, now: float) -> bool:
        return (
            self.idle_exit is not None
            and now - self._active_at >= self.idle_exit
        )

    def poll_timeout(self, now: float) -> float:
        if self.idle_exit is None:
            return POLL_INTERVAL
        return _poll_timeout(self._active_at + self.idle_exit, now)

    def registered(self) -> None:
        """Registered again: later blips start the schedule over instead
        of paying the delay accumulated over the worker's lifetime."""
        self._delay = RECONNECT_INITIAL

    def claim(self, message: dict[str, Any], now: float) -> int:
        """A ``build`` frame arrived; returns the claim count so far."""
        self._active_at = now
        self._building = True
        self.claims += 1
        if message.get("stolen"):
            self.stats["stolen"] += 1
        return self.claims

    def settle(self, outcome: str, now: float) -> None:
        """The claimed build ended ``built``, ``skipped`` or ``failed``
        and is about to be reported."""
        self._active_at = now
        self._building = False
        self.stats[outcome] += 1

    def lost(self, now: float) -> float | None:
        """The connection is down: the delay before reconnecting, or
        None when the worker has been idle for ``idle_exit``.  A
        connection that died mid-build restarts the idle deadline: the
        worker was busy moments ago."""
        if self._building:
            self._building = False
            self._active_at = now
        if self.idle_expired(now):
            return None
        delay, self._delay = self._delay, min(2 * self._delay, RECONNECT_CAP)
        return delay
