"""Pluggable shard executors: *where* a shard plan runs.

:class:`~repro.parallel.backend.ParallelBackend` fixes *what* a sharded
build computes — a deterministic :class:`~repro.parallel.plan.ShardPlan`
cut, merged in shard order, bit-for-bit identical to the single-process
table.  A :class:`ShardExecutor` is the orthogonal axis: the substrate
the pending shard tasks execute on.  Three implementations:

``inline`` (:class:`InlineExecutor`)
    Every task runs in the calling process — no pool, no pickling (it
    still gets the shard cut and the persistent shard cache).
``pool`` (:class:`PoolExecutor`)
    A ``concurrent.futures.ProcessPoolExecutor`` fan-out over ``jobs``
    local worker processes.  ``jobs`` is this class's field and no
    other layer's: below the front ends a build takes one executor or
    none.  The pool itself lives outside the frozen dataclass, in a
    module registry keyed by ``jobs``: the first pooled build of a
    process forks it, later builds reuse its workers, and it is shut
    down at exit and when ``repro serve`` / ``repro broker`` stop on
    SIGINT or SIGTERM (:func:`shutdown_pools`), and dropped after a
    ``BrokenProcessPool`` (the failing build still raises it; the next
    build forks a fresh pool).  A worker whose parent was SIGKILLed
    exits on its own within a second.  A build maps its shards in one chunk
    per worker, so the circuit is pickled once per worker, not once
    per shard.  Tracing:
    a forked worker keeps the tracer that was active when it forked,
    so the registry forks a new pool whenever the active tracer is no
    longer the one its pool forked under.
``tcp`` (:class:`~repro.parallel.netqueue.TcpExecutor`)
    Submits the tasks to a ``repro broker`` over TCP and blocks on the
    socket for pushed results from ``repro worker --broker`` processes
    on any host — no shared filesystem, no polling on the hot path.
    Lost workers cost a shard one attempt and requeue it, with bounded
    retries, and deterministic work stealing keeps a heterogeneous
    fleet running at the speed of its fast workers.  Defined in
    :mod:`repro.parallel.netqueue`; the factory imports it lazily.

All three satisfy ``submit(tasks) -> iterable of (shard_index,
words)`` — ``words`` being :func:`~repro.parallel.worker.run_shard`'s
opaque payload ``bytes`` — and are small frozen dataclasses (hashable,
picklable), so backends that embed them stay valid cache keys; each
class names itself in a class constant ``name``.  The front ends
resolve ``--executor``/``--jobs``/``--broker`` and ``REPRO_EXECUTOR``/
``REPRO_JOBS`` into one executor in
:func:`repro.options.executor_from_options`.  Because every executor
runs the same :func:`~repro.parallel.worker.run_shard` code on the
same deterministic shard cut, the merged table is identical no matter
which substrate built it — the differential suite enforces this.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import ClassVar, Iterable, Protocol, runtime_checkable

from repro import obs
from repro.errors import AnalysisError
from repro.obs.tracer import AnyTracer
from repro.parallel.worker import ShardTask, run_shard

#: Names accepted by :func:`make_executor` (and ``--executor`` on the CLI).
EXECUTOR_NAMES: tuple[str, ...] = ("inline", "pool", "tcp")


@runtime_checkable
class ShardExecutor(Protocol):
    """Execution substrate for a batch of :class:`ShardTask` s.

    ``submit`` may yield results in any order — callers reassemble by
    the ``shard_index`` each tuple carries.
    """

    name: ClassVar[str]

    def submit(self, tasks: list[ShardTask]) -> Iterable[tuple[int, bytes]]:
        """Execute every task; yield ``(shard_index, words)``."""

    def describe(self) -> str:
        """Short human-readable form for CLI labels."""


@dataclass(frozen=True)
class InlineExecutor:
    """Run every shard in the calling process (no pool, no pickling)."""

    name: ClassVar[str] = "inline"

    def submit(self, tasks: list[ShardTask]) -> list[tuple[int, bytes]]:
        return [run_shard(task) for task in tasks]

    def describe(self) -> str:
        return "inline"


@dataclass(frozen=True)
class PoolExecutor:
    """Local ``ProcessPoolExecutor`` fan-out (the classic ``--jobs N``)."""

    jobs: int = 2
    name: ClassVar[str] = "pool"

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise AnalysisError(f"jobs must be >= 1, got {self.jobs}")

    def submit(self, tasks: list[ShardTask]) -> list[tuple[int, bytes]]:
        # One worker or one task: pooling buys nothing, pickling costs.
        if self.jobs == 1 or len(tasks) <= 1:
            return [run_shard(task) for task in tasks]
        # One chunk per worker: a chunk pickles its tasks' shared
        # circuit once.  map yields in task order, chunked or not.
        chunksize = -(-len(tasks) // self.jobs)
        try:
            with _POOLS_LOCK:
                pool = _pool_for(self.jobs)
                # map submits every chunk before it returns, so no other
                # thread can shut this pool down under the submit.
                results = pool.map(run_shard, tasks, chunksize=chunksize)
            return list(results)
        except BrokenProcessPool:
            _discard(self.jobs, pool)
            raise

    def describe(self) -> str:
        return f"pool jobs={self.jobs}"


#: The process's pools by worker count, each with the tracer that was
#: active when its workers forked.
_POOLS: dict[int, tuple[ProcessPoolExecutor, AnyTracer]] = {}
_POOLS_LOCK = threading.Lock()


def _pool_for(jobs: int) -> ProcessPoolExecutor:
    """The ``jobs``-worker pool (caller holds :data:`_POOLS_LOCK`).

    A worker keeps the tracer it forked with, so a pool forked under
    another tracer than the active one is replaced: a traced run after
    an untraced one gets workers that write its trace file.
    """
    tracer = obs.current_tracer()
    entry = _POOLS.get(jobs)
    if entry is not None:
        pool, forked_under = entry
        if forked_under is tracer:
            return pool
        pool.shutdown(wait=False)
    pool = ProcessPoolExecutor(
        max_workers=jobs, initializer=_start_worker, initargs=(os.getpid(),)
    )
    _POOLS[jobs] = (pool, tracer)
    return pool


def _start_worker(parent: int) -> None:
    """Pool worker initializer: a worker of its own, ending with ``parent``.

    A worker forked from ``repro serve`` inherits the asyncio loop's
    SIGTERM handler and signal wakeup fd, so a SIGTERM sent to the
    worker would reach the server's loop and shut the server down; the
    worker gets the default SIGTERM action and no wakeup fd instead.
    :func:`shutdown_pools` and interpreter exit stop a pool's workers,
    but a SIGKILLed parent runs neither, and its idle workers would
    block on their call queue for good, holding whatever the parent
    left open (a server's listening socket).  A daemon thread checks
    the worker's parent pid once a second and exits when it changes.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(0)

    threading.Thread(target=watch, name="repro-parent", daemon=True).start()


def _discard(jobs: int, pool: ProcessPoolExecutor) -> None:
    """Forget a broken pool, so the next build forks a fresh one."""
    with _POOLS_LOCK:
        entry = _POOLS.get(jobs)
        if entry is not None and entry[0] is pool:
            del _POOLS[jobs]
    pool.shutdown(wait=False)


def shutdown_pools() -> None:
    """Shut down every pool this process forked and wait for its workers.

    Runs when ``repro serve`` / ``repro broker`` stop
    (:func:`repro.daemon.run_foreground`); a later pooled build forks
    a new pool.  At interpreter exit ``concurrent.futures`` shuts every
    pool down itself.
    """
    with _POOLS_LOCK:
        pools = [pool for pool, _ in _POOLS.values()]
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


def make_executor(
    name: str, jobs: int = 2, broker: str | None = None
) -> ShardExecutor:
    """The executor ``--executor name`` selects.

    ``jobs`` sizes the pool executor and is ignored by the others;
    :func:`repro.options.executor_from_options` resolves it from
    ``--jobs`` and ``REPRO_JOBS``.  ``broker`` is the tcp executor's
    address (that resolver refuses it for any other executor), checked
    eagerly so the CLI fails before any table work starts.
    """
    if name == "inline":
        return InlineExecutor()
    if name == "pool":
        return PoolExecutor(jobs=jobs)
    if name == "tcp":
        # Imported lazily: only tcp runs should pay for asyncio and the
        # socket transport.
        from repro.parallel.netqueue import TcpExecutor, resolve_broker

        resolve_broker(broker)  # fail before any table work starts
        return TcpExecutor(broker=broker)
    raise AnalysisError(
        f"unknown executor {name!r}; choose from "
        f"{', '.join(EXECUTOR_NAMES)}"
    )
