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
    none.
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

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import ClassVar, Iterable, Protocol, runtime_checkable

from repro.errors import AnalysisError
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
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(tasks))
        ) as pool:
            return list(pool.map(run_shard, tasks))

    def describe(self) -> str:
        return f"pool jobs={self.jobs}"


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
