"""Sharded parallel execution of detection-table construction.

Building the fault × vector detection table dominates every analysis in
this library and is embarrassingly parallel over faults.  This package
turns that observation into a subsystem:

``plan``
    :class:`ShardPlan` — balanced, deterministic, jobs-independent
    splits of a fault list into contiguous shards.
``worker``
    :class:`ShardTask` / :func:`run_shard` — the picklable unit of work
    executed in worker processes, delegating to the base backend's own
    build path and returning the shard's rows as raw little-endian
    ``uint64`` word bytes (the one shard payload).
``cache``
    :class:`ShardCache` — persistent on-disk shard payloads (a small
    header plus the word bytes, never a pickle), content-addressed by
    circuit structure × backend configuration × fault slice, written
    atomically.
``executors``
    :class:`ShardExecutor` protocol and its three substrates —
    :class:`InlineExecutor` (in-process), :class:`PoolExecutor` (local
    process pool), and :class:`~repro.parallel.netqueue.TcpExecutor`
    (network broker drained by ``repro worker`` processes on any host).
``netqueue``
    :class:`Broker` / :class:`TcpExecutor` / :class:`TcpWorker` — the
    stdlib TCP transport behind ``--executor tcp`` and the one
    distributed transport: an asyncio broker (``repro broker``) pushes
    shard builds to blocking workers (no polling on the hot path),
    leases are heartbeated over the connection, lost workers requeue
    their shard with bounded retries, and deterministic work stealing
    duplicates stale in-flight shards to idle workers — safe because
    shard results are content-addressed, so double-completion is a
    cache hit.  Import it directly: it stays out of this package's
    namespace so ``import repro.parallel`` does not load asyncio or the
    socket transport.
``sched``
    The transport's policies with no I/O and no clock: the broker's
    :class:`Scheduler` and the two clients' machines, which take the
    time ``now`` as an argument.
``backend``
    :class:`ParallelBackend` — a
    :class:`~repro.faultsim.backends.DetectionBackend` wrapping any base
    engine; the one decoder of shard payloads, it merges them into a
    table bit-for-bit identical to the single-process build, whichever
    executor ran the shards.

Entry points: ``--jobs N`` / ``--executor {inline,pool,tcp}`` on the
CLI and ``REPRO_JOBS`` / ``REPRO_EXECUTOR`` in the environment, which
:func:`repro.options.executor_from_options` resolves once into one
executor (or none); ``ParallelBackend(base, executor=...)`` or
``maybe_parallel(base, executor)`` in code; ``repro worker --broker
HOST:PORT`` (default ``REPRO_BROKER``) to serve builds, and ``repro
broker`` to run the TCP broker.
"""

from repro.parallel.backend import ParallelBackend, maybe_parallel
from repro.parallel.executors import (
    EXECUTOR_NAMES,
    InlineExecutor,
    PoolExecutor,
    ShardExecutor,
    make_executor,
)
from repro.parallel.cache import (
    ShardCache,
    backend_cache_key,
    cache_stats,
    circuit_digest,
    default_cache_dir,
    reset_cache_stats,
    shard_key,
)
from repro.parallel.plan import DEFAULT_NUM_SHARDS, Shard, ShardPlan
from repro.parallel.worker import ShardTask, run_shard

__all__ = [
    "ParallelBackend",
    "maybe_parallel",
    "EXECUTOR_NAMES",
    "InlineExecutor",
    "PoolExecutor",
    "ShardExecutor",
    "make_executor",
    "ShardCache",
    "backend_cache_key",
    "cache_stats",
    "circuit_digest",
    "default_cache_dir",
    "reset_cache_stats",
    "shard_key",
    "DEFAULT_NUM_SHARDS",
    "Shard",
    "ShardPlan",
    "ShardTask",
    "run_shard",
]
