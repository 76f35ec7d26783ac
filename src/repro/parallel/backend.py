"""The :class:`ParallelBackend`: sharded table builds on any executor.

Wraps any base :class:`~repro.faultsim.backends.DetectionBackend`
(exhaustive / sampled / serial) and satisfies the same
protocol, so every consumer — :class:`~repro.faults.universe.FaultUniverse`,
the experiment caches, the CLI — composes with it unchanged.  A build

1. cuts the fault list with a :class:`~repro.parallel.plan.ShardPlan`
   (deterministic, independent of the worker count),
2. satisfies shards from the persistent
   :class:`~repro.parallel.cache.ShardCache` where possible,
3. hands the remaining :class:`~repro.parallel.worker.ShardTask` s to a
   pluggable :class:`~repro.parallel.executors.ShardExecutor` — inline
   (this process), pool (a local ``ProcessPoolExecutor``), or tcp (a
   ``repro broker`` pushing shards to ``repro worker`` processes on any
   host),
4. joins the per-shard word bytes in shard order — the one place that
   decodes them — and applies ``drop_undetectable`` once, producing a
   table *bit-for-bit identical* to the base backend's single-process
   build (the parallel differential suite enforces this for every base
   engine × executor).

Fault-free line signatures are computed once in the parent and shipped
to every worker, so the sharded build never repeats the base
simulation.  ``jobs=`` stays as sugar: without an explicit executor,
``jobs=1`` runs inline (no pool, no pickling) and ``jobs>1`` selects a
pool — exactly the pre-protocol behavior, which is also the fallback
the CLI uses when ``--executor``/``--jobs`` are absent.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as _np

from repro import obs
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.faults.bridging import BridgingFault, four_way_bridging_faults
from repro.faults.stuck_at import StuckAtFault, collapsed_stuck_at_faults
from repro.faultsim.backends import DetectionBackend
from repro.faultsim.detection import DetectionTable
from repro.faultsim.sampling import VectorUniverse
from repro.logic.packed import WORD_BITS, PackedSignatureMatrix, words_for
from repro.parallel.cache import ShardCache, circuit_digest, shard_key
from repro.parallel.executors import (
    InlineExecutor,
    PoolExecutor,
    ShardExecutor,
)
from repro.parallel.plan import DEFAULT_NUM_SHARDS, ShardPlan
from repro.parallel.worker import ShardTask, payload_size


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: the explicit value, else ``REPRO_JOBS``, else 1.

    Malformed or non-positive values raise :class:`AnalysisError` (the
    CLI's friendly-exit path), never fall back silently.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS")
        if raw is None or raw == "":
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise AnalysisError(
                f"REPRO_JOBS must be a positive integer, got {raw!r}"
            ) from None
    if jobs < 1:
        raise AnalysisError(f"jobs must be >= 1, got {jobs}")
    return jobs


def maybe_parallel(
    backend: DetectionBackend,
    jobs: int,
    cache_dir: str | None = None,
    use_cache: bool = True,
    executor: ShardExecutor | None = None,
) -> DetectionBackend:
    """Wrap ``backend`` for ``jobs``/``executor``; identity when neither
    asks for anything (``jobs=1``, no executor).

    Already-parallel backends pass through (their own configuration
    wins), so layered configuration — explicit backend plus
    ``REPRO_JOBS``/``REPRO_EXECUTOR`` — never nests pools.  Backends
    that parallelize *internally* (the adaptive controller shards each
    growth round itself) expose ``with_execution``; the worker count and
    executor are injected there instead of wrapping — wrapping would
    re-run the whole controller once per fault shard.
    """
    if isinstance(backend, ParallelBackend):
        return backend
    if executor is None and jobs <= 1:
        return backend
    with_execution = getattr(backend, "with_execution", None)
    if with_execution is not None:
        return with_execution(jobs=jobs, executor=executor)
    return ParallelBackend(
        base=backend,
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        executor=executor,
    )


def _decode_rows(raw: bytearray, size: int) -> PackedSignatureMatrix:
    """Whole rows of little-endian words as a ``size``-bit matrix; a bit
    at a position ``>= size`` is refused, as ``from_bigints`` does."""
    num_words = words_for(size)
    words = _np.frombuffer(raw, dtype="<u8").reshape(-1, num_words)
    used = size - (num_words - 1) * WORD_BITS
    if used < WORD_BITS and (words[:, -1] >> _np.uint64(used)).any():
        raise AnalysisError(
            f"shard payload has bits beyond the {size}-bit universe"
        )
    return PackedSignatureMatrix(words, size)


@dataclass(frozen=True)
class ParallelBackend:
    """Sharded build of a base backend's tables on a pluggable executor.

    Parameters
    ----------
    base:
        Any non-parallel :class:`DetectionBackend`; fixes the vector
        universe, the engine, and the table type of the result.
    jobs:
        Executor-selection sugar when ``executor`` is None: 1 runs
        inline, >1 on a local pool of that many processes.
    shards:
        Shard count (default :data:`DEFAULT_NUM_SHARDS`).  Deliberately
        *not* defaulted from ``jobs``: a jobs-independent layout means
        runs with different ``--jobs`` (or different executors) share
        cache entries.
    cache_dir:
        Shard-cache directory override (default: ``REPRO_CACHE_DIR`` /
        the user cache dir, resolved at build time).
    use_cache:
        Disable the persistent cache entirely (benchmarks time real
        construction with this).
    executor:
        Explicit :class:`~repro.parallel.executors.ShardExecutor`
        (inline / pool / tcp); overrides the ``jobs`` sugar.
    """

    base: DetectionBackend
    jobs: int = 2
    shards: int | None = None
    cache_dir: str | None = None
    use_cache: bool = True
    executor: ShardExecutor | None = None
    name: str = "parallel"

    def __post_init__(self) -> None:
        if isinstance(self.base, ParallelBackend):
            raise AnalysisError(
                "parallel backends do not nest; wrap the innermost "
                "engine once"
            )
        if getattr(self.base, "with_execution", None) is not None:
            raise AnalysisError(
                f"the {getattr(self.base, 'name', '?')} backend "
                f"parallelizes internally; pass jobs=/executor= to it "
                f"(or use maybe_parallel) instead of wrapping it"
            )
        if self.jobs < 1:
            raise AnalysisError(f"jobs must be >= 1, got {self.jobs}")
        if self.shards is not None and self.shards < 1:
            raise AnalysisError(
                f"shards must be >= 1, got {self.shards}"
            )
        if self.executor is not None and not isinstance(
            self.executor, ShardExecutor
        ):
            raise AnalysisError(
                f"executor must implement ShardExecutor "
                f"(submit/describe), got {type(self.executor).__name__}"
            )

    # -- executor selection --------------------------------------------
    @property
    def resolved_executor(self) -> ShardExecutor:
        """The substrate this backend builds on (``jobs`` sugar applied)."""
        if self.executor is not None:
            return self.executor
        if self.jobs == 1:
            return InlineExecutor()
        return PoolExecutor(jobs=self.jobs)

    # -- protocol delegation -------------------------------------------
    @property
    def needs_base_signatures(self) -> bool:
        return getattr(self.base, "needs_base_signatures", True)

    def universe_for(self, circuit: Circuit) -> VectorUniverse:
        return self.base.universe_for(circuit)

    def line_signatures(self, circuit: Circuit) -> list[int]:
        return self.base.line_signatures(circuit)

    def build_stuck_at(
        self,
        circuit: Circuit,
        faults: list[StuckAtFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = False,
    ) -> DetectionTable:
        if faults is None:
            faults = collapsed_stuck_at_faults(circuit)
        return self._build(
            circuit, "stuck_at", list(faults), base_signatures,
            drop_undetectable,
        )

    def build_bridging(
        self,
        circuit: Circuit,
        faults: Sequence[BridgingFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = True,
    ) -> DetectionTable:
        if faults is None:
            faults = four_way_bridging_faults(circuit)
        return self._build(
            circuit, "bridging", list(faults), base_signatures,
            drop_undetectable,
        )

    # -- the sharded build ---------------------------------------------
    def _build(
        self,
        circuit: Circuit,
        kind: str,
        faults: list,
        base_signatures: list[int] | None,
        drop_undetectable: bool,
    ) -> DetectionTable:
        executor = self.resolved_executor
        tracer = obs.current_tracer()
        registry = obs.metrics()
        with tracer.span(
            "parallel_build",
            circuit=circuit.name,
            kind=kind,
            faults=len(faults),
            executor=executor.describe(),
        ) as build_span:
            universe = self.base.universe_for(circuit)
            if self.needs_base_signatures and base_signatures is None:
                base_signatures = self.base.line_signatures(circuit)
            shipped = (
                tuple(base_signatures) if base_signatures is not None else None
            )
            plan = ShardPlan(self.shards or DEFAULT_NUM_SHARDS)
            slices = plan.split(faults)
            cache = ShardCache(self.cache_dir) if self.use_cache else None
            # One structural hash per build, shared by every shard key.
            digest = circuit_digest(circuit) if cache is not None else ""
            expected = [
                payload_size(len(shard), universe.size) for shard in slices
            ]
            results: dict[int, bytes] = {}
            keys: dict[int, str] = {}
            pending: list[ShardTask] = []
            with tracer.span("cache_lookup", shards=len(slices)):
                for index, shard_faults in enumerate(slices):
                    if cache is not None:
                        key = shard_key(digest, self.base, kind, shard_faults)
                        keys[index] = key
                        cached = cache.get(key)
                        # A wrong-length entry is a miss; put overwrites it.
                        if (
                            cached is not None
                            and len(cached) == expected[index]
                        ):
                            results[index] = cached
                            continue
                    pending.append(
                        ShardTask(
                            circuit=circuit,
                            backend=self.base,
                            kind=kind,
                            faults=tuple(shard_faults),
                            base_signatures=shipped,
                            shard_index=index,
                            trace=build_span.remote(),
                        )
                    )
            hits = len(results)
            build_span.set(cache_hits=hits, cache_misses=len(pending))
            registry.counter(
                "repro_shard_cache_lookups_total",
                help="Per-shard cache probes during parallel builds",
                outcome="hit",
            ).inc(hits)
            registry.counter(
                "repro_shard_cache_lookups_total", outcome="miss"
            ).inc(len(pending))
            if pending:
                # Executors may complete out of order (the tcp executor
                # collects results as workers finish); reassembly goes by
                # the shard index each outcome carries.
                for index, words in executor.submit(pending):
                    if len(words) != expected[index]:
                        raise AnalysisError(
                            f"shard {index} returned {len(words)} bytes, "
                            f"not {expected[index]}"
                        )
                    results[index] = words
                    if cache is not None:
                        cache.put(keys[index], words)
            with tracer.span("merge", shards=len(slices)):
                # A bytearray keeps the words writable: ``from_rows``
                # compacts the matrix in place.
                joined = bytearray().join(
                    results[index] for index in range(len(slices))
                )
                table = DetectionTable.from_rows(
                    circuit,
                    faults,
                    _decode_rows(joined, universe.size),
                    universe,
                    drop_undetectable,
                )
        registry.counter(
            "repro_parallel_builds_total",
            help="Sharded table builds, by kind and executor",
            kind=kind,
            executor=executor.name,
        ).inc()
        return table
