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

A shard is a slice of the build's fault array, so a build makes no
fault object, and the merged table's faults are an inline build's
array type.  A shard task carries no fault-free values: each worker
simulates the base words of the universe its backend names (a few
milliseconds per shard), so a task stays kilobytes at any width.
The one execution setting is ``ParallelBackend(base, executor=...)``;
the front ends derive that executor from ``--jobs``/``--executor`` in
:func:`repro.options.executor_from_options`, and
:func:`maybe_parallel` wraps a base only when there is one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ClassVar

import numpy as _np

from repro import obs
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.faults.bridging import BridgingFault, BridgingFaults
from repro.faults.stuck_at import StuckAtFault, StuckAtFaults
from repro.faultsim.backends import DetectionBackend
from repro.faultsim.detection import DetectionTable
from repro.faultsim.sampling import VectorUniverse
from repro.logic.packed import WORD_BITS, PackedSignatureMatrix, words_for
from repro.parallel.cache import ShardCache, circuit_digest, shard_key
from repro.parallel.executors import PoolExecutor, ShardExecutor
from repro.parallel.plan import DEFAULT_NUM_SHARDS, ShardPlan
from repro.parallel.worker import ShardTask, payload_size
from repro.simulation.ppsfp import packed_line_words

if TYPE_CHECKING:
    from repro.faults.arrays import FaultArray
    from repro.logic.packed import U64Array


def maybe_parallel(
    backend: DetectionBackend,
    executor: ShardExecutor | None,
    *,
    use_cache: bool = True,
) -> DetectionBackend:
    """``backend`` building on ``executor``; identity when it is None.

    Already-parallel backends pass through (their own executor wins),
    so layered configuration never nests pools.  Backends that
    parallelize *internally* (the adaptive controller shards each
    growth round itself) expose ``with_execution``; the executor is
    injected there instead of wrapping — wrapping would re-run the
    whole controller once per fault shard.
    """
    if executor is None or isinstance(backend, ParallelBackend):
        return backend
    with_execution = getattr(backend, "with_execution", None)
    if with_execution is not None:
        return with_execution(executor)
    return ParallelBackend(backend, executor=executor, use_cache=use_cache)


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
    executor:
        The :class:`~repro.parallel.executors.ShardExecutor` the
        pending shards run on (inline / pool / tcp; default a pool of
        two processes).
    shards:
        Shard count (default :data:`DEFAULT_NUM_SHARDS`).  Deliberately
        independent of the executor: one layout means runs on any
        executor, with any ``--jobs``, share cache entries.
    cache_dir:
        Shard-cache directory override (default: ``REPRO_CACHE_DIR`` /
        the user cache dir, resolved at build time).
    use_cache:
        Disable the persistent cache entirely (benchmarks time real
        construction with this).
    """

    base: DetectionBackend
    executor: ShardExecutor = PoolExecutor()
    shards: int | None = None
    cache_dir: str | None = None
    use_cache: bool = True
    name: ClassVar[str] = "parallel"

    def __post_init__(self) -> None:
        if isinstance(self.base, ParallelBackend):
            raise AnalysisError(
                "parallel backends do not nest; wrap the innermost "
                "engine once"
            )
        if getattr(self.base, "with_execution", None) is not None:
            raise AnalysisError(
                f"the {getattr(self.base, 'name', '?')} backend "
                f"parallelizes internally; pass executor= to it "
                f"(or use maybe_parallel) instead of wrapping it"
            )
        if self.shards is not None and self.shards < 1:
            raise AnalysisError(
                f"shards must be >= 1, got {self.shards}"
            )
        # Duck-typed: a runtime Protocol isinstance check costs tens of
        # microseconds, and the service builds a backend per request.
        if not all(
            callable(getattr(self.executor, method, None))
            for method in ("submit", "describe")
        ):
            raise AnalysisError(
                f"executor must implement ShardExecutor "
                f"(submit/describe), got {type(self.executor).__name__}"
            )

    # -- protocol delegation -------------------------------------------
    def universe_for(self, circuit: Circuit) -> VectorUniverse:
        return self.base.universe_for(circuit)

    def line_signatures(self, circuit: Circuit) -> U64Array:
        """Fault-free base word rows (``ppsfp.packed_line_words``).

        A benchmark layer hook: shard builds simulate their own base.
        """
        return packed_line_words(circuit, self.universe_for(circuit))

    def build_stuck_at(
        self,
        circuit: Circuit,
        faults: Sequence[StuckAtFault] | None = None,
        drop_undetectable: bool = False,
    ) -> DetectionTable:
        return self._build(
            circuit, StuckAtFaults.for_circuit(circuit, faults),
            drop_undetectable,
        )

    def build_bridging(
        self,
        circuit: Circuit,
        faults: Sequence[BridgingFault] | None = None,
        drop_undetectable: bool = True,
    ) -> DetectionTable:
        return self._build(
            circuit, BridgingFaults.for_circuit(circuit, faults),
            drop_undetectable,
        )

    # -- the sharded build ---------------------------------------------
    def _build(
        self,
        circuit: Circuit,
        faults: FaultArray[Any],
        drop_undetectable: bool,
    ) -> DetectionTable:
        kind = faults.kind
        executor = self.executor
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
                            faults=shard_faults,
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
