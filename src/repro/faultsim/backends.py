"""Pluggable detection-table backends.

Every analysis in this library consumes a
:class:`~repro.faultsim.detection.DetectionTable`; a *backend* is a
strategy for building one.  Three engines are provided:

``exhaustive``
    The paper's analysis substrate: ``2**p``-bit signatures over all of
    ``U``.  Exact; capped at
    :data:`~repro.logic.bitops.MAX_EXHAUSTIVE_INPUTS` inputs.
``sampled``
    Monte-Carlo sampled-U engine: ``K`` seeded random vectors packed
    into ``K``-bit signatures (an explicit vector-index ↔ bit-index
    mapping carried by the table's
    :class:`~repro.faultsim.sampling.VectorUniverse`).  Popcounts become
    unbiased estimators of ``N(f)`` / ``M(g, f)`` with confidence
    intervals; the full-coverage draw (``K == 2**p``, without
    replacement) degenerates to the exact exhaustive result.  This is
    the engine that opens >24-input circuits to the worst-/average-case
    analyses.
``serial``
    Per-vector serial fault simulation — the deliberately independent
    slow path, used by the differential test harness to cross-validate
    the other two.
``packed``
    Numpy-packed engine: the exact same signatures as ``exhaustive``
    (or, with ``--samples``, as ``sampled``), stored additionally as
    ``numpy.uint64`` word blocks
    (:class:`~repro.faultsim.packed_table.PackedDetectionTable`) so the
    worst-case ``nmin`` scan runs as vectorized AND+popcount sweeps
    instead of per-pair big-int operations.  Bit-identical tables,
    hardware-speed popcounts.
``adaptive``
    The :class:`repro.adaptive.AdaptiveBackend` controller: instead of
    a fixed ``K`` it grows the sampled universe round by round until
    the smallest-``N(f)`` confidence intervals meet a target
    half-width, optionally with importance strata over rare bridging
    activation regions (``--stratify bridging``).
``fixed`` (:class:`FixedUniverseBackend`, API only)
    Packed tables over an explicit vector list — the adaptive
    controller's per-round delta engine; not exposed on the CLI.

Every engine but ``serial`` builds through the one table builder of
:mod:`repro.faultsim.detection`, which picks the PPSFP kernel or the
cone path from the universe's width alone.

Backends are small frozen dataclasses (hashable, so cached layers can
key on them) and share the :class:`DetectionBackend` protocol.  Any of
them can be wrapped by :class:`repro.parallel.ParallelBackend` (CLI:
``--jobs N`` / env ``REPRO_JOBS``), which shards the fault list, reuses
shards from a persistent on-disk cache, and merges a table bit-for-bit
identical to the single-process build — on a pluggable
:class:`repro.parallel.ShardExecutor` substrate (CLI: ``--executor
inline|pool|tcp`` / env ``REPRO_EXECUTOR``; the tcp executor
distributes shards through a ``repro broker`` at ``REPRO_BROKER`` to
``repro worker --broker`` processes on any host).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Protocol, runtime_checkable

from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.faults.bridging import BridgingFault, four_way_bridging_faults
from repro.faults.stuck_at import StuckAtFault, collapsed_stuck_at_faults
from repro.faultsim.detection import (
    DetectionTable,
    universe_line_signatures,
)
from repro.faultsim.packed_table import PackedDetectionTable
from repro.faultsim.sampling import VectorUniverse, draw_universe
from repro.logic.bitops import MAX_EXHAUSTIVE_INPUTS

#: Names accepted by :func:`make_backend` (and the CLI ``--backend`` flag).
BACKEND_NAMES: tuple[str, ...] = (
    "exhaustive",
    "sampled",
    "serial",
    "packed",
    "adaptive",
)


@runtime_checkable
class DetectionBackend(Protocol):
    """Strategy for building detection tables over a vector universe.

    ``needs_base_signatures`` tells callers whether the ``build_*``
    methods consume precomputed :meth:`line_signatures` — engines that
    ignore them (serial) advertise False so callers skip the work.
    Engines whose tables are numpy-packed advertise ``builds_packed =
    True`` so wrappers (the parallel merge step) reproduce the right
    table type.
    """

    name: str
    needs_base_signatures: bool

    def universe_for(self, circuit: Circuit) -> VectorUniverse:
        """The signature bit space this backend uses for ``circuit``."""

    def line_signatures(self, circuit: Circuit) -> list[int]:
        """Fault-free line signatures over :meth:`universe_for`'s space."""

    def build_stuck_at(
        self,
        circuit: Circuit,
        faults: list[StuckAtFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = False,
    ) -> DetectionTable:
        """Detection table for the target stuck-at set ``F``."""

    def build_bridging(
        self,
        circuit: Circuit,
        faults: list[BridgingFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = True,
    ) -> DetectionTable:
        """Detection table for the untargeted bridging set ``G``."""


# ----------------------------------------------------------------------
# Exhaustive (the seed engine, now one strategy among three)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExhaustiveBackend:
    """Exact tables over all of ``U`` (bit ``v`` ↔ vector ``v``)."""

    name: str = "exhaustive"
    needs_base_signatures = True

    def universe_for(self, circuit: Circuit) -> VectorUniverse:
        return VectorUniverse(circuit.num_inputs)

    def line_signatures(self, circuit: Circuit) -> list[int]:
        return universe_line_signatures(circuit, self.universe_for(circuit))

    def build_stuck_at(
        self,
        circuit: Circuit,
        faults: list[StuckAtFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = False,
    ) -> DetectionTable:
        return DetectionTable.for_stuck_at(
            circuit,
            faults=faults,
            base_signatures=base_signatures,
            drop_undetectable=drop_undetectable,
        )

    def build_bridging(
        self,
        circuit: Circuit,
        faults: list[BridgingFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = True,
    ) -> DetectionTable:
        return DetectionTable.for_bridging(
            circuit,
            faults=faults,
            base_signatures=base_signatures,
            drop_undetectable=drop_undetectable,
        )


# ----------------------------------------------------------------------
# Sampled-U (Monte-Carlo estimation; breaks the 24-input cap)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SampledBackend:
    """Estimated tables over ``K`` seeded random vectors.

    Parameters
    ----------
    samples:
        ``K`` — number of vectors to draw.
    seed:
        RNG seed; equal seeds reproduce the universe (and therefore the
        tables) exactly.
    replacement:
        Draw with replacement (default False: uniform ``K``-subset of
        ``U``, which tightens the confidence intervals via the
        finite-population correction and degenerates to the exhaustive
        result at ``K == 2**p``).
    """

    samples: int
    seed: int = 0
    replacement: bool = False
    name: str = "sampled"
    needs_base_signatures = True

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise AnalysisError(
                f"samples must be >= 1, got {self.samples}"
            )

    def universe_for(self, circuit: Circuit) -> VectorUniverse:
        # Memoized: one FaultUniverse calls this for line signatures and
        # both table builds, and a large draw (sample + sort of K ints)
        # is too expensive to repeat three times.
        return _drawn_universe(
            circuit.num_inputs, self.samples, self.seed, self.replacement
        )

    def line_signatures(self, circuit: Circuit) -> list[int]:
        return universe_line_signatures(circuit, self.universe_for(circuit))

    def build_stuck_at(
        self,
        circuit: Circuit,
        faults: list[StuckAtFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = False,
    ) -> DetectionTable:
        return DetectionTable.for_stuck_at(
            circuit,
            faults=faults,
            base_signatures=base_signatures,
            drop_undetectable=drop_undetectable,
            universe=self.universe_for(circuit),
        )

    def build_bridging(
        self,
        circuit: Circuit,
        faults: list[BridgingFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = True,
    ) -> DetectionTable:
        return DetectionTable.for_bridging(
            circuit,
            faults=faults,
            base_signatures=base_signatures,
            drop_undetectable=drop_undetectable,
            universe=self.universe_for(circuit),
        )


# ----------------------------------------------------------------------
# Packed (numpy uint64 blocks; vectorized popcounts for the nmin scan)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PackedBackend:
    """Exact-or-sampled tables stored as numpy-packed signature blocks.

    Without ``samples`` the universe is the exhaustive one (same cap as
    the exhaustive engine); with ``samples`` it is the same seeded draw
    the sampled engine uses.  Either way the tables are bit-identical to
    the corresponding big-int engine's — only the storage (and the speed
    of every popcount-heavy query) changes.
    """

    samples: int | None = None
    seed: int = 0
    replacement: bool = False
    name: str = "packed"
    needs_base_signatures = True
    builds_packed = True

    def __post_init__(self) -> None:
        if self.samples is None:
            # Exhaustive universe: seed/replacement are meaningless.
            # Canonicalize them so equivalent backends share one cache
            # key in the experiment layer (tables weigh hundreds of MB).
            object.__setattr__(self, "seed", 0)
            object.__setattr__(self, "replacement", False)
        elif self.samples < 1:
            raise AnalysisError(
                f"samples must be >= 1, got {self.samples}"
            )

    def universe_for(self, circuit: Circuit) -> VectorUniverse:
        if self.samples is None:
            if circuit.num_inputs > MAX_EXHAUSTIVE_INPUTS:
                raise AnalysisError(
                    f"the packed backend without --samples is exhaustive "
                    f"and capped at {MAX_EXHAUSTIVE_INPUTS} inputs "
                    f"(circuit {circuit.name!r} has {circuit.num_inputs}); "
                    f"pass --samples K to sample the universe"
                )
            return VectorUniverse(circuit.num_inputs)
        return _drawn_universe(
            circuit.num_inputs, self.samples, self.seed, self.replacement
        )

    def line_signatures(self, circuit: Circuit) -> list[int]:
        return universe_line_signatures(circuit, self.universe_for(circuit))

    def build_stuck_at(
        self,
        circuit: Circuit,
        faults: list[StuckAtFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = False,
    ) -> DetectionTable:
        return PackedDetectionTable.for_stuck_at(
            circuit,
            faults=faults,
            base_signatures=base_signatures,
            drop_undetectable=drop_undetectable,
            universe=self.universe_for(circuit),
        )

    def build_bridging(
        self,
        circuit: Circuit,
        faults: list[BridgingFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = True,
    ) -> DetectionTable:
        return PackedDetectionTable.for_bridging(
            circuit,
            faults=faults,
            base_signatures=base_signatures,
            drop_undetectable=drop_undetectable,
            universe=self.universe_for(circuit),
        )


# ----------------------------------------------------------------------
# Fixed-universe (explicit vector list; the adaptive controller's
# per-round delta engine)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FixedUniverseBackend:
    """Tables over an *explicit* list of vectors, not a seeded draw.

    The adaptive sampling controller grows its universe round by round;
    each round builds signatures for only the freshly drawn vectors.
    This backend is that delta engine: it fixes the universe to the
    given (sorted, distinct) vectors and builds through the exact same
    table machinery as the sampled engine — so it composes unchanged
    with :class:`repro.parallel.ParallelBackend` (sharded builds, shard
    cache).  Its tables are always numpy-packed: the controller splices
    their word columns into its accumulated matrices.

    It is a frozen, picklable dataclass like every other engine; the
    vectors tuple participates in equality/hashing, so cache layers key
    on the exact universe.
    """

    num_inputs: int
    vectors: tuple[int, ...]
    name: str = "fixed"
    needs_base_signatures = True
    builds_packed = True

    def __post_init__(self) -> None:
        if not self.vectors:
            raise AnalysisError(
                "a fixed-universe backend needs at least 1 vector"
            )
        # Validate sortedness/range once, eagerly (VectorUniverse would
        # only catch it at build time, far from the mistake).
        self.universe

    @property
    def universe(self) -> VectorUniverse:
        return VectorUniverse(self.num_inputs, self.vectors)

    def universe_for(self, circuit: Circuit) -> VectorUniverse:
        if circuit.num_inputs != self.num_inputs:
            raise AnalysisError(
                f"fixed universe is over {self.num_inputs} inputs but "
                f"circuit {circuit.name!r} has {circuit.num_inputs}"
            )
        return self.universe

    def line_signatures(self, circuit: Circuit) -> list[int]:
        return universe_line_signatures(circuit, self.universe_for(circuit))

    def build_stuck_at(
        self,
        circuit: Circuit,
        faults: list[StuckAtFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = False,
    ) -> DetectionTable:
        return PackedDetectionTable.for_stuck_at(
            circuit,
            faults=faults,
            base_signatures=base_signatures,
            drop_undetectable=drop_undetectable,
            universe=self.universe_for(circuit),
        )

    def build_bridging(
        self,
        circuit: Circuit,
        faults: list[BridgingFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = True,
    ) -> DetectionTable:
        return PackedDetectionTable.for_bridging(
            circuit,
            faults=faults,
            base_signatures=base_signatures,
            drop_undetectable=drop_undetectable,
            universe=self.universe_for(circuit),
        )


@lru_cache(maxsize=32)
def _drawn_universe(
    num_inputs: int, samples: int, seed: int, replacement: bool
) -> VectorUniverse:
    """Deterministic draw, shared across a backend's table builds."""
    return draw_universe(
        num_inputs, samples, seed=seed, replacement=replacement
    )


# ----------------------------------------------------------------------
# Serial (independent per-vector slow path, for cross-validation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SerialBackend:
    """Exact tables via the per-vector serial engine.

    Shares *no* signature machinery with the exhaustive engine (every
    table bit is two full per-vector simulations), which is what makes it
    useful as the differential-testing reference.  Far too slow beyond
    toy circuits; capped accordingly.
    """

    name: str = "serial"
    max_inputs: int = 16
    needs_base_signatures = False

    def universe_for(self, circuit: Circuit) -> VectorUniverse:
        self._check(circuit)
        return VectorUniverse(circuit.num_inputs)

    def _check(self, circuit: Circuit) -> None:
        if circuit.num_inputs > self.max_inputs:
            raise AnalysisError(
                f"serial backend is capped at {self.max_inputs} inputs "
                f"(circuit {circuit.name!r} has {circuit.num_inputs}); "
                f"use --backend sampled"
            )

    def line_signatures(self, circuit: Circuit) -> list[int]:
        from repro.simulation.twoval import simulate_vector

        self._check(circuit)
        sigs = [0] * len(circuit.lines)
        for v in range(1 << circuit.num_inputs):
            values = simulate_vector(circuit, v)
            for lid, val in enumerate(values):
                if val:
                    sigs[lid] |= 1 << v
        return sigs

    def _build(
        self,
        circuit: Circuit,
        faults: list,
        drop_undetectable: bool,
    ) -> DetectionTable:
        from repro.faultsim.serial import detects

        self._check(circuit)
        space = 1 << circuit.num_inputs
        table = []
        for fault in faults:
            sig = 0
            for v in range(space):
                if detects(circuit, fault, v):
                    sig |= 1 << v
            table.append(sig)
        if drop_undetectable:
            kept = [(f, t) for f, t in zip(faults, table, strict=True) if t]
            faults = [f for f, _ in kept]
            table = [t for _, t in kept]
        return DetectionTable(circuit, list(faults), table)

    def build_stuck_at(
        self,
        circuit: Circuit,
        faults: list[StuckAtFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = False,
    ) -> DetectionTable:
        if faults is None:
            faults = collapsed_stuck_at_faults(circuit)
        return self._build(circuit, list(faults), drop_undetectable)

    def build_bridging(
        self,
        circuit: Circuit,
        faults: list[BridgingFault] | None = None,
        base_signatures: list[int] | None = None,
        drop_undetectable: bool = True,
    ) -> DetectionTable:
        if faults is None:
            faults = four_way_bridging_faults(circuit)
        return self._build(circuit, list(faults), drop_undetectable)


def make_backend(
    name: str,
    samples: int | None = None,
    seed: int = 0,
    replacement: bool = False,
    jobs: int | None = None,
    *,
    executor: "str | object | None" = None,
    broker: str | None = None,
    target_halfwidth: float | None = None,
    confidence: float | None = None,
    max_samples: int | None = None,
    initial_samples: int | None = None,
    stratify: str | None = None,
) -> DetectionBackend:
    """Backend factory behind the CLI / env configuration.

    ``samples`` is required for ``sampled``, optional for ``packed``
    (which is exhaustive without it), and meaningless elsewhere.
    ``jobs > 1`` wraps the engine in a
    :class:`repro.parallel.ParallelBackend` (sharded build with the
    persistent shard cache); ``jobs=1``/``None`` stays single-process.
    ``executor`` selects the shard execution substrate explicitly — an
    :class:`repro.parallel.ShardExecutor` instance or one of the names
    ``inline``/``pool``/``tcp`` (``broker`` locates the ``HOST:PORT``
    for ``tcp``) — and overrides the ``jobs`` sugar.  The
    remaining keyword-only parameters configure the ``adaptive`` engine
    (:class:`repro.adaptive.AdaptiveBackend`): target CI half-width,
    confidence, sample budget, initial draw, and the stratification
    scheme (``None``/``"none"`` or ``"bridging"``); for adaptive,
    ``jobs``/``executor`` are threaded *into* the controller's sharded
    round builds instead of wrapping the backend.
    """
    adaptive_flags = {
        "--target-halfwidth": target_halfwidth,
        "--max-samples": max_samples,
        "--initial-samples": initial_samples,
        "--stratify": None if stratify in (None, "none") else stratify,
    }
    if name != "adaptive":
        bad = [flag for flag, value in adaptive_flags.items()
               if value is not None]
        if bad:
            raise AnalysisError(
                f"{', '.join(bad)} only appl"
                f"{'y' if len(bad) > 1 else 'ies'} to --backend adaptive "
                f"(got --backend {name})"
            )
    if name == "exhaustive":
        backend: DetectionBackend = ExhaustiveBackend()
    elif name == "serial":
        backend = SerialBackend()
    elif name == "packed":
        backend = PackedBackend(
            samples=samples, seed=seed, replacement=replacement
        )
    elif name == "sampled":
        if samples is None:
            raise AnalysisError(
                "--backend sampled requires --samples K (the number of "
                "random vectors to draw)"
            )
        backend = SampledBackend(samples, seed=seed, replacement=replacement)
    elif name == "adaptive":
        if samples is not None:
            raise AnalysisError(
                "--backend adaptive sizes its own draw round by round; "
                "use --max-samples (budget) and --initial-samples "
                "instead of --samples"
            )
        if replacement:
            raise AnalysisError(
                "--backend adaptive always samples without replacement "
                "(rounds extend one growing distinct-vector universe)"
            )
        from repro.adaptive import AdaptiveBackend, DEFAULT_RULE

        backend = AdaptiveBackend(
            target_halfwidth=(
                DEFAULT_RULE.target_halfwidth
                if target_halfwidth is None
                else target_halfwidth
            ),
            confidence=(
                DEFAULT_RULE.confidence if confidence is None else confidence
            ),
            initial_samples=(
                DEFAULT_RULE.initial_samples
                if initial_samples is None
                else initial_samples
            ),
            max_samples=(
                DEFAULT_RULE.max_samples
                if max_samples is None
                else max_samples
            ),
            seed=seed,
            stratify=adaptive_flags["--stratify"],
        )
    else:
        raise AnalysisError(
            f"unknown backend {name!r}; choose from "
            f"{', '.join(BACKEND_NAMES)}"
        )
    exec_obj = executor
    if isinstance(executor, str):
        from repro.parallel import make_executor

        exec_obj = make_executor(executor, jobs=jobs, broker=broker)
    elif broker is not None:
        raise AnalysisError("broker only applies with executor='tcp'")
    if exec_obj is not None or (jobs is not None and jobs != 1):
        from repro.parallel import maybe_parallel, resolve_jobs

        backend = maybe_parallel(
            backend, resolve_jobs(jobs), executor=exec_obj
        )
    return backend


def table_identity(
    backend: DetectionBackend | None,
) -> DetectionBackend | None:
    """Canonical key for "which tables does this backend produce?".

    Two canonicalizations: the default and explicit exhaustive collide
    (both map to ``None``), and a parallel wrapper collides with its
    base (the sharded build is bit-for-bit identical — only
    construction speed differs).  Keys are therefore executor-
    normalized too: a broker-distributed build, a local pool build, and
    an inline build of the same engine share one cache entry.  The
    adaptive backend needs no special case here: its ``jobs`` /
    ``executor`` fields are excluded from equality, so differently-
    executed adaptive runs already share one key.  Both the experiment
    LRUs and the serve hot tier key on this.
    """
    if backend is None:
        return None
    from repro.parallel.backend import ParallelBackend

    if isinstance(backend, ParallelBackend):
        backend = backend.base
    if backend == ExhaustiveBackend():
        return None
    return backend


def default_backend_for(circuit: Circuit, samples: int = 1 << 14,
                        seed: int = 0) -> DetectionBackend:
    """Exhaustive when the circuit fits under the cap, else sampled."""
    if circuit.num_inputs <= MAX_EXHAUSTIVE_INPUTS:
        return ExhaustiveBackend()
    return SampledBackend(min(samples, 1 << MAX_EXHAUSTIVE_INPUTS), seed=seed)
