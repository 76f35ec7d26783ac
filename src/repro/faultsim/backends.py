"""Pluggable detection-table backends.

Every analysis in this library consumes a
:class:`~repro.faultsim.detection.DetectionTable`; a *backend* is a
strategy for building one.  One class builds every table:
:class:`TableBackend`, parameterized by its vector universe (all of
``U``, a seeded ``K``-vector draw, or an explicit vector list).  Each
table goes through the one builder of :mod:`repro.faultsim.detection`,
the PPSFP kernel; every table stores its rows as ``numpy.uint64``
words.  The CLI names
(:func:`make_backend`, ``--backend``) are constructors:

``exhaustive`` → ``TableBackend()``
    The paper's analysis substrate: ``2**p``-bit signatures over all of
    ``U``.  Exact; capped at
    :data:`~repro.logic.bitops.MAX_EXHAUSTIVE_INPUTS` inputs.
``sampled`` → ``TableBackend(samples=K, seed=..., replacement=...)``
    Monte-Carlo sampled-U engine: ``K`` seeded random vectors packed
    into ``K``-bit signatures (an explicit vector-index ↔ bit-index
    mapping carried by the table's
    :class:`~repro.faultsim.sampling.VectorUniverse`).  Popcounts become
    unbiased estimators of ``N(f)`` / ``M(g, f)`` with confidence
    intervals; the full-coverage draw (``K == 2**p``, without
    replacement) degenerates to the exact exhaustive result.  This is
    the engine that opens >24-input circuits to the worst-/average-case
    analyses.
``serial`` → :class:`SerialBackend`
    Per-vector serial fault simulation — the deliberately independent
    slow path and the one oracle of the PPSFP kernel, used by the
    differential test harness to cross-validate the table builder.
``adaptive`` → :class:`repro.adaptive.AdaptiveBackend`
    Instead of a fixed ``K`` it grows the sampled universe round by
    round until the smallest-``N(f)`` confidence intervals meet a
    target half-width, optionally with importance strata over rare
    bridging activation regions (``--stratify bridging``).  Each
    round's delta builds through ``TableBackend(vectors=...)`` (API
    only; its ``name`` is ``fixed``).

Backends are small frozen dataclasses (hashable, so cached layers can
key on them) and share the :class:`DetectionBackend` protocol.  Any of
them can be wrapped by ``ParallelBackend(base, executor=...)``
(:class:`repro.parallel.ParallelBackend`), which shards the fault
list, reuses shards from a persistent on-disk cache, and merges a
table bit-for-bit identical to the single-process build — on the one
:class:`repro.parallel.ShardExecutor` it is given: inline, a local
pool, or tcp (shards distributed through a ``repro broker`` to
``repro worker --broker`` processes on any host).  The front ends
resolve ``--jobs``/``--executor`` and ``REPRO_JOBS``/``REPRO_EXECUTOR``
into that executor once (:func:`repro.options.executor_from_options`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, ClassVar, Protocol, runtime_checkable

from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.faults.bridging import BridgingFault, BridgingFaults
from repro.faults.stuck_at import StuckAtFault, StuckAtFaults
from repro.faultsim.detection import DetectionTable
from repro.faultsim.sampling import VectorUniverse, draw_universe
from repro.logic.bitops import MAX_EXHAUSTIVE_INPUTS

if TYPE_CHECKING:
    from repro.faults.arrays import FaultArray
    from repro.logic.packed import U64Array
    from repro.parallel.executors import ShardExecutor

#: Names accepted by :func:`make_backend` (and the CLI ``--backend`` flag).
BACKEND_NAMES: tuple[str, ...] = (
    "exhaustive",
    "sampled",
    "serial",
    "adaptive",
)


@runtime_checkable
class DetectionBackend(Protocol):
    """Strategy for building detection tables over a vector universe."""

    @property
    def name(self) -> str:
        """The engine's name, as in :data:`BACKEND_NAMES` (or ``fixed``)."""

    def universe_for(self, circuit: Circuit) -> VectorUniverse:
        """The signature bit space this backend uses for ``circuit``."""

    def build_stuck_at(
        self,
        circuit: Circuit,
        faults: Sequence[StuckAtFault] | None = None,
        drop_undetectable: bool = False,
    ) -> DetectionTable:
        """Detection table for the target stuck-at set ``F``."""

    def build_bridging(
        self,
        circuit: Circuit,
        faults: Sequence[BridgingFault] | None = None,
        drop_undetectable: bool = True,
    ) -> DetectionTable:
        """Detection table for the untargeted bridging set ``G``."""


@dataclass(frozen=True)
class TableBackend:
    """Detection tables over one vector universe.

    The universe is the first of these that is set:

    ``vectors``
        An explicit sorted, distinct vector list — the adaptive
        controller's per-round delta universe (range and order are
        checked against the circuit's width at build time).
    ``samples``
        ``K`` seeded random vectors: ``seed`` reproduces the draw
        exactly, ``replacement`` draws with replacement (default: a
        uniform ``K``-subset of ``U``, which tightens the confidence
        intervals via the finite-population correction and degenerates
        to the exhaustive result at ``K == 2**p``).
    neither
        All of ``U`` (bit ``v`` ↔ vector ``v``), capped at
        :data:`~repro.logic.bitops.MAX_EXHAUSTIVE_INPUTS` inputs.
    """

    samples: int | None = None
    seed: int = 0
    replacement: bool = False
    vectors: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.vectors is not None:
            if self.samples is not None:
                raise AnalysisError(
                    "a table backend takes explicit vectors or samples, "
                    "not both"
                )
            if not self.vectors:
                raise AnalysisError(
                    "a fixed-universe backend needs at least 1 vector"
                )
        elif self.samples is not None and self.samples < 1:
            raise AnalysisError(
                f"samples must be >= 1, got {self.samples}"
            )
        if self.samples is None:
            # No draw: seed/replacement are meaningless.  Canonicalize
            # them so equivalent backends share one cache key (the CLI
            # always passes its --seed default).
            object.__setattr__(self, "seed", 0)
            object.__setattr__(self, "replacement", False)

    @property
    def name(self) -> str:
        if self.vectors is not None:
            return "fixed"
        return "exhaustive" if self.samples is None else "sampled"

    def universe_for(self, circuit: Circuit) -> VectorUniverse:
        if self.vectors is not None:
            return VectorUniverse(circuit.num_inputs, self.vectors)
        if self.samples is not None:
            # Memoized: one FaultUniverse calls this for both table
            # builds, and a large draw (sample + sort of K ints) is too
            # expensive to repeat.
            return _drawn_universe(
                circuit.num_inputs, self.samples, self.seed, self.replacement
            )
        if circuit.num_inputs > MAX_EXHAUSTIVE_INPUTS:
            raise AnalysisError(
                f"the exhaustive universe is capped at "
                f"{MAX_EXHAUSTIVE_INPUTS} inputs (circuit {circuit.name!r} "
                f"has {circuit.num_inputs}); pass --samples K to sample "
                f"the universe"
            )
        return VectorUniverse(circuit.num_inputs)

    def line_signatures(self, circuit: Circuit) -> U64Array:
        """Fault-free base word rows (``ppsfp.packed_line_words``).

        A benchmark layer hook: table builds simulate their own base.
        """
        from repro.simulation.ppsfp import packed_line_words

        return packed_line_words(circuit, self.universe_for(circuit))

    def build_stuck_at(
        self,
        circuit: Circuit,
        faults: Sequence[StuckAtFault] | None = None,
        drop_undetectable: bool = False,
    ) -> DetectionTable:
        return DetectionTable.for_stuck_at(
            circuit,
            faults=faults,
            drop_undetectable=drop_undetectable,
            universe=self.universe_for(circuit),
        )

    def build_bridging(
        self,
        circuit: Circuit,
        faults: Sequence[BridgingFault] | None = None,
        drop_undetectable: bool = True,
    ) -> DetectionTable:
        return DetectionTable.for_bridging(
            circuit,
            faults=faults,
            drop_undetectable=drop_undetectable,
            universe=self.universe_for(circuit),
        )


# The benchmark's layer hooks (``perfbench/layers.py``) name the table
# engine by these two former class names.
ExhaustiveBackend = FixedUniverseBackend = TableBackend


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

    Shares *no* signature machinery with the PPSFP kernel (one
    fault-free simulation per vector, one faulty simulation per table
    bit), which is what makes it useful as the differential-testing
    reference.  Far too slow beyond toy circuits; capped accordingly.
    """

    name: ClassVar[str] = "serial"
    max_inputs: int = 16

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

    def _build(
        self,
        circuit: Circuit,
        faults: FaultArray[Any],
        drop_undetectable: bool,
    ) -> DetectionTable:
        from repro.faultsim.serial import detection_sets

        self._check(circuit)
        signatures = detection_sets(
            circuit, faults, range(1 << circuit.num_inputs)
        )
        return DetectionTable.from_signatures(
            circuit, faults, signatures,
            drop_undetectable=drop_undetectable,
        )

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


def spell_flag(dest: str, value: object = None) -> str:
    """An option as its command-line flag (``--dest value``)."""
    flag = "--" + dest.replace("_", "-")
    return flag if value is None else f"{flag} {value}"


def make_backend(
    name: str,
    samples: int | None = None,
    seed: int = 0,
    replacement: bool = False,
    *,
    executor: "ShardExecutor | None" = None,
    target_halfwidth: float | None = None,
    confidence: float | None = None,
    max_samples: int | None = None,
    initial_samples: int | None = None,
    stratify: str | None = None,
    spell: Callable[..., str] = spell_flag,
) -> DetectionBackend:
    """Backend factory behind the CLI / env configuration.

    ``samples`` is required for ``sampled`` and rejected elsewhere, as
    is ``replacement``: the CLI, env and service front ends share these
    checks, and ``spell(dest, value=None)`` names an option in their
    errors as the front end writes it.  ``exhaustive`` and ``sampled``
    both build a :class:`TableBackend`.
    An ``executor`` (a :class:`repro.parallel.ShardExecutor`, which
    :func:`repro.options.executor_from_options` resolves from the
    front ends' settings) makes the engine build on it through
    :func:`repro.parallel.maybe_parallel`: wrapped in a sharded
    :class:`repro.parallel.ParallelBackend`, or for adaptive threaded
    *into* the controller's round builds; None stays single-process.
    The remaining keyword-only parameters configure the ``adaptive``
    engine (:class:`repro.adaptive.AdaptiveBackend`): target CI
    half-width, confidence, sample budget, initial draw, and the
    stratification scheme (``None``/``"none"`` or ``"bridging"``).
    """
    if name not in BACKEND_NAMES:
        raise AnalysisError(
            f"unknown backend {name!r}; choose from "
            f"{', '.join(BACKEND_NAMES)}"
        )
    def misplaced(dests: list[str], backend: str, hint: str = "") -> None:
        """Reject the options ``dests`` when set for a non-``backend``."""
        if dests:
            raise AnalysisError(
                f"{', '.join(map(spell, dests))} only appl"
                f"{'y' if len(dests) > 1 else 'ies'} to "
                f"{spell('backend', backend)} (got {spell('backend', name)})"
                f"{hint if name == 'adaptive' else ''}"
            )

    if name != "sampled":
        misplaced(
            ["samples"] if samples is not None else [], "sampled",
            f"; the adaptive backend sizes its own draw — use "
            f"{spell('max_samples')} for the budget",
        )
        misplaced(
            ["replacement"] if replacement else [], "sampled",
            "; the adaptive backend always samples without replacement",
        )
    adaptive_options = {
        "target_halfwidth": target_halfwidth,
        "max_samples": max_samples,
        "initial_samples": initial_samples,
        "stratify": None if stratify in (None, "none") else stratify,
    }
    if name != "adaptive":
        set_here = [d for d, v in adaptive_options.items() if v is not None]
        misplaced(set_here, "adaptive")
    if name == "sampled" and samples is None:
        raise AnalysisError(
            f"{spell('backend', 'sampled')} requires {spell('samples')} "
            f"K (the number of random vectors to draw)"
        )
    backend: DetectionBackend
    if name == "serial":
        backend = SerialBackend()
    elif name == "adaptive":
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
            stratify=adaptive_options["stratify"],
        )
    else:
        backend = TableBackend(
            samples=samples,
            seed=seed,
            replacement=replacement,
        )
    from repro.parallel import maybe_parallel

    return maybe_parallel(backend, executor)


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
    adaptive backend needs no special case here: its ``executor``
    field is excluded from equality, so differently-executed adaptive
    runs already share one key.  Both the experiment LRUs and the serve
    hot tier key on this.
    """
    if backend is None:
        return None
    from repro.parallel.backend import ParallelBackend

    if isinstance(backend, ParallelBackend):
        backend = backend.base
    if backend == TableBackend():
        return None
    return backend

