"""``AdaptiveBackend``: the controller behind the backend protocol.

The adaptive controller inherently couples the two table builds — one
growth trajectory serves both ``F`` and ``G`` — while the
:class:`~repro.faultsim.backends.DetectionBackend` protocol asks for
them one at a time.  The backend therefore runs the controller once per
circuit (memoized on the instance) and serves both builds and the
final universe from the same
:class:`~repro.adaptive.controller.AdaptiveReport`.

Parallelism is *internal*: each growth round shards its delta build
through :class:`~repro.parallel.ParallelBackend` on the backend's one
``executor`` (None builds each round in this process), so the backend
exposes :meth:`with_execution` and must never itself be wrapped in a
parallel backend (wrapping would re-run the whole controller once per
fault shard; :func:`repro.parallel.maybe_parallel` knows to inject the
executor here instead).  With a
:class:`~repro.parallel.netqueue.TcpExecutor` injected, every round's
delta build distributes across ``repro worker --broker`` processes —
the trajectory stays bit-identical, only the substrate changes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, ClassVar

from repro.adaptive.controller import (
    AdaptiveReport,
    AdaptiveRound,
    AdaptiveSampler,
    StoppingRule,
)
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.faults.bridging import BridgingFault
from repro.faults.stuck_at import StuckAtFault
from repro.faultsim.detection import DetectionTable
from repro.faultsim.sampling import VectorUniverse
from repro.logic.packed import PackedSignatureMatrix

if TYPE_CHECKING:
    from repro.parallel.executors import ShardExecutor


@dataclass(frozen=True)
class AdaptiveBackend:
    """Adaptive-``K`` detection tables behind the standard protocol.

    Frozen and hashable like every other engine, so the experiment-layer
    caches key on the full configuration.  ``executor`` is excluded
    from equality/hash on purpose: the trajectory is bit-identical on
    any execution substrate (the adaptive differential suite enforces
    this), so a pool or broker-distributed run must share cached tables
    with a single-process run.
    """

    target_halfwidth: float = 0.05
    confidence: float = 0.95
    k_smallest: int = 8
    initial_samples: int = 64
    max_samples: int = 1 << 14
    growth: int = 2
    seed: int = 0
    stratify: str | None = None
    executor: ShardExecutor | None = field(default=None, compare=False)
    use_cache: bool = field(default=True, compare=False)
    #: Optional per-round observer (see AdaptiveSampler.on_round).
    #: Excluded from equality *and* repr: a streamed service run must
    #: share cache keys — in-memory and content-addressed — with an
    #: unobserved run of the same configuration.
    on_round: Callable[[AdaptiveRound], None] | None = field(
        default=None, compare=False, repr=False
    )
    name: ClassVar[str] = "adaptive"

    def __post_init__(self) -> None:
        self.rule  # validates every rule parameter eagerly
        object.__setattr__(self, "_reports", {})

    # -- configuration -------------------------------------------------
    @property
    def rule(self) -> StoppingRule:
        return StoppingRule(
            target_halfwidth=self.target_halfwidth,
            confidence=self.confidence,
            k_smallest=self.k_smallest,
            initial_samples=self.initial_samples,
            max_samples=self.max_samples,
            growth=self.growth,
        )

    def with_execution(
        self, executor: ShardExecutor | None
    ) -> "AdaptiveBackend":
        """Copy whose round delta builds run on ``executor``.

        This is the injection point :func:`repro.parallel.maybe_parallel`
        uses instead of wrapping the controller in a
        :class:`~repro.parallel.ParallelBackend`.
        """
        return replace(self, executor=executor)

    # -- the memoized controller run -----------------------------------
    def report_for(self, circuit: Circuit) -> AdaptiveReport:
        """The adaptive run for ``circuit`` (executed once, then cached)."""
        key = id(circuit)
        cached = self._reports.get(key)
        if cached is not None and cached[0] is circuit:
            return cached[1]
        report = AdaptiveSampler(
            circuit,
            rule=self.rule,
            seed=self.seed,
            stratify=self.stratify,
            executor=self.executor,
            use_cache=self.use_cache,
            on_round=self.on_round,
        ).run()
        self._reports[key] = (circuit, report)
        return report

    # -- protocol ------------------------------------------------------
    def universe_for(self, circuit: Circuit) -> VectorUniverse:
        return self.report_for(circuit).universe

    def build_stuck_at(
        self,
        circuit: Circuit,
        faults: Sequence[StuckAtFault] | None = None,
        drop_undetectable: bool = False,
    ) -> DetectionTable:
        report = self.report_for(circuit)
        table = report.target_table
        self._check_faults(circuit, faults, table.faults, "stuck-at")
        if drop_undetectable:
            return self._dropped(table)
        return table

    def build_bridging(
        self,
        circuit: Circuit,
        faults: Sequence[BridgingFault] | None = None,
        drop_undetectable: bool = True,
    ) -> DetectionTable:
        report = self.report_for(circuit)
        table = report.untargeted_table
        self._check_faults(circuit, faults, table.faults, "bridging")
        if drop_undetectable:
            return self._dropped(table)
        return table

    @staticmethod
    def _check_faults(circuit, requested, available, kind) -> None:
        if requested is not None and available != requested:
            raise AnalysisError(
                f"the adaptive backend builds the standard {kind} fault "
                f"set of {circuit.name!r} in one coupled run; pass "
                f"faults=None (or exactly the standard list)"
            )

    @staticmethod
    def _dropped(table: DetectionTable) -> DetectionTable:
        # The cached report keeps its own rows: drop from a copy.
        rows = PackedSignatureMatrix(
            table.packed.words.copy(), table.packed.size
        )
        return DetectionTable.from_rows(
            table.circuit, table.faults, rows, table.universe,
            drop_undetectable=True,
        )
