"""The adaptive sampling controller: grow ``K`` until the CI is tight.

A fixed ``--samples K`` draw (PR 1) forces the user to guess the sample
size that makes the smallest ``N(f)`` estimates trustworthy — and the
guess is unfalsifiable from inside the run.  The
:class:`AdaptiveSampler` replaces the guess with a *stopping rule*: it
draws a small seeded universe, builds detection tables for both fault
models, inspects the confidence intervals of the current ``k``-smallest
``N(f)`` set, and keeps growing the universe geometrically until the
intervals meet a target half-width or the sample budget is exhausted.

Two properties make the controller cheap and reproducible:

**Incremental growth.**  Rounds extend one universe; previously drawn
vectors are *never re-simulated*.  Each round builds signatures only
for the fresh vectors (through a
:class:`~repro.faultsim.backends.TableBackend` over an explicit vector
list, optionally sharded across worker processes by
:class:`~repro.parallel.ParallelBackend` — reusing the shard plan and
persistent shard cache machinery), then merges the new columns into
the accumulated numpy-packed signature blocks, which are kept in
sorted-vector order: one :func:`~repro.logic.packed.gather_columns`
pass per block (unpack a chunk of rows, index the joined columns,
pack).  After every round the blocks are the final tables as they
stand.  Total simulation cost at final size ``K`` is therefore one
``K``-vector build, not the ``K + K/2 + K/4 + …`` a restart-based
search pays.

**One estimator.**  The stopping rule reads the round universe's own
array estimators over every fault at once —
:meth:`~repro.faultsim.sampling.VectorUniverse.interval_rows` under
uniform growth, :func:`~repro.adaptive.strata.stratified_rows` under
stratification — so its intervals are the ones the report's tables
give.

**Determinism.**  Draws come from seeded streams (one per stratum in
stratified mode), allocations are integer-deterministic, and the
per-round table builds inherit the parallel subsystem's bit-for-bit
identity guarantee — so the whole trajectory (round sizes, allocations,
intervals, final tables) is identical on any executor, and a run
whose budget covers ``2**p`` canonicalizes to the *exact* exhaustive
result, like the fixed sampled engine does.

Stopping rule semantics (``StoppingRule``): every fault's interval must
satisfy the *absolute* criterion ``half_width <= target * |U|``, and the
``k``-smallest positive estimates of the *focus pool* must additionally
satisfy the *relative* criterion ``half_width <= target * estimate`` —
the rare-event precision that drives the worst-case conclusions.  The
focus pool is every detectable fault under uniform growth, and the
importance-covered bridging faults under ``stratify="bridging"`` (a
fault whose activation region lies inside the sampled strata is exactly
one whose relative precision the plan can certify).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.adaptive.strata import (
    StrataPlan,
    StratifiedVectorUniverse,
    build_bridging_strata,
    neyman_allocation,
    stratified_rows,
    stratum_sds,
)
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.faults.bridging import four_way_bridging_faults
from repro.faults.stuck_at import collapsed_stuck_at_faults
from repro.faultsim.backends import TableBackend
from repro.faultsim.detection import DetectionTable
from repro.faultsim.sampling import (
    CountEstimate,
    VectorUniverse,
    confidence_z,
)
from repro.logic.packed import PackedSignatureMatrix, _np, gather_columns
from repro.parallel import ShardExecutor, maybe_parallel

#: Stratification schemes accepted by the controller / CLI.
STRATIFY_SCHEMES: tuple[str, ...] = ("bridging",)


@dataclass(frozen=True)
class StoppingRule:
    """When is the sampled universe big enough?

    Attributes
    ----------
    target_halfwidth:
        Relative precision target in ``(0, 1]``; both criteria scale by
        it (absolute: fraction of ``|U|``; relative: fraction of the
        estimate).
    confidence:
        Interval confidence level, in the open interval ``(0, 1)``
        (``1.0`` would demand an infinite normal interval and raises).
    k_smallest:
        Size of the focus set — the ``k`` smallest positive ``N(f)``
        estimates whose intervals must meet the relative criterion.
        Must be ``>= 1``: a zero-fault focus would declare victory
        without certifying anything.
    initial_samples / max_samples:
        First-round draw and total budget (``K`` never exceeds
        ``min(max_samples, 2**p)``; reaching ``2**p`` is the exact
        degenerate case).
    growth:
        Geometric factor between rounds (``>= 2``).
    """

    target_halfwidth: float = 0.05
    confidence: float = 0.95
    k_smallest: int = 8
    initial_samples: int = 64
    max_samples: int = 1 << 14
    growth: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.target_halfwidth <= 1.0:
            raise AnalysisError(
                f"target_halfwidth must be in (0, 1], got "
                f"{self.target_halfwidth}"
            )
        confidence_z(self.confidence)  # raises outside (0, 1)
        if self.k_smallest < 1:
            raise AnalysisError(
                f"k_smallest must be >= 1, got {self.k_smallest} "
                f"(an empty focus set certifies nothing)"
            )
        if self.initial_samples < 1:
            raise AnalysisError(
                f"initial_samples must be >= 1, got {self.initial_samples}"
            )
        if self.max_samples < self.initial_samples:
            raise AnalysisError(
                f"max_samples ({self.max_samples}) must be >= "
                f"initial_samples ({self.initial_samples})"
            )
        if self.growth < 2:
            raise AnalysisError(
                f"growth must be >= 2, got {self.growth}"
            )


#: The defaults the CLI / ``make_backend`` fall back to.
DEFAULT_RULE = StoppingRule()


@dataclass(frozen=True)
class FocusEstimate:
    """One focus fault's interval at a given round."""

    kind: str  # "stuck_at" | "bridging"
    fault_index: int
    estimate: CountEstimate

    @property
    def relative_halfwidth(self) -> float:
        if self.estimate.estimate <= 0.0:
            return math.inf
        return self.estimate.half_width / self.estimate.estimate


@dataclass
class AdaptiveRound:
    """Trajectory record of one growth round."""

    index: int
    k_before: int
    k_new: int
    k_total: int
    allocation: tuple[int, ...] | None
    absolute_worst: float
    relative_worst: float | None
    focus_size: int
    met: bool

    def render(self, target: float) -> str:
        rel = (
            "n/a"
            if self.relative_worst is None
            else f"{self.relative_worst:.4f}"
        )
        alloc = (
            ""
            if self.allocation is None
            else f"  strata+={list(self.allocation)}"
        )
        return (
            f"round {self.index}: K={self.k_total} (+{self.k_new})  "
            f"abs hw/|U|={self.absolute_worst:.4f}  "
            f"focus hw/est={rel}  target={target}  "
            f"{'met' if self.met else 'not met'}{alloc}"
        )


@dataclass
class AdaptiveReport:
    """Everything an adaptive run produced.

    ``untargeted_table`` is *undropped* (every four-way bridging fault,
    detectable or not, so rounds stay aligned); consumers wanting the
    paper's ``G`` apply the detectability filter —
    :class:`~repro.adaptive.backend.AdaptiveBackend` does this when
    serving ``build_bridging``.
    """

    circuit: Circuit
    rule: StoppingRule
    seed: int
    plan: StrataPlan | None
    rounds: list[AdaptiveRound]
    universe: VectorUniverse
    target_table: DetectionTable
    untargeted_table: DetectionTable
    focus: list[FocusEstimate]
    met: bool
    reason: str

    @property
    def total_vectors(self) -> int:
        """Distinct vectors simulated over the whole run (== final K)."""
        return self.universe.size

    @property
    def stratified(self) -> bool:
        return self.plan is not None and self.plan.num_strata > 1

    def trajectory_lines(self) -> list[str]:
        lines = [r.render(self.rule.target_halfwidth) for r in self.rounds]
        lines.append(
            f"{self.reason}: {self.total_vectors} vectors simulated in "
            f"{len(self.rounds)} round(s)"
        )
        return lines


class AdaptiveSampler:
    """Run the adaptive growth loop for one circuit.

    Parameters
    ----------
    circuit:
        Any normal-form circuit (no input cap — this is a sampling
        engine).
    rule:
        The stopping rule (default :data:`DEFAULT_RULE`).
    seed:
        Master seed for every draw stream.
    stratify:
        ``None`` for uniform growth, ``"bridging"`` for the
        rare-activation strata of :func:`build_bridging_strata` (falls
        back to uniform when the circuit has no enumerable rare event —
        recorded in the report's ``plan``).
    executor:
        Optional :class:`~repro.parallel.executors.ShardExecutor` each
        round's delta table build is sharded on (through
        :class:`~repro.parallel.ParallelBackend`; None builds in this
        process) — with the tcp executor, every round's shards
        distribute across ``repro worker`` processes; results stay
        bit-identical on any substrate.
    use_cache:
        Whether delta builds may use the persistent shard cache.
    on_round:
        Optional observer called with each :class:`AdaptiveRound` as
        soon as the round is evaluated (the analysis service streams
        these as chunked progress lines).  Purely observational: the
        trajectory is bit-identical with or without it.
    """

    def __init__(
        self,
        circuit: Circuit,
        rule: StoppingRule | None = None,
        seed: int = 0,
        stratify: str | None = None,
        executor: ShardExecutor | None = None,
        use_cache: bool = True,
        on_round: "Callable[[AdaptiveRound], None] | None" = None,
    ):
        if stratify is not None and stratify not in STRATIFY_SCHEMES:
            raise AnalysisError(
                f"unknown stratification scheme {stratify!r}; choose "
                f"from {', '.join(STRATIFY_SCHEMES)} (or omit it)"
            )
        self.circuit = circuit
        self.rule = rule if rule is not None else DEFAULT_RULE
        self.seed = seed
        self.stratify = stratify
        self.executor = executor
        self.use_cache = use_cache
        self.on_round = on_round

    # -- draw streams --------------------------------------------------
    def _stream(self, stratum: int) -> random.Random:
        # Distinct deterministic stream per stratum (PYTHONHASHSEED-free).
        return random.Random(self.seed * 1_000_003 + 7919 * stratum + 1)

    # ------------------------------------------------------------------
    def run(self) -> AdaptiveReport:
        circuit = self.circuit
        rule = self.rule
        p = circuit.num_inputs
        space = 1 << p
        budget = min(rule.max_samples, space)
        plan: StrataPlan | None = None
        if self.stratify == "bridging":
            plan = build_bridging_strata(circuit)
        # A bulk-only plan samples exactly like uniform growth.
        strata = plan if plan is not None and plan.num_strata > 1 else None
        faults_f = collapsed_stuck_at_faults(circuit)
        faults_g = four_way_bridging_faults(circuit)
        state = _GrowthState(p, strata, len(faults_f), len(faults_g))
        streams = [
            self._stream(h)
            for h in range(1 if strata is None else strata.num_strata)
        ]
        evaluator = _RuleEvaluator(rule, strata, len(faults_f), faults_g)
        rounds: list[AdaptiveRound] = []
        sigma: list[float] | None = None
        k_total = 0
        while True:
            # One span per growth round: the round's table builds (and,
            # under a parallel backend, their shard spans) nest inside,
            # so a trace shows where each K-doubling spent its time.
            with obs.span(
                "adaptive_round",
                index=len(rounds),
                circuit=circuit.name,
            ) as round_span:
                k_target = (
                    min(rule.initial_samples, budget)
                    if k_total == 0
                    else min(k_total * rule.growth, budget)
                )
                k_new = k_target - k_total
                allocation = None
                if k_target >= space:
                    # Completion round: the budget covers all of U —
                    # finish the universe deterministically and exactly.
                    new_vectors = sorted(
                        set(range(space)) - state.seen
                    )
                elif strata is not None:
                    allocation = self._allocate(strata, k_new, sigma, state)
                    new_vectors = self._draw_stratified(
                        strata, allocation, streams, state
                    )
                else:
                    new_vectors = self._draw_uniform(
                        k_new, space, streams[0], state
                    )
                self._extend(faults_f, faults_g, new_vectors, state)
                k_total = len(state.vectors)
                with obs.span(
                    "adaptive_evaluate", rows=state.rows, k_total=k_total
                ):
                    evaluation = evaluator.evaluate(state)
                sigma = evaluation.sigma
                met = evaluation.met
                rounds.append(
                    AdaptiveRound(
                        index=len(rounds),
                        k_before=k_total - len(new_vectors),
                        k_new=len(new_vectors),
                        k_total=k_total,
                        allocation=(
                            tuple(allocation)
                            if allocation is not None
                            else None
                        ),
                        absolute_worst=evaluation.absolute_worst,
                        relative_worst=evaluation.relative_worst,
                        focus_size=len(evaluation.focus),
                        met=met,
                    )
                )
                round_span.set(
                    k_new=len(new_vectors),
                    k_total=k_total,
                    absolute_worst=evaluation.absolute_worst,
                    relative_worst=evaluation.relative_worst,
                    met=met,
                )
            obs.metrics().counter(
                "repro_adaptive_rounds_total",
                help="Growth rounds executed by the adaptive sampler",
            ).inc()
            if self.on_round is not None:
                self.on_round(rounds[-1])
            if met:
                reason = (
                    "exact (universe exhausted)"
                    if k_total == space
                    else "target met"
                )
                break
            if k_total >= budget:
                reason = "sample budget exhausted"
                break
        return AdaptiveReport(
            circuit=circuit,
            rule=rule,
            seed=self.seed,
            plan=plan,
            rounds=rounds,
            universe=state.universe,
            target_table=DetectionTable(
                circuit, faults_f, state.acc_f, state.universe
            ),
            untargeted_table=DetectionTable(
                circuit, faults_g, state.acc_g, state.universe
            ),
            focus=evaluation.focus,
            met=met,
            reason=reason,
        )

    # -- drawing -------------------------------------------------------
    @staticmethod
    def _draw_uniform(k_new, space, rng, state) -> list[int]:
        out: list[int] = []
        seen = state.seen
        while len(out) < k_new:
            v = rng.randrange(space)
            if v in seen:
                continue
            seen.add(v)
            out.append(v)
        return out

    @staticmethod
    def _allocate(plan, k_new, sigma, state) -> list[int]:
        if sigma is None:
            # Round 0: equal split — maximal importance boost while no
            # variance information exists (weights N_h * 1/N_h == 1).
            sigma = [
                1.0 / max(1, s.population) for s in plan.strata
            ]
        return neyman_allocation(
            plan, k_new, sigma, list(state.stratum_draws)
        )

    @staticmethod
    def _draw_stratified(plan, allocation, streams, state) -> list[int]:
        out: list[int] = []
        seen = state.seen
        for h, quota in enumerate(allocation):
            rng = streams[h]
            got = 0
            while got < quota:
                v = plan.draw_from_stratum(h, rng)
                if v in seen:
                    continue
                seen.add(v)
                out.append(v)
                state.stratum_draws[h] += 1
                got += 1
        return out

    # -- incremental extension -----------------------------------------
    def _extend(self, faults_f, faults_g, new_vectors, state) -> None:
        if not new_vectors:
            return
        delta_sorted = tuple(sorted(new_vectors))
        engine = maybe_parallel(
            TableBackend(vectors=delta_sorted), self.executor,
            use_cache=self.use_cache,
        )
        table_f = engine.build_stuck_at(
            self.circuit, faults=faults_f, drop_undetectable=False
        )
        table_g = engine.build_bridging(
            self.circuit, faults=faults_g, drop_undetectable=False
        )
        with obs.span(
            "adaptive_splice",
            rows=state.rows,
            k_total=len(state.vectors) + len(delta_sorted),
        ):
            state.splice(delta_sorted, table_f.packed, table_g.packed)


class _GrowthState:
    """The run's draws and signatures, in sorted-vector order.

    ``vectors`` is sorted, and bit ``i`` of every row of ``acc_f`` /
    ``acc_g`` refers to ``vectors[i]`` — the order a
    :class:`VectorUniverse` requires, so after any round the blocks and
    ``universe`` are the report's tables as they stand.  A round's fresh
    columns (built over the round's own sorted vectors) are merged into
    place by one :func:`~repro.logic.packed.gather_columns` pass per
    block; no existing column is re-simulated.
    """

    def __init__(self, num_inputs, plan, num_f, num_g):
        self.num_inputs = num_inputs
        self.plan = plan  # ``None`` under uniform growth
        self.vectors: list[int] = []
        self.seen: set[int] = set()
        self.stratum_draws = [0] * (0 if plan is None else plan.num_strata)
        self.acc_f = PackedSignatureMatrix(
            _np.zeros((num_f, 1), dtype=_np.uint64), 0
        )
        self.acc_g = PackedSignatureMatrix(
            _np.zeros((num_g, 1), dtype=_np.uint64), 0
        )
        self.universe: VectorUniverse = VectorUniverse(num_inputs)

    @property
    def rows(self) -> int:
        return len(self.acc_f) + len(self.acc_g)

    def splice(self, fresh, delta_f, delta_g) -> None:
        """Merge sorted ``fresh`` vectors and their signature columns."""
        joined = self.vectors + list(fresh)
        # Two sorted runs: the sort merges them in linear time.
        order = sorted(range(len(joined)), key=joined.__getitem__)
        self.vectors = [joined[i] for i in order]
        self.acc_f = gather_columns((self.acc_f, delta_f), order)
        self.acc_g = gather_columns((self.acc_g, delta_g), order)
        p = self.num_inputs
        if len(self.vectors) == 1 << p:
            self.universe = VectorUniverse(p)
        elif self.plan is not None:
            self.universe = StratifiedVectorUniverse(
                p, tuple(self.vectors), plan=self.plan
            )
        else:
            self.universe = VectorUniverse(p, tuple(self.vectors))


@dataclass
class _Evaluation:
    met: bool
    absolute_worst: float
    relative_worst: float | None
    focus: list[FocusEstimate]
    sigma: list[float] | None


class _RuleEvaluator:
    """Applies the stopping rule to the state's blocks, on arrays.

    Rows are the ``F`` faults followed by the ``G`` faults.  ``allowed``
    (``strata × rows``) confines each covered bridging fault to the
    strata its detection set can touch, and ``pool`` marks the focus
    pool: every row under uniform growth, the covered bridging faults
    under ``stratify="bridging"``.
    """

    def __init__(self, rule, plan, num_f, faults_g):
        self.rule = rule
        self.plan = plan
        self.num_f = num_f
        rows = num_f + len(faults_g)
        self.allowed = _np.ones(
            (1 if plan is None else plan.num_strata, rows), dtype=bool
        )
        self.pool = _np.full(rows, plan is None)
        if plan is not None:
            # Column compares: no fault object for each row of ``faults_g``.
            f = faults_g
            for g, touched in plan.covered_fault_strata().items():
                rows = _np.flatnonzero(
                    (f.victim == g.victim) & (f.victim_value == g.victim_value)
                    & (f.aggressor == g.aggressor)
                    & (f.aggressor_value == g.aggressor_value)
                )
                if rows.size:
                    j = num_f + int(rows[-1])
                    self.allowed[:, j] = False
                    self.allowed[list(touched), j] = True
                    self.pool[j] = True

    def evaluate(self, state: _GrowthState) -> _Evaluation:
        rule = self.rule
        target = rule.target_halfwidth
        universe = state.universe
        if self.plan is not None and universe.exact:
            # The exhaustion round is judged by the plan's estimator,
            # like every round before it.
            universe = StratifiedVectorUniverse(
                universe.num_inputs, tuple(state.vectors), plan=self.plan
            )
        counts = _np.concatenate(
            [universe.count_rows(m) for m in (state.acc_f, state.acc_g)],
            axis=1,
        )
        if isinstance(universe, StratifiedVectorUniverse):
            est, low, high = stratified_rows(
                universe, counts, rule.confidence, self.allowed
            )
        else:
            est, low, high = universe.interval_rows(counts, rule.confidence)
        rel_hw = (high - low) / 2.0 / universe.space
        absolute_worst = float(rel_hw.max(initial=0.0))
        # The focus: the ``k`` smallest positive estimates of the pool,
        # ordered by (estimate, kind, fault_index); "bridging" sorts
        # before "stuck_at".
        candidates = _np.flatnonzero((est > 0.0) & self.pool)
        stuck_at = candidates < self.num_f
        fault_index = _np.where(
            stuck_at, candidates, candidates - self.num_f
        )
        order = _np.lexsort((fault_index, stuck_at, est[candidates]))
        picked = candidates[order[: rule.k_smallest]].tolist()
        focus = [
            FocusEstimate(
                "stuck_at" if r < self.num_f else "bridging",
                r if r < self.num_f else r - self.num_f,
                CountEstimate(
                    int(counts[self.allowed[:, r], r].sum()),
                    float(est[r]),
                    float(low[r]),
                    float(high[r]),
                    rule.confidence,
                ),
            )
            for r in picked
        ]
        relative_worst = (
            max(fe.relative_halfwidth for fe in focus) if focus else None
        )
        met = absolute_worst <= target and (
            relative_worst is None or relative_worst <= target
        )
        sigma = None
        if isinstance(universe, StratifiedVectorUniverse):
            # Neyman's sigma_h: the largest per-stratum sd among the
            # faults still unmet — every fault over the absolute target
            # and every focus fault over the relative one (the
            # importance half of the controller).
            steer = rel_hw > target
            for fe, r in zip(focus, picked, strict=True):
                if fe.relative_halfwidth > target:
                    steer[r] = True
            sds = stratum_sds(
                universe, counts[:, steer], rule.confidence,
                self.allowed[:, steer],
            )
            sigma = sds.max(axis=1, initial=0.0).tolist()
        return _Evaluation(
            met, absolute_worst, relative_worst, focus, sigma
        )
