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
persistent shard cache machinery), then splices the new columns into
the accumulated numpy-packed signature blocks via
:func:`~repro.logic.packed.widen_matrix` /
:func:`~repro.logic.packed.scatter_columns`.  Total simulation cost at
final size ``K`` is therefore one ``K``-vector build, not the
``K + K/2 + K/4 + …`` a restart-based search pays.

**Determinism.**  Draws come from seeded streams (one per stratum in
stratified mode), allocations are integer-deterministic, and the
per-round table builds inherit the parallel subsystem's bit-for-bit
identity guarantee — so the whole trajectory (round sizes, allocations,
intervals, final tables) is identical at any ``jobs`` value, and a run
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
    count_interval,
)
from repro.logic.packed import (
    _np,
    PackedSignatureMatrix,
    gather_columns,
    scatter_columns,
    widen_matrix,
)

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
    jobs:
        Worker processes for each round's delta table build (sharded
        through :class:`~repro.parallel.ParallelBackend`; results are
        identical at any value).
    executor:
        Optional :class:`~repro.parallel.executors.ShardExecutor` for
        the round delta builds — with the tcp executor, every round's
        shards distribute across ``repro worker`` processes; results
        stay bit-identical on any substrate.
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
        jobs: int = 1,
        executor: object | None = None,
        use_cache: bool = True,
        on_round: "Callable[[AdaptiveRound], None] | None" = None,
    ):
        if stratify is not None and stratify not in STRATIFY_SCHEMES:
            raise AnalysisError(
                f"unknown stratification scheme {stratify!r}; choose "
                f"from {', '.join(STRATIFY_SCHEMES)} (or omit it)"
            )
        if jobs < 1:
            raise AnalysisError(f"jobs must be >= 1, got {jobs}")
        self.circuit = circuit
        self.rule = rule if rule is not None else DEFAULT_RULE
        self.seed = seed
        self.stratify = stratify
        self.jobs = jobs
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
        stratified = plan is not None and plan.num_strata > 1
        faults_f = collapsed_stuck_at_faults(circuit)
        faults_g = four_way_bridging_faults(circuit)
        state = _GrowthState(circuit, len(faults_f), len(faults_g))
        num_strata = plan.num_strata if stratified else 1
        if stratified:
            state.stratum_draws = [0] * num_strata
        streams = [self._stream(h) for h in range(num_strata)]
        covered: dict[int, tuple[int, ...]] | None = None
        if stratified:
            index_of = {g: j for j, g in enumerate(faults_g)}
            covered = {}
            for g, touched in plan.covered_fault_strata().items():
                j = index_of.get(g)
                if j is not None:
                    covered[j] = touched
        evaluator = _RuleEvaluator(rule, space, plan if stratified else None,
                                   covered)
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
                elif stratified:
                    allocation = self._allocate(plan, k_new, sigma, state)
                    new_vectors = self._draw_stratified(
                        plan, allocation, streams, state
                    )
                else:
                    new_vectors = self._draw_uniform(
                        k_new, space, streams[0], state
                    )
                self._extend(faults_f, faults_g, new_vectors, state)
                k_total = len(state.drawn)
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
        universe, packed_f, packed_g = state.finalize(
            plan if stratified else None
        )
        return AdaptiveReport(
            circuit=circuit,
            rule=rule,
            seed=self.seed,
            plan=plan,
            rounds=rounds,
            universe=universe,
            target_table=DetectionTable(
                circuit, list(faults_f), packed_f, universe
            ),
            untargeted_table=DetectionTable(
                circuit, faults_g, packed_g, universe
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
        backend = TableBackend(vectors=delta_sorted)
        if self.jobs > 1 or self.executor is not None:
            from repro.parallel import maybe_parallel

            engine = maybe_parallel(
                backend, self.jobs, use_cache=self.use_cache,
                executor=self.executor,
            )
        else:
            engine = backend
        base = backend.line_signatures(self.circuit)
        table_f = engine.build_stuck_at(
            self.circuit, faults=list(faults_f), base_signatures=base,
            drop_undetectable=False,
        )
        table_g = engine.build_bridging(
            self.circuit, faults=faults_g, base_signatures=base,
            drop_undetectable=False,
        )
        state.splice(new_vectors, delta_sorted, table_f, table_g)


class _GrowthState:
    """Accumulated draw-order signatures, as numpy-packed blocks.

    Signature bit ``d`` refers to ``drawn[d]`` — *draw order*, not
    sorted order, so extension is append-only and never moves an
    existing bit.  :meth:`finalize` permutes the columns into the sorted
    order a :class:`VectorUniverse` requires, once.
    """

    def __init__(self, circuit, num_f, num_g):
        self.circuit = circuit
        self.drawn: list[int] = []
        self.seen: set[int] = set()
        self.stratum_draws: list[int] = []
        self.acc_f = PackedSignatureMatrix(
            _np.zeros((num_f, 1), dtype=_np.uint64), 0
        )
        self.acc_g = PackedSignatureMatrix(
            _np.zeros((num_g, 1), dtype=_np.uint64), 0
        )

    def splice(self, new_vectors, delta_sorted, table_f, table_g) -> None:
        base = len(self.drawn)
        position_of = {v: base + i for i, v in enumerate(new_vectors)}
        positions = [position_of[v] for v in delta_sorted]
        self.drawn.extend(new_vectors)
        self.acc_f = widen_matrix(self.acc_f, len(self.drawn))
        self.acc_g = widen_matrix(self.acc_g, len(self.drawn))
        scatter_columns(self.acc_f, table_f.packed, positions)
        scatter_columns(self.acc_g, table_g.packed, positions)

    # -- queries the rule evaluator needs ------------------------------
    def counts(self) -> tuple[list[int], list[int]]:
        """Draw-order popcounts (``N`` in sample space) per table."""
        return (
            [int(c) for c in self.acc_f.popcount_rows()],
            [int(c) for c in self.acc_g.popcount_rows()],
        )

    def stratum_count_arrays(self, masks) -> tuple[list, list]:
        """Per-stratum popcounts: ``out[h][i]`` for each table."""
        return (
            [self.acc_f.and_popcount(mask).tolist() for mask in masks],
            [self.acc_g.and_popcount(mask).tolist() for mask in masks],
        )

    def finalize(self, plan):
        """Sorted-order universe + packed ``F``/``G`` signature blocks."""
        p = self.circuit.num_inputs
        space = 1 << p
        sorted_vectors = sorted(self.drawn)
        exhausted = len(sorted_vectors) == space
        if exhausted:
            universe: VectorUniverse = VectorUniverse(p)
        elif plan is not None:
            universe = StratifiedVectorUniverse(
                p, tuple(sorted_vectors), plan=plan
            )
        else:
            universe = VectorUniverse(p, tuple(sorted_vectors))
        draw_position = {v: d for d, v in enumerate(self.drawn)}
        order = [draw_position[v] for v in sorted_vectors]
        return (
            universe,
            gather_columns(self.acc_f, order),
            gather_columns(self.acc_g, order),
        )


@dataclass
class _Evaluation:
    met: bool
    absolute_worst: float
    relative_worst: float | None
    focus: list[FocusEstimate]
    sigma: list[float] | None


class _RuleEvaluator:
    """Applies the stopping rule to the accumulated draw-order state."""

    def __init__(self, rule, space, plan, covered):
        self.rule = rule
        self.space = space
        self.plan = plan
        self.covered = covered  # bridging indices, stratified mode only
        self.z = confidence_z(rule.confidence)

    def evaluate(self, state: _GrowthState) -> _Evaluation:
        if self.plan is None:
            return self._evaluate_uniform(state)
        return self._evaluate_stratified(state)

    @staticmethod
    def _select_focus(pool, k_smallest) -> list[FocusEstimate]:
        """The ``k`` smallest positive estimates (deterministic order)."""
        pool.sort(
            key=lambda fe: (fe.estimate.estimate, fe.kind, fe.fault_index)
        )
        return pool[:k_smallest]

    # -- uniform -------------------------------------------------------
    def _evaluate_uniform(self, state) -> _Evaluation:
        universe = VectorUniverse(
            state.circuit.num_inputs, tuple(sorted(state.drawn))
        )
        counts_f, counts_g = state.counts()
        intervals: dict[int, CountEstimate] = {}

        def interval(count) -> CountEstimate:
            found = intervals.get(count)
            if found is None:
                found = count_interval(
                    universe, count, self.rule.confidence
                )
                intervals[count] = found
            return found

        absolute_worst = 0.0
        pool: list[FocusEstimate] = []
        for kind, counts in (
            ("stuck_at", counts_f), ("bridging", counts_g)
        ):
            for i, count in enumerate(counts):
                est = interval(count)
                rel_hw = est.half_width / self.space
                if rel_hw > absolute_worst:
                    absolute_worst = rel_hw
                if est.estimate > 0.0:
                    pool.append(FocusEstimate(kind, i, est))
        target = self.rule.target_halfwidth
        focus = self._select_focus(pool, self.rule.k_smallest)
        relative_worst = (
            max(fe.relative_halfwidth for fe in focus) if focus else None
        )
        met = absolute_worst <= target and (
            relative_worst is None or relative_worst <= target
        )
        return _Evaluation(met, absolute_worst, relative_worst, focus, None)

    # -- stratified ----------------------------------------------------
    def _evaluate_stratified(self, state) -> _Evaluation:
        plan = self.plan
        masks, draws = plan.mask_rows(state.drawn)
        per_f, per_g = state.stratum_count_arrays(masks)
        z = self.z
        z2 = z * z
        populations = [s.population for s in plan.strata]
        # Per-stratum terms shared by every fault this round.
        scale = [
            pop / d if d else 0.0 for pop, d in zip(populations, draws, strict=True)
        ]
        var_factor = []
        for pop, d in zip(populations, draws, strict=True):
            if d == 0 or d >= pop:
                var_factor.append(0.0)
            else:
                fpc = (pop - d) / (pop - 1) if pop > 1 else 0.0
                var_factor.append(pop * pop / d * fpc)
        num_strata = plan.num_strata
        sigma = [0.0] * num_strata
        absolute_worst = 0.0
        pool: list[tuple[FocusEstimate, list[float]]] = []
        covered = self.covered or {}
        target = self.rule.target_halfwidth

        def build(kind, i, per_stratum, allowed):
            # ``allowed`` restricts the estimator to the strata a
            # covered fault's detection set can actually touch — its
            # activation region is disjoint from every other stratum, a
            # structural fact of the plan, so those contribute neither
            # estimate nor variance.
            est = 0.0
            var = 0.0
            sample_count = 0
            sds = [0.0] * num_strata
            fault_slack = 0.0
            for h in range(num_strata) if allowed is None else allowed:
                k_h = per_stratum[h][i]
                sample_count += k_h
                d = draws[h]
                if d == 0:
                    sds[h] = 0.5  # nothing known about this stratum
                    fault_slack += populations[h]
                    continue
                est += k_h * scale[h]
                smoothed = (k_h + z2 / 2.0) / (d + z2)
                sds[h] = math.sqrt(smoothed * (1.0 - smoothed))
                var += var_factor[h] * smoothed * (1.0 - smoothed)
            half = z * math.sqrt(var) if var > 0.0 else 0.0
            ce = CountEstimate(
                sample_count,
                est,
                max(0.0, est - half),
                min(float(self.space), est + half + fault_slack),
                self.rule.confidence,
            )
            return FocusEstimate(kind, i, ce), sds

        for kind, per_stratum, faults in (
            ("stuck_at", per_f, len(per_f[0])),
            ("bridging", per_g, len(per_g[0])),
        ):
            for i in range(faults):
                allowed = covered.get(i) if kind == "bridging" else None
                fe, sds = build(kind, i, per_stratum, allowed)
                rel_hw = fe.estimate.half_width / self.space
                if rel_hw > absolute_worst:
                    absolute_worst = rel_hw
                if rel_hw > target:
                    # Absolute criterion unmet: this fault's variance
                    # profile steers the next round's allocation.
                    for h, sd in enumerate(sds):
                        if sd > sigma[h]:
                            sigma[h] = sd
                if kind == "bridging" and allowed is not None:
                    if fe.estimate.estimate > 0.0:
                        pool.append((fe, sds))
        focus_pool = [fe for fe, _ in pool]
        focus = self._select_focus(focus_pool, self.rule.k_smallest)
        sds_of = {id(fe): sds for fe, sds in pool}
        relative_worst = (
            max(fe.relative_halfwidth for fe in focus) if focus else None
        )
        for fe in focus:
            if fe.relative_halfwidth > target:
                # Unmet focus faults steer the allocation toward *their*
                # strata — the importance half of the controller.
                for h, sd in enumerate(sds_of[id(fe)]):
                    if sd > sigma[h]:
                        sigma[h] = sd
        met = absolute_worst <= target and (
            relative_worst is None or relative_worst <= target
        )
        return _Evaluation(
            met, absolute_worst, relative_worst, focus, sigma
        )
