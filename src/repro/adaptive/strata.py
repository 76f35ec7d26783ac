"""Stratified / importance strata for rare-activation bridging faults.

The heavy-``nmin`` tail of the worst-case analysis lives exactly where
uniform sampling is weakest: bridging faults whose *activation* event
(fault-free ``l1 = a1`` and ``l2 = a2``) holds on a tiny fraction of
``U``.  A uniform ``K``-draw observes such a fault ``K * p_act`` times
in expectation, so certifying its ``N(g)`` to a relative precision costs
``K ~ 1/p_act`` — hopeless for activation probabilities in the 2**-10
range.  Stratified sampling fixes this by carving the *activation
regions themselves* out of ``U`` and sampling them directly.

Construction (:func:`build_bridging_strata`):

1. every non-feedback bridging pair site whose combined input support
   ``S`` is small enough to enumerate is evaluated *exactly*: the fan-in
   cone of its two lines alone is simulated in packed words over the
   ``2**|S|`` patterns of ``S`` (nothing outside the cone can change
   activation), and the two activation events per pair (``a=0,b=1`` and
   ``a=1,b=0``) have their probabilities counted from those words;
2. events with small positive probability become candidate
   :class:`ActivationPredicate`\\ s (rarest first); a greedy pass selects
   predicates while the union of their supports stays enumerable;
3. the selected predicates form a *decision list*: stratum ``i`` is the
   set of vectors activating predicate ``i`` but none before it, and the
   final stratum is the bulk (no predicate active).  Classifying the
   ``2**|T|`` assignments of the combined support ``T`` yields **exact**
   stratum populations (read from the words of the selected lines'
   cones) — every vector of ``U`` belongs to exactly one stratum, so the
   per-stratum estimators recombine into unbiased ``N(f)`` estimates.

Each stratum supports direct uniform sampling: pick one of its
(pre-enumerated) support projections uniformly, fill the free inputs
uniformly at random.  Cube semantics (specified support bits + free
bits) follow :mod:`repro.logic.cube`; :meth:`StrataPlan.stratum_cubes`
exposes each stratum as explicit cubes for inspection.

The estimator (:func:`stratified_rows`, on arrays; the scalar
:func:`stratified_interval` is its test oracle) is the standard
stratified finite-population one: ``N̂(f) = Σ_h |U_h| · k_h / K_h``
with variance ``Σ_h |U_h|² · p̃_h (1 - p̃_h) / K_h · fpc_h``
(Wilson-center smoothed ``p̃``, per-stratum finite-population
correction), recombined into a normal-approximation
:class:`~repro.faultsim.sampling.CountEstimate`.
Sample allocation across strata uses Neyman allocation
(:func:`neyman_allocation`): draws proportional to ``|U_h| · σ_h``,
which concentrates the budget on the rare, high-uncertainty strata.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro import obs
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.faults.bridging import BridgingFault, bridging_pair_sites
from repro.faultsim.sampling import (
    CountEstimate,
    VectorUniverse,
    confidence_z,
)
from repro.logic.bitops import iter_set_bits
from repro.logic.cube import Cube
from repro.logic.packed import PackedSignatureMatrix, _np, pack_bits, unpack_bits
from repro.simulation import ppsfp

if TYPE_CHECKING:
    from repro.logic.packed import BoolArray, F64Array, I64Array, U64Array


@dataclass(frozen=True)
class ActivationPredicate:
    """One rare activation event: ``line_a = value_a and line_b = value_b``.

    ``support`` holds the event's input positions (0-based indices into
    ``circuit.inputs``); ``probability`` is the *exact* activation
    probability over ``U``, computed by enumerating the support cone.
    The event covers the two bridging faults that share it as their
    activation condition: ``(a, va, b, vb)`` and ``(b, vb, a, va)``.
    """

    line_a: int
    value_a: int
    line_b: int
    value_b: int
    support: tuple[int, ...]
    probability: float

    def faults(self) -> tuple[BridgingFault, BridgingFault]:
        """The two four-way bridging faults activated by this event."""
        return (
            BridgingFault(self.line_a, self.value_a,
                          self.line_b, self.value_b),
            BridgingFault(self.line_b, self.value_b,
                          self.line_a, self.value_a),
        )

    def label(self, circuit: Circuit) -> str:
        a = circuit.lines[self.line_a].name
        b = circuit.lines[self.line_b].name
        return f"act({a}={self.value_a},{b}={self.value_b})"


@dataclass(frozen=True)
class Stratum:
    """One cell of the partition of ``U``.

    ``projections`` are the assignments over the plan's combined support
    ``T`` whose extensions belong to this stratum; the population is
    ``len(projections) * 2**(p - |T|)`` — exact, since membership
    depends on the ``T`` bits alone.
    """

    index: int
    label: str
    projections: tuple[int, ...]
    population: int


@dataclass(frozen=True)
class StrataPlan:
    """A partition of ``U`` by a decision list of activation predicates.

    Built once per circuit by :func:`build_bridging_strata`; pure data
    (frozen, value-comparable), so universes built from equal plans
    compare equal across processes and ``--jobs`` values.
    """

    num_inputs: int
    support: tuple[int, ...]
    predicates: tuple[ActivationPredicate, ...]
    strata: tuple[Stratum, ...]
    #: ``predicate_touches[i]`` — indices of the strata intersecting
    #: predicate ``i``'s activation region.  By the decision-list
    #: construction these never include the bulk, so a covered fault's
    #: detection set provably avoids every untouched stratum — the
    #: controller uses this to drop their (spurious) variance terms.
    predicate_touches: tuple[tuple[int, ...], ...] = ()
    _proj_to_stratum: dict = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.strata:
            raise AnalysisError("a strata plan needs at least one stratum")
        total = sum(s.population for s in self.strata)
        if total != 1 << self.num_inputs:
            raise AnalysisError(
                f"strata populations sum to {total}, not "
                f"2**{self.num_inputs} — not a partition of U"
            )

    def __getstate__(self) -> dict:
        """Drop lazily-built caches from the pickle payload.

        The plan rides inside every stratified universe that crosses
        the executor boundary; a populated ``_proj_to_stratum`` (one
        entry per support projection) is derived data the receiver
        rebuilds on first :meth:`stratum_of` — the same rule as
        :meth:`repro.faultsim.sampling.VectorUniverse.__getstate__`.
        """
        state = dict(self.__dict__)
        for f in fields(self):
            if not f.init and f.default is None:
                state[f.name] = None
        return state

    # -- geometry ------------------------------------------------------
    @property
    def space(self) -> int:
        return 1 << self.num_inputs

    @property
    def num_strata(self) -> int:
        return len(self.strata)

    @property
    def free_bits(self) -> int:
        """Inputs outside the combined support (free in every stratum)."""
        return self.num_inputs - len(self.support)

    # -- vector <-> stratum mapping ------------------------------------
    def projection_of(self, vector: int) -> int:
        """The vector's assignment over the combined support ``T``."""
        p, t = self.num_inputs, len(self.support)
        proj = 0
        for i, pos in enumerate(self.support):
            if (vector >> (p - 1 - pos)) & 1:
                proj |= 1 << (t - 1 - i)
        return proj

    def stratum_of(self, vector: int) -> int:
        """Index of the stratum containing ``vector``."""
        lookup = self._proj_to_stratum
        if lookup is None:
            lookup = {}
            for s in self.strata:
                for proj in s.projections:
                    lookup[proj] = s.index
            object.__setattr__(self, "_proj_to_stratum", lookup)
        return lookup[self.projection_of(vector)]

    def mask_rows(
        self, vectors: Sequence[int]
    ) -> tuple[U64Array, tuple[int, ...]]:
        """Stratum membership of ``vectors`` as packed rows (row ``h``
        has bit ``i`` set when ``vectors[i]`` lies in stratum ``h``),
        with the number of vectors in each stratum."""
        of = _np.array([self.stratum_of(v) for v in vectors], dtype=_np.intp)
        member = (of == _np.arange(self.num_strata)[:, None]).view(_np.uint8)
        draws = tuple(int(d) for d in member.sum(axis=1))
        return pack_bits(member).words, draws

    def compose(self, projection: int, free: int) -> int:
        """Vector with ``projection`` on ``T`` and ``free`` elsewhere."""
        p, t = self.num_inputs, len(self.support)
        support = set(self.support)
        v = 0
        for i, pos in enumerate(self.support):
            if (projection >> (t - 1 - i)) & 1:
                v |= 1 << (p - 1 - pos)
        bit = 0
        for pos in range(p):
            if pos in support:
                continue
            if (free >> bit) & 1:
                v |= 1 << (p - 1 - pos)
            bit += 1
        return v

    def draw_from_stratum(self, index: int, rng) -> int:
        """One uniform vector from stratum ``index`` (rejection-free)."""
        s = self.strata[index]
        proj = s.projections[rng.randrange(len(s.projections))]
        free = rng.getrandbits(self.free_bits) if self.free_bits else 0
        return self.compose(proj, free)

    def stratum_cubes(self, index: int) -> list[Cube]:
        """The stratum as explicit input cubes (one per projection)."""
        p, t = self.num_inputs, len(self.support)
        care = 0
        for pos in self.support:
            care |= 1 << (p - 1 - pos)
        cubes = []
        for proj in self.strata[index].projections:
            value = 0
            for i, pos in enumerate(self.support):
                if (proj >> (t - 1 - i)) & 1:
                    value |= 1 << (p - 1 - pos)
            cubes.append(Cube(p, care, value))
        return cubes

    def covered_fault_strata(self) -> dict[BridgingFault, tuple[int, ...]]:
        """Per covered fault: the strata its detection set can touch."""
        out: dict[BridgingFault, tuple[int, ...]] = {}
        for i, pred in enumerate(self.predicates):
            touches = (
                self.predicate_touches[i]
                if i < len(self.predicate_touches)
                else tuple(range(self.num_strata))
            )
            for fault in pred.faults():
                out[fault] = touches
        return out


def _input_supports(circuit: Circuit) -> list[int]:
    """Per line, the input positions feeding it as a bitmask (bit ``j``
    is ``circuit.inputs[j]``), from one topological pass."""
    supports = [0] * len(circuit.lines)
    for j, lid in enumerate(circuit.inputs):
        supports[lid] = 1 << j
    for lid in circuit.topo_order:
        acc = 0
        for src in circuit.lines[lid].fanin:
            acc |= supports[src]
        supports[lid] = acc
    return supports


def _support_positions(supports: list[int], lids: tuple[int, ...]) -> tuple:
    """Input positions feeding any of ``lids`` (sorted, deduplicated)."""
    mask = 0
    for lid in lids:
        mask |= supports[lid]
    return tuple(iter_set_bits(mask))


def _fanin_cones(circuit: Circuit) -> list[int]:
    """Per line, its fan-in cone's driven lines (itself included) as a
    bitmask over ``circuit.topo_order`` ranks."""
    cones = [0] * len(circuit.lines)
    for rank, lid in enumerate(circuit.topo_order):
        cones[lid] = 1 << rank
        for src in circuit.lines[lid].fanin:
            cones[lid] |= cones[src]
    return cones


def build_bridging_strata(
    circuit: Circuit,
    max_site_support: int = 12,
    max_support: int = 16,
    max_strata: int = 9,
    rare_threshold: float = 1.0 / 16.0,
    max_candidates: int = 256,
) -> StrataPlan:
    """Strata plan over the circuit's rare bridging activation events.

    Parameters bound the enumeration work: only pair sites whose
    combined support has at most ``max_site_support`` inputs are
    evaluated (cheapest and most concentrated first, at most
    ``max_candidates`` pairs), only events with exact activation
    probability in ``(0, rare_threshold]`` become candidates, and
    predicates are selected greedily (rarest first) while the union of
    their supports stays within ``max_support`` inputs and the plan
    within ``max_strata`` strata (including the bulk).

    Degenerates gracefully: a circuit with no enumerable rare events
    yields the single-stratum (bulk-only) plan, which makes stratified
    sampling coincide with uniform sampling.  Planning is traced as one
    ``strata_plan`` span that carries its counts.
    """
    if max_site_support < 1 or max_support < max_site_support:
        raise AnalysisError(
            "strata bounds must satisfy 1 <= max_site_support <= "
            f"max_support, got {max_site_support} / {max_support}"
        )
    if max_strata < 2:
        raise AnalysisError(
            f"max_strata must leave room for one predicate stratum plus "
            f"the bulk (>= 2), got {max_strata}"
        )
    if not 0.0 < rare_threshold <= 1.0:
        raise AnalysisError(
            f"rare_threshold must be in (0, 1], got {rare_threshold}"
        )
    p = circuit.num_inputs
    with obs.span("strata_plan", circuit=circuit.name) as span:
        supports, cones = _input_supports(circuit), _fanin_cones(circuit)
        sites = []
        for a, b in bridging_pair_sites(circuit):
            width = (supports[a] | supports[b]).bit_count()
            if 0 < width <= max_site_support:
                sites.append((width, a, b))
        sites.sort()
        candidates: list[ActivationPredicate] = []
        for _, a, b in sites[:max_candidates]:
            support = _support_positions(supports, (a, b))
            _, words = ppsfp.cone_words(circuit, cones[a] | cones[b], support)
            # ``~`` sets the bits past the patterns; the other row has none.
            wa, wb = words[a], words[b]
            for va, vb, act in ((0, 1, wb & ~wa), (1, 0, wa & ~wb)):
                probability = int(unpack_bits(act).sum()) / (1 << len(support))
                if 0 < probability <= rare_threshold:
                    candidates.append(
                        ActivationPredicate(a, va, b, vb, support, probability)
                    )
        candidates.sort(
            key=lambda c: (c.probability, c.line_a, c.line_b, c.value_a)
        )
        selected: list[ActivationPredicate] = []
        union: set[int] = set()
        for cand in candidates:
            widened = union | set(cand.support)
            if len(widened) > max_support:
                continue
            selected.append(cand)
            union = widened
            if len(selected) >= max_strata - 1:
                break
        # Classify every assignment of the combined support by decision
        # list (with no predicate, the bulk is the one empty assignment).
        support = tuple(sorted(union))
        free = p - len(support)
        lines = 0
        for pred in selected:
            lines |= cones[pred.line_a] | cones[pred.line_b]
        remaining, words = ppsfp.cone_words(circuit, lines, support)
        strata: list[Stratum] = []
        kept: list[ActivationPredicate] = []
        acts: list[U64Array] = []
        cells: list[U64Array] = []
        for pred in selected:
            wa, wb = words[pred.line_a], words[pred.line_b]
            act = wa & ~wb if pred.value_a else wb & ~wa
            cell = act & remaining
            if not cell.any():
                continue  # fully shadowed by earlier predicates
            remaining = remaining & ~act
            projections = tuple(_np.flatnonzero(unpack_bits(cell)).tolist())
            kept.append(pred)
            acts.append(act)
            cells.append(cell)
            strata.append(
                Stratum(
                    len(strata),
                    pred.label(circuit),
                    projections,
                    len(projections) << free,
                )
            )
        bulk = tuple(_np.flatnonzero(unpack_bits(remaining)).tolist())
        strata.append(Stratum(len(strata), "bulk", bulk, len(bulk) << free))
        touches = tuple(
            tuple(h for h, cell in enumerate(cells) if (act & cell).any())
            for act in acts
        )
        span.set(
            pair_sites=len(sites), candidates=min(len(sites), max_candidates),
            support_width=len(support), strata=len(strata),
        )
    return StrataPlan(p, support, tuple(kept), tuple(strata), touches)


# ----------------------------------------------------------------------
# The stratified universe and its estimators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StratifiedVectorUniverse(VectorUniverse):
    """A sampled universe whose vectors were drawn stratum by stratum.

    Behaves exactly like a plain sampled
    :class:`~repro.faultsim.sampling.VectorUniverse` (sorted distinct
    vectors, sample-space signatures), but overrides the estimation
    dispatch with the unbiased stratified estimator: per-stratum
    popcounts scaled by per-stratum populations, recombined with
    per-stratum finite-population-corrected variances.  The plan and the
    vector list fully determine the estimator, so equal draws compare
    equal regardless of how many worker processes built the tables.
    """

    plan: StrataPlan | None = None
    _stratum_masks: tuple | None = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.plan is None:
            raise AnalysisError(
                "a stratified universe needs its strata plan"
            )
        if self.plan.num_inputs != self.num_inputs:
            raise AnalysisError(
                "strata plan and universe disagree on the input count"
            )
        if self.vectors is None:
            raise AnalysisError(
                "a stratified universe is always an explicit sample"
            )

    # -- per-stratum geometry ------------------------------------------
    def _masks_and_draws(self) -> tuple[U64Array, tuple[int, ...]]:
        """Per-stratum packed mask rows and draw counts (cached)."""
        cached = self._stratum_masks
        if cached is None:
            cached = self.plan.mask_rows(self.vectors)
            object.__setattr__(self, "_stratum_masks", cached)
        return cached

    @property
    def draws_per_stratum(self) -> tuple[int, ...]:
        return self._masks_and_draws()[1]

    # -- estimation dispatch (overrides the uniform estimators) --------
    def count_rows(self, matrix: PackedSignatureMatrix) -> I64Array:
        masks, _ = self._masks_and_draws()
        return _np.stack([matrix.and_popcount(mask) for mask in masks])

    def estimate_rows(self, matrix: PackedSignatureMatrix) -> F64Array:
        return stratified_rows(self, self.count_rows(matrix))[0]

    def interval_rows(
        self, counts: I64Array, confidence: float = 0.95
    ) -> tuple[F64Array, F64Array, F64Array]:
        return stratified_rows(self, counts, confidence)


def stratified_interval(
    universe: StratifiedVectorUniverse,
    counts: I64Array,
    confidence: float = 0.95,
) -> CountEstimate:
    """Stratified count estimate with a recombined confidence interval.

    ``counts`` holds one row's per-stratum popcounts (a column of
    :meth:`StratifiedVectorUniverse.count_rows`).
    ``N̂ = Σ_h N_h k_h / K_h``; the variance sums per-stratum binomial
    variances with the finite-population correction, using the
    Wilson-center smoothed proportion ``p̃ = (k + z²/2) / (K + z²)`` so
    strata observed at exactly 0 or 1 keep a positive variance until
    they are exhausted.  Strata with no draws contribute their *entire*
    population to the uncertainty (we know nothing about them), so the
    interval stays honest before every stratum has been touched.
    """
    z = confidence_z(confidence)
    _, draws = universe._masks_and_draws()
    est = 0.0
    var = 0.0
    slack = 0.0
    sample_count = 0
    for stratum, k, drawn in zip(
        universe.plan.strata, [int(c) for c in counts], draws, strict=True
    ):
        pop = stratum.population
        sample_count += k
        if drawn == 0:
            slack += pop
            continue
        est += pop * (k / drawn)
        if drawn >= pop:
            continue  # stratum exhausted: exact, zero variance
        smoothed = (k + z * z / 2.0) / (drawn + z * z)
        fpc = (pop - drawn) / (pop - 1) if pop > 1 else 0.0
        var += (pop * pop) * smoothed * (1.0 - smoothed) / drawn * fpc
    half = z * math.sqrt(var) if var > 0.0 else 0.0
    low = max(0.0, est - half)
    high = min(float(universe.space), est + half + slack)
    return CountEstimate(sample_count, est, low, high, confidence)


def _smoothed(k: I64Array, drawn: int | I64Array, z: float) -> F64Array:
    """Wilson-center smoothed proportion ``p̃ = (k + z²/2) / (K + z²)``."""
    return (k + z * z / 2.0) / (drawn + z * z)


def stratified_rows(
    universe: StratifiedVectorUniverse,
    counts: I64Array,
    confidence: float = 0.95,
    allowed: BoolArray | None = None,
) -> tuple[F64Array, F64Array, F64Array]:
    """``(estimate, low, high)`` for every column of a ``strata × rows``
    count array: :func:`stratified_interval` on arrays.

    Strata are visited in plan order with the scalar function's float
    operations, so each column equals its scalar interval bit for bit.
    ``allowed`` (``strata × rows``, boolean) restricts each row to the
    strata its detection set can touch: the adaptive controller passes
    it for covered bridging faults, whose activation region is disjoint
    from every other stratum by the plan's construction, so those
    strata add neither estimate, variance nor slack.
    """
    z = confidence_z(confidence)
    _, draws = universe._masks_and_draws()
    est = _np.zeros(counts.shape[1])
    var = _np.zeros(counts.shape[1])
    slack = _np.zeros(counts.shape[1])

    def add(total: F64Array, term: F64Array | float, h: int) -> None:
        # ``x + 0.0 == x``: a masked-out stratum leaves the sum's bits.
        total += term if allowed is None else _np.where(allowed[h], term, 0.0)

    for h, (stratum, k, drawn) in enumerate(
        zip(universe.plan.strata, counts, draws, strict=True)
    ):
        pop = stratum.population
        if drawn == 0:
            add(slack, float(pop), h)
            continue
        add(est, float(pop) * (k / drawn), h)
        if drawn >= pop:
            continue  # stratum exhausted: exact, zero variance
        smoothed = _smoothed(k, drawn, z)
        fpc = (pop - drawn) / (pop - 1) if pop > 1 else 0.0
        add(
            var,
            float(pop * pop) * smoothed * (1.0 - smoothed) / drawn * fpc,
            h,
        )
    half = z * _np.sqrt(var)
    low = _np.maximum(0.0, est - half)
    high = _np.minimum(float(universe.space), est + half + slack)
    return est, low, high


def stratum_sds(
    universe: StratifiedVectorUniverse,
    counts: I64Array,
    confidence: float,
    allowed: BoolArray | None = None,
) -> F64Array:
    """Per-stratum standard deviations ``√(p̃(1 − p̃))`` of each column,
    the ``σ_h`` that :func:`neyman_allocation` weighs strata by.

    A stratum with no draws reads ``0.5`` (nothing is known about it);
    a stratum outside ``allowed`` reads ``0.0``.
    """
    z = confidence_z(confidence)
    draws = _np.array(universe._masks_and_draws()[1])[:, None]
    smoothed = _smoothed(counts, draws, z)
    sds = _np.where(draws == 0, 0.5, _np.sqrt(smoothed * (1.0 - smoothed)))
    return sds if allowed is None else _np.where(allowed, sds, 0.0)


def neyman_allocation(
    plan: StrataPlan,
    total: int,
    sigmas: list[float],
    drawn: list[int],
) -> list[int]:
    """Split ``total`` new draws across strata by Neyman allocation.

    Weights are ``N_h · σ_h`` (population times pooled per-stratum
    standard deviation); every non-exhausted stratum receives at least
    one draw while draws remain, allocations never exceed the stratum's
    remaining population, and the integer apportionment (largest
    fractional remainder, stratum index as the tie-break) is fully
    deterministic — a requirement of the bit-identical-across-jobs
    guarantee.
    """
    if total < 0:
        raise AnalysisError(f"allocation total must be >= 0, got {total}")
    m = plan.num_strata
    if len(sigmas) != m or len(drawn) != m:
        raise AnalysisError(
            "sigmas/drawn must have one entry per stratum"
        )
    room = [s.population - d for s, d in zip(plan.strata, drawn, strict=True)]
    if any(r < 0 for r in room):
        raise AnalysisError("stratum overdrawn: draws exceed population")
    total = min(total, sum(room))
    alloc = [0] * m
    if total == 0:
        return alloc
    # Floor: one draw per open stratum (importance guarantee — rare
    # strata are never starved by a dominant bulk weight).
    open_strata = [h for h in range(m) if room[h] > 0]
    for h in open_strata:
        if sum(alloc) >= total:
            break
        alloc[h] = 1
    while True:
        rest = total - sum(alloc)
        if rest <= 0:
            break
        weights = [
            (plan.strata[h].population * max(sigmas[h], 1e-12))
            if alloc[h] < room[h]
            else 0.0
            for h in range(m)
        ]
        weight_sum = sum(weights)
        if weight_sum <= 0.0:
            # Everything with weight is full; spill into any open room.
            for h in range(m):
                take = min(rest, room[h] - alloc[h])
                alloc[h] += take
                rest -= take
                if rest == 0:
                    break
            break
        shares = [rest * w / weight_sum for w in weights]
        extra = [min(int(s), room[h] - alloc[h]) for h, s in enumerate(shares)]
        remainder_order = sorted(
            range(m),
            key=lambda h: (-(shares[h] - int(shares[h])), h),
        )
        spill = rest - sum(extra)
        for h in remainder_order:
            if spill == 0:
                break
            if alloc[h] + extra[h] < room[h]:
                extra[h] += 1
                spill -= 1
        if all(e == 0 for e in extra):
            # Capped everywhere; distribute leftovers linearly.
            for h in range(m):
                take = min(rest, room[h] - alloc[h])
                alloc[h] += take
                rest -= take
                if rest == 0:
                    break
            break
        for h in range(m):
            alloc[h] += extra[h]
    return alloc
