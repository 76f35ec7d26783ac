"""Strata plans: exact partitions, sampling, allocation, estimators."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.adaptive.strata import (
    ActivationPredicate,
    StrataPlan,
    StratifiedVectorUniverse,
    Stratum,
    _input_supports,
    _support_positions,
    build_bridging_strata,
    neyman_allocation,
    stratified_interval,
)
from repro.bench_suite.example import xor_tree
from repro.bench_suite.randlogic import random_circuit
from repro.bench_suite.registry import get_circuit
from repro.errors import AnalysisError
from repro.faults.bridging import bridging_pair_sites
from repro.faults.universe import FaultUniverse
from repro.faultsim.detection import DetectionTable
from repro.logic.bitops import iter_set_bits
from repro.logic.packed import PackedSignatureMatrix
from repro.simulation.twoval import simulate_batch, simulate_vector

#: Bounds small enough to give two- and three-stratum plans (and, on
#: some circuits, the bulk-only one).
TIGHT = dict(
    max_site_support=4, max_support=6, max_strata=3, rare_threshold=0.3,
    max_candidates=8,
)


@pytest.fixture(scope="module")
def circuit():
    return random_circuit(3, num_inputs=6, num_gates=14)


@pytest.fixture(scope="module")
def plan(circuit):
    return build_bridging_strata(
        circuit, max_site_support=6, max_support=6, rare_threshold=0.3
    )


@pytest.fixture(scope="module")
def wide_circuit():
    return random_circuit(3, num_inputs=11, num_gates=33)


@pytest.fixture(scope="module")
def wide_plan(wide_circuit):
    return build_bridging_strata(
        wide_circuit, max_site_support=8, max_support=10, rare_threshold=0.3
    )


def _enumeration_vectors(circuit, support):
    """One vector per support assignment (free inputs held at 0)."""
    p, t = circuit.num_inputs, len(support)
    vectors = []
    for asg in range(1 << t):
        v = 0
        for i, pos in enumerate(support):
            if (asg >> (t - 1 - i)) & 1:
                v |= 1 << (p - 1 - pos)
        vectors.append(v)
    return vectors


def oracle_strata(
    circuit,
    max_site_support=12,
    max_support=16,
    max_strata=9,
    rare_threshold=1.0 / 16.0,
    max_candidates=256,
):
    """The planner as it was written over the whole circuit: every
    enumeration simulates all lines on big-int lane words
    (``simulate_batch``) over vectors with the free inputs at 0.

    Returns the plan and the number of selected predicates that earlier
    ones fully shadow.
    """
    p = circuit.num_inputs
    supports = _input_supports(circuit)
    sites = []
    for a, b in bridging_pair_sites(circuit):
        support = _support_positions(supports, (a, b))
        if 0 < len(support) <= max_site_support:
            sites.append((len(support), a, b, support))
    sites.sort()
    candidates = []
    for _, a, b, support in sites[:max_candidates]:
        lanes = 1 << len(support)
        values = simulate_batch(circuit, _enumeration_vectors(circuit, support))
        mask = (1 << lanes) - 1
        for va, vb in ((0, 1), (1, 0)):
            act = (values[a] if va else ~values[a] & mask) & (
                values[b] if vb else ~values[b] & mask
            )
            probability = act.bit_count() / lanes
            if 0 < probability <= rare_threshold:
                candidates.append(
                    ActivationPredicate(a, va, b, vb, support, probability)
                )
    candidates.sort(
        key=lambda c: (c.probability, c.line_a, c.line_b, c.value_a)
    )
    selected = []
    union = set()
    for cand in candidates:
        widened = union | set(cand.support)
        if len(widened) > max_support:
            continue
        selected.append(cand)
        union = widened
        if len(selected) >= max_strata - 1:
            break
    support = tuple(sorted(union))
    t = len(support)
    if not selected:
        bulk = Stratum(0, "bulk", (0,), 1 << p)
        return StrataPlan(p, (), (), (bulk,)), 0
    mask = (1 << (1 << t)) - 1
    values = simulate_batch(circuit, _enumeration_vectors(circuit, support))
    remaining = mask
    strata, kept, acts, cells = [], [], [], []
    for pred in selected:
        word_a, word_b = values[pred.line_a], values[pred.line_b]
        act = (word_a if pred.value_a else ~word_a & mask) & (
            word_b if pred.value_b else ~word_b & mask
        )
        cell = act & remaining
        if not cell:
            continue
        remaining &= ~act
        projections = tuple(iter_set_bits(cell))
        kept.append(pred)
        acts.append(act)
        cells.append(cell)
        strata.append(
            Stratum(
                len(strata), pred.label(circuit), projections,
                len(projections) << (p - t),
            )
        )
    bulk = tuple(iter_set_bits(remaining))
    strata.append(Stratum(len(strata), "bulk", bulk, len(bulk) << (p - t)))
    touches = tuple(
        tuple(h for h, cell in enumerate(cells) if act & cell)
        for act in acts
    )
    plan = StrataPlan(p, support, tuple(kept), tuple(strata), touches)
    return plan, len(selected) - len(kept)


class TestConePlanning:
    """The planner simulates each candidate's fan-in cone in packed
    words; the whole-circuit big-int enumeration is its oracle.  Plans
    must be equal and pickle to the same bytes: the plan rides in every
    stratified universe, so its bytes key shard caches and its values
    decide every draw."""

    @staticmethod
    def check(circuit, **bounds):
        expected, shadowed = oracle_strata(circuit, **bounds)
        got = build_bridging_strata(circuit, **bounds)
        assert got == expected
        assert pickle.dumps(got) == pickle.dumps(expected)
        return got, shadowed

    @pytest.mark.parametrize(
        "name", ["wide28", "wide32", "wide40", "keyb", "s1a"]
    )
    def test_suite_circuits(self, name):
        plan, _ = self.check(get_circuit(name))
        assert plan.num_strata > 1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("bounds", [{}, TIGHT], ids=["default", "tight"])
    def test_random_circuits(self, seed, bounds):
        circuit = random_circuit(seed, num_inputs=10 + seed,
                                 num_gates=40 + 5 * seed)
        self.check(circuit, **bounds)

    def test_bulk_only_plan(self):
        plan, _ = self.check(
            random_circuit(8, num_inputs=10, num_gates=38), **TIGHT
        )
        assert plan.num_strata == 1 and plan.support == ()

    def test_fully_shadowed_predicate(self):
        plan, shadowed = self.check(
            random_circuit(0, num_inputs=8, num_gates=30)
        )
        assert shadowed > 0 and plan.num_strata > 1


class TestPlanStructure:
    def test_partitions_the_universe(self, circuit, plan):
        assert plan.num_strata >= 2
        assert sum(s.population for s in plan.strata) == 1 << 6
        seen = set()
        for s in plan.strata:
            assert not seen & set(s.projections)
            seen |= set(s.projections)

    def test_stratum_of_matches_decision_list(self, circuit, plan):
        # Brute force over all of U: the first active predicate (in
        # plan order) decides the stratum; no active predicate -> bulk.
        for v in range(1 << 6):
            values = simulate_vector(circuit, v)
            expected = plan.num_strata - 1  # bulk
            for i, pred in enumerate(plan.predicates):
                if (
                    values[pred.line_a] == pred.value_a
                    and values[pred.line_b] == pred.value_b
                ):
                    expected = i
                    break
            assert plan.stratum_of(v) == expected, f"vector {v}"

    @pytest.mark.parametrize("which", ["6-input", "11-input"])
    def test_exact_activation_probabilities(self, request, which):
        # Brute force over all of U, one vector at a time.
        prefix = "" if which == "6-input" else "wide_"
        circuit = request.getfixturevalue(prefix + "circuit")
        plan = request.getfixturevalue(prefix + "plan")
        assert plan.predicates
        space = 1 << circuit.num_inputs
        active = [0] * len(plan.predicates)
        for v in range(space):
            values = simulate_vector(circuit, v)
            for i, pred in enumerate(plan.predicates):
                if (
                    values[pred.line_a] == pred.value_a
                    and values[pred.line_b] == pred.value_b
                ):
                    active[i] += 1
        for pred, count in zip(plan.predicates, active, strict=True):
            assert pred.probability == count / space

    def test_predicate_touches_exclude_bulk(self, plan):
        bulk = plan.num_strata - 1
        assert len(plan.predicate_touches) == len(plan.predicates)
        for touches in plan.predicate_touches:
            assert touches  # every kept predicate owns its stratum
            assert bulk not in touches

    def test_covered_fault_strata_bound_detection(self, circuit, plan):
        # A covered fault's detecting vectors all lie in its touched
        # strata (detection requires activation).
        universe = FaultUniverse(circuit)
        table = universe.untargeted_table
        index_of = {g: j for j, g in enumerate(table.faults)}
        checked = 0
        for fault, touched in plan.covered_fault_strata().items():
            j = index_of.get(fault)
            if j is None:
                continue
            for v in table.detecting_vectors(j):
                assert plan.stratum_of(v) in touched
            checked += 1
        assert checked > 0

    def test_draws_land_in_their_stratum(self, plan):
        rng = random.Random(7)
        for h in range(plan.num_strata):
            for _ in range(20):
                v = plan.draw_from_stratum(h, rng)
                assert plan.stratum_of(v) == h

    def test_stratum_cubes_cover_the_stratum(self, plan):
        for h in range(plan.num_strata):
            cubes = plan.stratum_cubes(h)
            members = {
                v
                for cube in cubes
                for v in cube.completions()
            }
            expected = {
                v
                for v in range(1 << 6)
                if plan.stratum_of(v) == h
            }
            assert members == expected

    def test_no_rare_sites_degenerates_to_bulk(self):
        # xor_tree has no multi-input-gate bridging pairs of interest
        # with rare activation below a tiny threshold.
        plan = build_bridging_strata(
            xor_tree(), rare_threshold=1e-9
        )
        assert plan.num_strata == 1
        assert plan.strata[0].population == 1 << xor_tree().num_inputs

    def test_bound_validation(self, circuit):
        with pytest.raises(AnalysisError, match="max_site_support"):
            build_bridging_strata(circuit, max_site_support=0)
        with pytest.raises(AnalysisError, match="max_strata"):
            build_bridging_strata(circuit, max_strata=1)
        with pytest.raises(AnalysisError, match="rare_threshold"):
            build_bridging_strata(circuit, rare_threshold=0.0)

    @pytest.mark.parametrize("name", ["random", "bbara", "wide28"])
    def test_site_supports_match_the_fanin_walk(self, circuit, name):
        # The one-pass support bitmasks give every pair site the input
        # positions of its two fan-in cones, as a per-site walk does.
        if name != "random":
            circuit = get_circuit(name)
        supports = _input_supports(circuit)
        position = {lid: j for j, lid in enumerate(circuit.inputs)}
        for a, b in bridging_pair_sites(circuit):
            cone = circuit.transitive_fanin(a) | circuit.transitive_fanin(b)
            expected = sorted(position[x] for x in cone | {a, b}
                              if x in position)
            assert _support_positions(supports, (a, b)) == tuple(expected)


class TestNeymanAllocation:
    def test_sums_and_caps(self, plan):
        m = plan.num_strata
        sigmas = [0.5] * m
        drawn = [0] * m
        alloc = neyman_allocation(plan, 32, sigmas, drawn)
        assert sum(alloc) == 32
        assert all(
            a <= s.population for a, s in zip(alloc, plan.strata, strict=True)
        )
        # Every open stratum gets at least one draw (importance floor).
        assert all(a >= 1 for a in alloc)

    def test_deterministic(self, plan):
        m = plan.num_strata
        sigmas = [0.1 * (h + 1) for h in range(m)]
        drawn = [1] * m
        a = neyman_allocation(plan, 17, sigmas, drawn)
        b = neyman_allocation(plan, 17, sigmas, drawn)
        assert a == b

    def test_respects_remaining_population(self, plan):
        m = plan.num_strata
        drawn = [s.population for s in plan.strata]  # all exhausted
        alloc = neyman_allocation(plan, 10, [0.5] * m, drawn)
        assert alloc == [0] * m

    def test_total_clamped_to_room(self, plan):
        m = plan.num_strata
        space = sum(s.population for s in plan.strata)
        alloc = neyman_allocation(plan, space + 100, [0.5] * m, [0] * m)
        assert sum(alloc) == space

    def test_validation(self, plan):
        with pytest.raises(AnalysisError, match="total"):
            neyman_allocation(plan, -1, [0.5], [0])
        with pytest.raises(AnalysisError, match="per stratum"):
            neyman_allocation(plan, 4, [0.5], [0])

    def test_weights_favor_high_variance_strata(self, plan):
        # The lone high-variance stratum is drained to its population
        # cap before the near-zero-variance peers absorb the rest.
        m = plan.num_strata
        sigmas = [1e-9] * m
        sigmas[0] = 0.5
        alloc = neyman_allocation(plan, 24, sigmas, [0] * m)
        assert alloc[0] == min(24, plan.strata[0].population)


class TestStratifiedEstimator:
    def _draw(self, plan, per_stratum, seed):
        rng = random.Random(seed)
        seen: set[int] = set()
        for h, s in enumerate(plan.strata):
            quota = min(per_stratum, s.population)
            got = 0
            while got < quota:
                v = plan.draw_from_stratum(h, rng)
                if v in seen:
                    continue
                seen.add(v)
                got += 1
        return StratifiedVectorUniverse(
            plan.num_inputs, tuple(sorted(seen)), plan=plan
        )

    def test_full_coverage_is_exact(self, circuit, plan):
        universe = self._draw(plan, 1 << 6, seed=1)
        assert universe.size == 1 << 6
        exact = FaultUniverse(circuit).untargeted_table
        table = DetectionTable.for_bridging(circuit, universe=universe)
        for j in range(len(table)):
            est = table.count_estimate(j)
            assert est.low == est.estimate == est.high
            # Per-vector identity: full coverage = the exact count.
            assert est.estimate == exact.counts()[
                exact.faults.index(table.faults[j])
            ]

    def test_estimates_unbiased_over_seeds(self, circuit, plan):
        exact_table = FaultUniverse(circuit).untargeted_table
        sums = [0.0] * len(exact_table)
        seeds = range(40)
        for seed in seeds:
            universe = self._draw(plan, 6, seed=seed)
            table = DetectionTable.for_bridging(
                circuit,
                faults=list(exact_table.faults),
                universe=universe,
                drop_undetectable=False,
            )
            for j, est in enumerate(table.estimated_counts()):
                sums[j] += est
        exact = exact_table.counts()
        for j in range(len(exact)):
            mean = sums[j] / len(seeds)
            # Calibrated: worst |mean - exact| over these seeds is ~2.1
            # on the 64-vector universe; 4.0 leaves slack.
            assert abs(mean - exact[j]) < 4.0, (
                f"fault {j}: mean {mean} vs exact {exact[j]}"
            )

    def test_intervals_cover_the_exact_count(self, circuit, plan):
        exact_table = FaultUniverse(circuit).untargeted_table
        exact = exact_table.counts()
        covered = 0
        total = 0
        for seed in range(20):
            universe = self._draw(plan, 8, seed=100 + seed)
            table = DetectionTable.for_bridging(
                circuit,
                faults=list(exact_table.faults),
                universe=universe,
                drop_undetectable=False,
            )
            for j in range(len(table)):
                est = table.count_estimate(j, confidence=0.95)
                total += 1
                if est.covers(exact[j]):
                    covered += 1
        # 95% nominal; the smoothed variance makes it conservative.
        assert covered / total >= 0.9

    def test_interval_function_matches_universe_dispatch(
        self, circuit, plan
    ):
        universe = self._draw(plan, 6, seed=5)
        table = DetectionTable.for_bridging(circuit, universe=universe)
        counts = universe.count_rows(table.packed.take([0]))[:, 0]
        assert (
            stratified_interval(universe, counts, 0.95)
            == universe.interval_for_counts(counts, 0.95)
            == table.count_estimate(0, 0.95)
        )

    def test_worst_case_nmin_estimates_use_stratified_weights(
        self, circuit, plan
    ):
        # Regression (code review): estimated_nmin_values used to apply
        # the uniform |U|/K scale to stratified samples.  Each record's
        # |U|-scale estimate must come from the witness's exclusive
        # detection set through the universe's own (weighted) estimator.
        from repro.core.worst_case import WorstCaseAnalysis

        universe = self._draw(plan, 6, seed=9)
        target = DetectionTable.for_stuck_at(circuit, universe=universe)
        untargeted = DetectionTable.for_bridging(
            circuit, universe=universe
        )
        worst = WorstCaseAnalysis(target, untargeted)
        values = worst.estimated_nmin_values()
        checked = 0
        for record, value in zip(worst.records, values, strict=True):
            if record.nmin is None:
                assert value is None
                continue
            exclusive = (
                target.packed.row_bigint(record.witness)
                & ~untargeted.packed.row_bigint(record.fault_index)
                & universe.mask
            )
            row = PackedSignatureMatrix.from_bigints([exclusive], universe.size)
            assert value == universe.estimate_rows(row)[0] + 1.0
            checked += 1
        assert checked > 0
        worst_value = max(v for v in values if v is not None)
        assert worst.estimated_guaranteed_n() == worst_value

    def test_rejects_plan_mismatch(self, plan):
        with pytest.raises(AnalysisError, match="plan"):
            StratifiedVectorUniverse(6, (1, 2, 3), plan=None)
        with pytest.raises(AnalysisError, match="input count"):
            StratifiedVectorUniverse(8, (1, 2, 3), plan=plan)


class TestStratifiedUniversePickling:
    """Stratum-mask and bit-index caches stay out of pickle payloads."""

    def test_caches_dropped_and_rebuilt(self, plan):
        import pickle

        rng = random.Random(17)
        seen: set[int] = set()
        for h, s in enumerate(plan.strata):
            quota = min(3, s.population)
            got = 0
            while got < quota:
                v = plan.draw_from_stratum(h, rng)
                if v not in seen:
                    seen.add(v)
                    got += 1
        universe = StratifiedVectorUniverse(
            plan.num_inputs, tuple(sorted(seen)), plan=plan
        )
        cold = pickle.dumps(universe)
        universe._masks_and_draws()
        for v in universe.vectors:
            universe.bit_of(v)
        warm = pickle.dumps(universe)
        assert len(warm) == len(cold)
        copy = pickle.loads(warm)
        assert copy == universe
        assert copy._stratum_masks is None and copy._bit_index is None
        copy_masks, copy_draws = copy._masks_and_draws()
        masks, draws = universe._masks_and_draws()
        assert (copy_masks == masks).all() and copy_draws == draws
        assert copy.draws_per_stratum == universe.draws_per_stratum
