"""Row paths: estimates, intervals, nmin estimates, ``p(n, g)`` and
detecting vectors read the packed rows.

Each quantity is checked with exact float equality against a scalar
formula over big-int signatures written here, on exhaustive, uniform
sampled and stratified universes.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from repro.adaptive.strata import (
    StrataPlan,
    StratifiedVectorUniverse,
    Stratum,
    build_bridging_strata,
    stratified_interval,
    stratified_rows,
    stratum_sds,
)
from repro.bench_suite.randlogic import random_circuit
from repro.core import worst_case
from repro.core.average_case import AverageCaseAnalysis
from repro.core.procedure1 import build_random_ndetection_sets
from repro.core.worst_case import WorstCaseAnalysis
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import TableBackend
from repro.faultsim.detection import DetectionTable
from repro.faultsim.sampling import (
    VectorUniverse,
    confidence_z,
    count_interval,
    draw_universe,
)
from repro.logic.bitops import set_bits


@pytest.fixture(scope="module")
def circuit():
    return random_circuit(3, num_inputs=6, num_gates=14)


@pytest.fixture(scope="module")
def wide_circuit():
    """Multi-word rows: 256 exhaustive bits, 100 sampled ones."""
    return random_circuit(7, num_inputs=8, num_gates=20)


@pytest.fixture(scope="module")
def stratified(circuit):
    """Stratum 0 exhausted, stratum 1 never drawn, the rest in part."""
    plan = build_bridging_strata(
        circuit, max_site_support=6, max_support=6, rare_threshold=0.3
    )
    assert plan.num_strata >= 3
    members = [[] for _ in plan.strata]
    for v in range(1 << plan.num_inputs):
        members[plan.stratum_of(v)].append(v)
    quota = [len(members[0]), 0] + [
        max(1, len(m) // 3) for m in members[2:]
    ]
    vectors = sorted(v for m, q in zip(members, quota, strict=True)
                     for v in m[:q])
    universe = StratifiedVectorUniverse(
        plan.num_inputs, tuple(vectors), plan=plan
    )
    assert universe.draws_per_stratum[0] == plan.strata[0].population
    assert universe.draws_per_stratum[1] == 0
    return universe


@pytest.fixture(scope="module")
def cases(circuit, wide_circuit, stratified):
    """``kind -> (circuit, universe)``; multi-word rows where possible."""
    return {
        "exhaustive": (wide_circuit, None),
        "sampled": (
            wide_circuit, draw_universe(wide_circuit.num_inputs, 100, seed=5)
        ),
        "stratified": (circuit, stratified),
    }


def _strata_bits(universe):
    """Per stratum: the signature bits of its drawn vectors."""
    bits = [[] for _ in universe.plan.strata]
    for b, v in enumerate(universe.vectors):
        bits[universe.plan.stratum_of(v)].append(b)
    return bits


def _scalar_estimate(universe, sig):
    if universe.exact:
        return float(sig.bit_count())
    if not isinstance(universe, StratifiedVectorUniverse):
        return sig.bit_count() * (universe.space / universe.size)
    est = 0.0
    for stratum, bits in zip(
        universe.plan.strata, _strata_bits(universe), strict=True
    ):
        if bits:
            k = sum(1 for b in bits if (sig >> b) & 1)
            est += stratum.population * (k / len(bits))
    return est


def _scalar_interval(universe, sig, confidence):
    """The stratified interval, stratum by stratum over a big int."""
    ks = [
        sum(1 for b in bits if (sig >> b) & 1)
        for bits in _strata_bits(universe)
    ]
    return _scalar_interval_of_counts(universe, ks, confidence)


def _scalar_interval_of_counts(universe, ks, confidence, touched=None):
    """The stratified interval of per-stratum counts ``ks``, summed over
    the strata in ``touched`` only (default: all, in plan order)."""
    z = confidence_z(confidence)
    draws = universe.draws_per_stratum
    est = var = slack = 0.0
    sample_count = 0
    for h in range(len(ks)) if touched is None else touched:
        pop, drawn, k = universe.plan.strata[h].population, draws[h], ks[h]
        sample_count += k
        if drawn == 0:
            slack += pop
            continue
        est += pop * (k / drawn)
        if drawn >= pop:
            continue
        smoothed = (k + z * z / 2.0) / (drawn + z * z)
        fpc = (pop - drawn) / (pop - 1) if pop > 1 else 0.0
        var += (pop * pop) * smoothed * (1.0 - smoothed) / drawn * fpc
    half = z * math.sqrt(var) if var > 0.0 else 0.0
    return (
        sample_count,
        est,
        max(0.0, est - half),
        min(float(universe.space), est + half + slack),
    )


def _tables(circuit, universe):
    return (
        DetectionTable.for_stuck_at(circuit, universe=universe),
        DetectionTable.for_bridging(circuit, universe=universe),
    )


KINDS = ["exhaustive", "sampled", "stratified"]


class TestEstimateRows:
    @pytest.mark.parametrize("kind", KINDS)
    def test_estimates_match_the_scalar_formula(self, cases, kind):
        for table in _tables(*cases[kind]):
            rows = table.packed.to_bigints()
            expected = [_scalar_estimate(table.universe, s) for s in rows]
            assert table.estimated_counts() == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_intervals_match_the_scalar_formula(self, cases, kind):
        table = _tables(*cases[kind])[1]
        for i, sig in enumerate(table.packed.to_bigints()):
            est = table.count_estimate(i, 0.9)
            got = (est.sample_count, est.estimate, est.low, est.high)
            if kind == "stratified":
                assert got == _scalar_interval(table.universe, sig, 0.9)
            else:
                ref = count_interval(table.universe, sig.bit_count(), 0.9)
                assert est == ref
                assert est.estimate == _scalar_estimate(table.universe, sig)


class TestNminEstimates:
    @pytest.mark.parametrize("kind", ["sampled", "stratified"])
    @pytest.mark.parametrize("block_rows", [1, 3, 2048])
    def test_witness_exclusive_set_plus_one(
        self, cases, monkeypatch, kind, block_rows
    ):
        monkeypatch.setattr(worst_case, "_G_BLOCK_ROWS", block_rows)
        circuit, universe = cases[kind]
        target, untargeted = _tables(circuit, universe)
        worst = WorstCaseAnalysis(target, untargeted)
        f_rows = target.packed.to_bigints()
        g_rows = untargeted.packed.to_bigints()
        expected = [
            None
            if rec.nmin is None
            else _scalar_estimate(
                target.universe,
                f_rows[rec.witness] & ~g_rows[rec.fault_index],
            ) + 1.0
            for rec in worst.records
        ]
        assert any(value is not None for value in expected)
        assert worst.estimated_nmin_values() == expected


class TestProbabilities:
    @pytest.mark.parametrize("kind", ["exhaustive", "sampled"])
    @pytest.mark.parametrize("block_rows", [1, 5, 2048])
    def test_hits_over_k(self, wide_circuit, monkeypatch, kind, block_rows):
        monkeypatch.setattr(worst_case, "_G_BLOCK_ROWS", block_rows)
        backend = TableBackend(samples=100, seed=5) if kind == "sampled" else None
        universe = FaultUniverse(wide_circuit, backend=backend)
        assert universe.target_table.universe.exact == (kind == "exhaustive")
        table = universe.untargeted_table
        family = build_random_ndetection_sets(
            universe.target_table, n_max=3, num_sets=7, seed=2
        )
        indices = list(range(len(table)))[::2]
        avg = AverageCaseAnalysis(family, table, fault_indices=indices)
        rows = table.packed.to_bigints()
        for n in (1, 2, 3):
            snapshots = family.snapshots[n - 1]
            expected = [
                sum(tk & rows[j] != 0 for tk in snapshots) / len(snapshots)
                for j in indices
            ]
            assert avg.probabilities(n) == expected
            assert avg.detection_probability(n, indices[-1]) == expected[-1]


class TestVectors:
    @pytest.mark.parametrize("kind", KINDS)
    def test_set_bits_of_each_row(self, cases, kind):
        for table in _tables(*cases[kind]):
            for i, sig in enumerate(table.packed.to_bigints()):
                assert table.vectors(i) == set_bits(sig)


@pytest.fixture(scope="module")
def tiny():
    """Every input in the support, so stratum ``h`` holds exactly the
    listed vectors: ``drawn == pop == 1``, 1 of 2, ``drawn == 0`` with
    ``pop == 1``, and 2 of 4."""
    plan = StrataPlan(3, (0, 1, 2), (), (
        Stratum(0, "one", (5,), 1),
        Stratum(1, "pair", (1, 2), 2),
        Stratum(2, "lone", (3,), 1),
        Stratum(3, "bulk", (0, 4, 6, 7), 4),
    ))
    universe = StratifiedVectorUniverse(3, (0, 1, 5, 6), plan=plan)
    assert universe.draws_per_stratum == (1, 1, 0, 2)
    return universe


def _count_columns(universe):
    """``strata × columns`` counts: every count the draws allow on a
    small universe, 300 seeded ones otherwise."""
    draws = universe.draws_per_stratum
    if math.prod(d + 1 for d in draws) <= 1000:
        columns = list(itertools.product(*(range(d + 1) for d in draws)))
    else:
        rng = random.Random(3)
        columns = [
            tuple(rng.randint(0, d) for d in draws) for _ in range(300)
        ]
    return np.array(columns, dtype=np.int64).T


class TestArrayIntervals:
    """The array estimators equal their scalar oracles bit for bit."""

    UNIFORM = {
        "exact": lambda: VectorUniverse(4),
        "sampled": lambda: draw_universe(8, 100, seed=5),
        "replacement": lambda: draw_universe(
            8, 100, seed=5, replacement=True
        ),
        "exhausted sample": lambda: VectorUniverse(3, tuple(range(8))),
        "K = 1": lambda: VectorUniverse(8, (37,)),
    }

    @pytest.mark.parametrize("kind", sorted(UNIFORM))
    def test_interval_rows_equal_count_interval(self, kind):
        universe = self.UNIFORM[kind]()
        counts = np.arange(universe.size + 1, dtype=np.int64)[None, :]
        est, low, high = universe.interval_rows(counts, 0.9)
        for k in range(universe.size + 1):
            ref = count_interval(universe, k, 0.9)
            assert (est[k], low[k], high[k]) == (
                ref.estimate, ref.low, ref.high
            )
            assert universe.interval_for_counts(counts[:, k], 0.9) == ref

    @pytest.mark.parametrize("confidence", [0.5, 0.95])
    @pytest.mark.parametrize("name", ["tiny", "stratified"])
    def test_stratified_rows_equal_stratified_interval(
        self, request, name, confidence
    ):
        universe = request.getfixturevalue(name)
        counts = _count_columns(universe)
        est, low, high = stratified_rows(universe, counts, confidence)
        for j in range(counts.shape[1]):
            ref = stratified_interval(universe, counts[:, j], confidence)
            assert (est[j], low[j], high[j]) == (
                ref.estimate, ref.low, ref.high
            )
            interval = universe.interval_for_counts(counts[:, j], confidence)
            assert interval == ref

    @pytest.mark.parametrize("name", ["tiny", "stratified"])
    def test_allowed_sums_the_touched_strata_only(self, request, name):
        universe = request.getfixturevalue(name)
        counts = _count_columns(universe)
        draws = universe.draws_per_stratum
        rng = random.Random(11)
        allowed = np.array(
            [[rng.random() < 0.6 for _ in range(counts.shape[1])]
             for _ in draws]
        )
        allowed[:, 0] = False  # a row that touches no stratum
        allowed[:, 1] = True
        est, low, high = stratified_rows(universe, counts, 0.9, allowed)
        sds = stratum_sds(universe, counts, 0.9, allowed)
        z = confidence_z(0.9)
        for j in range(counts.shape[1]):
            touched = [h for h in range(len(draws)) if allowed[h, j]]
            _, *ref = _scalar_interval_of_counts(
                universe, counts[:, j].tolist(), 0.9, touched
            )
            assert [est[j], low[j], high[j]] == ref
            for h, drawn in enumerate(draws):
                k = int(counts[h, j])
                smoothed = (k + z * z / 2.0) / (drawn + z * z)
                expected = (
                    0.0 if not allowed[h, j]
                    else 0.5 if drawn == 0
                    else math.sqrt(smoothed * (1.0 - smoothed))
                )
                assert sds[h, j] == expected
