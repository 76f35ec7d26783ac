"""End-to-end validation of the paper's claims on suite circuits.

These tests assert the *qualitative results* of the paper (its headline
claims), circuit by circuit, on this repository's reconstruction of the
benchmark suite:

1. Table 1 (exact): covered in tests/bench_suite/test_example.py.
2. Table 2 shape: high worst-case coverage at n=1, monotone in n; the
   small classic machines reach 100% within n <= 10.
3. Table 3 shape: the heavy circuits (keyb-class) have faults that no
   10-detection test set is guaranteed to detect; the dvram-class
   circuits additionally have nmin >= 100 tails and flat coverage curves.
4. Table 5 bridge: p(n, g) = 1 for n >= nmin(g); most hard faults are
   still detected with high probability, but low-probability stragglers
   exist.
5. Table 6 claim: Definition 2 increases detection probabilities at
   equal n.
6. The motivating premise: compact n-detection test-set size grows
   roughly linearly in n.
"""

from __future__ import annotations

import pytest

from repro.atpg.ndetect import greedy_ndetection_set
from repro.core.average_case import AverageCaseAnalysis
from repro.core.procedure1 import build_random_ndetection_sets
from repro.experiments.common import get_universe

SMALL_CLASSICS = ["lion", "train4", "dk27", "bbtas", "mc", "modulo12"]


class TestTable2Shape:
    @pytest.mark.parametrize("name", SMALL_CLASSICS)
    def test_small_machines_reach_full_coverage_by_10(self, name):
        wc = get_universe(name).worst_case
        assert wc.fraction_within(10) == 1.0

    @pytest.mark.parametrize("name", SMALL_CLASSICS + ["beecount", "s8"])
    def test_high_coverage_at_n1(self, name):
        """Large percentages of G are detected by any 1-detection set."""
        wc = get_universe(name).worst_case
        assert wc.fraction_within(1) >= 0.80

    @pytest.mark.parametrize("name", SMALL_CLASSICS)
    def test_monotone_curves(self, name):
        wc = get_universe(name).worst_case
        curve = wc.coverage_curve([1, 2, 3, 4, 5, 10])
        assert curve == sorted(curve)


class TestTable3Shape:
    def test_bbara_class_has_tail(self):
        """bbara-class circuits have faults with nmin >= 11 but none
        needing nmin >= 100 (paper: 21 faults >= 11, 0 >= 100)."""
        wc = get_universe("bbara").worst_case
        assert wc.count_at_least(11) > 0
        assert wc.count_at_least(100) == 0

    def test_small_circuits_have_no_tail(self):
        for name in SMALL_CLASSICS:
            assert get_universe(name).worst_case.count_at_least(11) == 0

    def test_tail_counts_nested(self):
        wc = get_universe("bbara").worst_case
        assert (
            wc.count_at_least(100)
            <= wc.count_at_least(20)
            <= wc.count_at_least(11)
        )


class TestAverageCaseBridge:
    @pytest.fixture(scope="class")
    def bbara(self):
        universe = get_universe("bbara")
        wc = universe.worst_case
        family = build_random_ndetection_sets(
            universe.target_table, n_max=10, num_sets=100, seed=2005
        )
        return universe, wc, family

    def test_guarantee_never_violated(self, bbara):
        universe, wc, family = bbara
        avg = AverageCaseAnalysis(family, universe.untargeted_table)
        for rec in wc.records:
            if rec.nmin is None or rec.nmin > 10:
                continue
            assert avg.detection_probability(rec.nmin, rec.fault_index) == 1.0

    def test_hard_faults_mostly_high_probability(self, bbara):
        """Paper: 'some of the faults ... have very high probabilities of
        being detected by such a test set'."""
        universe, wc, family = bbara
        hard = wc.indices_at_least(11)
        avg = AverageCaseAnalysis(
            family, universe.untargeted_table, fault_indices=hard
        )
        probs = avg.probabilities(10)
        assert sum(1 for p in probs if p >= 0.8) >= len(probs) * 0.5

    def test_probabilities_monotone_in_n(self, bbara):
        universe, wc, family = bbara
        hard = wc.indices_at_least(11)
        avg = AverageCaseAnalysis(
            family, universe.untargeted_table, fault_indices=hard
        )
        for j in hard[:10]:
            series = [
                avg.detection_probability(n, j) for n in range(1, 11)
            ]
            assert series == sorted(series)


class TestDefinition2Claim:
    def test_def2_improves_detection_probability(self):
        """Table 6's claim: the stricter counting shifts probability mass
        upward at equal n.  The effect is measured where the paper does —
        at n = 10 on the faults not guaranteed by a 10-detection set
        (at smaller n / softer fault populations it drowns in sampling
        noise; seeds are fixed to keep this deterministic)."""
        universe = get_universe("bbara")
        wc = universe.worst_case
        hard = wc.indices_at_least(11)
        assert hard, "bbara lost its nmin >= 11 tail"
        means = {}
        for counting in ("def1", "def2"):
            family = build_random_ndetection_sets(
                universe.target_table,
                n_max=10,
                num_sets=100,
                seed=17,
                counting=counting,
            )
            avg = AverageCaseAnalysis(
                family, universe.untargeted_table, fault_indices=hard
            )
            probs = avg.probabilities(10)
            means[counting] = sum(probs) / len(probs)
        assert means["def2"] >= means["def1"] - 1e-9


class TestLinearGrowthPremise:
    @pytest.mark.parametrize("name", ["lion", "bbtas", "mc"])
    def test_compact_set_size_roughly_linear(self, name):
        universe = get_universe(name)
        sizes = [
            len(greedy_ndetection_set(universe.target_table, n))
            for n in (1, 2, 4, 8)
        ]
        assert sizes == sorted(sizes)
        # Doubling n should not much more than double the size.
        for prev, cur in zip(sizes, sizes[1:], strict=False):
            assert cur <= 2.5 * prev + 4
