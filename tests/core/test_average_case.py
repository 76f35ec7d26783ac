"""Average-case analysis: p(n, g), and the bridge to the worst case."""

from __future__ import annotations

import pytest

from repro.core.average_case import (
    TABLE5_THRESHOLDS,
    AverageCaseAnalysis,
    probability_histogram,
)
from repro.core.procedure1 import build_random_ndetection_sets
from repro.core.worst_case import WorstCaseAnalysis
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def setup(example_universe):
    family = build_random_ndetection_sets(
        example_universe.target_table, n_max=5, num_sets=50, seed=11
    )
    avg = AverageCaseAnalysis(family, example_universe.untargeted_table)
    wc = WorstCaseAnalysis(
        example_universe.target_table, example_universe.untargeted_table
    )
    return family, avg, wc


class TestProbabilities:
    def test_worst_case_guarantee_holds(self, setup):
        """p(n, g) must be exactly 1 for n >= nmin(g): the average case
        cannot contradict the worst-case guarantee."""
        _family, avg, wc = setup
        for rec in wc.records:
            for n in range(rec.nmin, 6):
                assert avg.detection_probability(n, rec.fault_index) == 1.0

    def test_monotone_in_n(self, setup):
        _family, avg, _wc = setup
        for j in avg.fault_indices:
            probs = [avg.detection_probability(n, j) for n in range(1, 6)]
            assert probs == sorted(probs)

    def test_probabilities_are_fractions_of_k(self, setup):
        family, avg, _wc = setup
        for p in avg.probabilities(3):
            assert 0.0 <= p <= 1.0
            assert abs(p * family.num_sets - round(p * family.num_sets)) < 1e-9

    def test_subset_selection(self, setup, example_universe):
        family, _avg, wc = setup
        hard = wc.indices_at_least(4)
        sub = AverageCaseAnalysis(
            family, example_universe.untargeted_table, fault_indices=hard
        )
        assert sub.probabilities(1) == [
            sub.detection_probability(1, j) for j in hard
        ]

    def test_minimum_probability(self, setup):
        _family, avg, _wc = setup
        result = avg.minimum_probability(1)
        assert result is not None
        p, j = result
        assert p == min(avg.probabilities(1))
        assert j in avg.fault_indices

    def test_empty_subset(self, setup, example_universe):
        family, _avg, _wc = setup
        sub = AverageCaseAnalysis(
            family, example_universe.untargeted_table, fault_indices=[]
        )
        assert sub.probabilities(1) == []
        assert sub.minimum_probability(1) is None

    def test_width_mismatch_rejected(self, setup, c17_circuit):
        family, _avg, _wc = setup
        from repro.faultsim.detection import DetectionTable

        other = DetectionTable.for_bridging(c17_circuit)
        with pytest.raises(AnalysisError):
            AverageCaseAnalysis(family, other)


class TestHistogram:
    def test_hand_computed(self):
        probs = [1.0, 0.95, 0.5, 0.05, 0.0]
        hist = probability_histogram(probs)
        # thresholds: 1, .9, .8, .7, .6, .5, .4, .3, .2, .1, 0
        assert hist == [1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 5]

    def test_histogram_monotone(self, setup):
        _family, avg, _wc = setup
        hist = avg.histogram(5)
        assert hist == sorted(hist)
        assert hist[-1] == len(avg.fault_indices)

    def test_rounding_guard(self):
        # 0.7 is not exactly representable; the epsilon guard must count it.
        assert probability_histogram([0.7], thresholds=(0.7,)) == [1]

    def test_default_thresholds(self):
        assert TABLE5_THRESHOLDS[0] == 1.0
        assert TABLE5_THRESHOLDS[-1] == 0.0
        assert len(TABLE5_THRESHOLDS) == 11


class TestValidation:
    """Regression tests: argument validation added after PR 1."""

    def test_n_zero_rejected(self, setup):
        """n = 0 used to wrap to the *largest* n via negative indexing."""
        _family, avg, _wc = setup
        with pytest.raises(AnalysisError, match=r"n must be in \[1, 5\]"):
            avg.detection_probability(0, 0)
        with pytest.raises(AnalysisError, match=r"n must be in \[1, 5\]"):
            avg.probabilities(0)

    def test_negative_n_rejected(self, setup):
        _family, avg, _wc = setup
        with pytest.raises(AnalysisError, match="n must be"):
            avg.probabilities(-2)

    def test_n_beyond_nmax_rejected(self, setup):
        """n > n_max used to raise a bare IndexError."""
        _family, avg, _wc = setup
        with pytest.raises(AnalysisError, match="n must be"):
            avg.detection_probability(6, 0)
        with pytest.raises(AnalysisError, match="n must be"):
            avg.histogram(99)

    def test_valid_bounds_still_accepted(self, setup):
        _family, avg, _wc = setup
        assert avg.probabilities(1)
        assert avg.probabilities(5)

    def test_exhaustive_family_vs_sampled_table_rejected(self):
        """A family without an explicit universe is an exhaustive-space
        family; pairing it with a sampled table used to pass silently."""
        from repro.bench_suite.randlogic import random_circuit
        from repro.core.procedure1 import NDetectionFamily
        from repro.faults.universe import FaultUniverse
        from repro.faultsim.backends import TableBackend

        circuit = random_circuit(17, num_inputs=6, num_gates=14)
        sampled = FaultUniverse(
            circuit, backend=TableBackend(samples=16, seed=1)
        )
        family = NDetectionFamily(
            num_inputs=circuit.num_inputs,
            n_max=1,
            num_sets=2,
            counting="def1",
            snapshots=[[0b11, 0b101]],
            final_orders=[[0, 1], [0, 2]],
            universe=None,  # exhaustive by convention
        )
        with pytest.raises(AnalysisError, match="universe"):
            AverageCaseAnalysis(family, sampled.untargeted_table)

    def test_exhaustive_family_vs_exhaustive_table_accepted(
        self, example_universe
    ):
        from repro.core.procedure1 import NDetectionFamily

        family = NDetectionFamily(
            num_inputs=example_universe.circuit.num_inputs,
            n_max=1,
            num_sets=1,
            counting="def1",
            snapshots=[[0b1]],
            final_orders=[[0]],
            universe=None,
        )
        avg = AverageCaseAnalysis(family, example_universe.untargeted_table)
        assert len(avg.probabilities(1)) == len(
            example_universe.untargeted_table
        )
