"""Fault dictionary and diagnosis tests."""

from __future__ import annotations

import pytest

from repro.atpg.ndetect import greedy_ndetection_set
from repro.bench_suite.registry import get_circuit
from repro.errors import AnalysisError
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import TableBackend
from repro.faultsim.dictionary import FaultDictionary


@pytest.fixture(scope="module")
def full_dictionary(example_universe):
    """Dictionary over the complete input space (maximum resolution)."""
    return FaultDictionary(
        example_universe.target_table, list(range(16))
    )


class TestConstruction:
    def test_masks_match_table(self, example_universe, full_dictionary):
        table = example_universe.target_table
        for i, sig in enumerate(table.packed.to_bigints()):
            # Over U in natural order, the mask IS the signature.
            assert full_dictionary.masks[i] == sig

    def test_duplicate_tests_rejected(self, example_universe):
        with pytest.raises(AnalysisError, match="duplicate"):
            FaultDictionary(example_universe.target_table, [1, 1])

    def test_range_checked(self, example_universe):
        with pytest.raises(AnalysisError, match="out of range"):
            FaultDictionary(example_universe.target_table, [16])

    def test_sampled_table_masks_follow_the_universe_bits(self):
        # Regression: the masks once read signature bit ``t`` for test
        # vector ``t``, which on a sampled table is some other vector's
        # bit (all-zero masks for 264 of wide28's 316 targets here).
        table = FaultUniverse(
            get_circuit("wide28"), backend=TableBackend(samples=256, seed=3)
        ).target_table
        tests = list(table.universe.vectors[:32])
        bits = [table.universe.bit_of(t) for t in tests]
        expected = [
            sum(
                1 << pos for pos, bit in enumerate(bits)
                if (table.packed.row_bigint(i) >> bit) & 1
            )
            for i in range(len(table))
        ]
        dictionary = FaultDictionary(table, tests)
        assert dictionary.masks == expected
        assert dictionary.detected_count() > 0

    def test_unsampled_vector_rejected(self):
        table = FaultUniverse(
            get_circuit("lion"), backend=TableBackend(samples=8, seed=1)
        ).target_table
        missing = next(
            v for v in range(16) if table.universe.bit_of(v) is None
        )
        with pytest.raises(AnalysisError, match="not in the table's"):
            FaultDictionary(table, [missing])


class TestDiagnosis:
    def test_injected_fault_recovered(self, example_universe, full_dictionary):
        """Simulating a fault and diagnosing its failures must rank the
        fault (or its detection-equivalents) as a candidate."""
        table = example_universe.target_table
        for i in range(len(table)):
            failing = [
                pos
                for pos, t in enumerate(full_dictionary.tests)
                if (table.packed.row_bigint(i) >> t) & 1
            ]
            candidates = full_dictionary.diagnose(failing)
            assert i in candidates
            # Every candidate is detection-equivalent to the true fault.
            for c in candidates:
                assert table.packed.row_bigint(c) == table.packed.row_bigint(i)

    def test_no_failures_diagnoses_undetected(self, example_universe):
        dictionary = FaultDictionary(example_universe.target_table, [0])
        candidates = dictionary.diagnose([])
        # Faults not detected by vector 0 all match the all-pass pattern.
        rows = example_universe.target_table.packed.to_bigints()
        expected = [i for i, sig in enumerate(rows) if not (sig & 1)]
        assert candidates == expected

    def test_subset_matching(self, full_dictionary, example_universe):
        """exact=False tolerates unobserved failures."""
        table = example_universe.target_table
        i = 0  # fault 1/1, fails on 4,5,6,7
        candidates = full_dictionary.diagnose([4, 5], exact=False)
        assert i in candidates
        assert i not in full_dictionary.diagnose([4, 5], exact=True)

    def test_position_range_checked(self, full_dictionary):
        with pytest.raises(AnalysisError):
            full_dictionary.diagnose([99])


class TestResolution:
    def test_full_space_resolution(self, full_dictionary, example_universe):
        """Over U, faults are unique up to equal detection sets."""
        table = example_universe.target_table
        distinct = len(set(table.packed.to_bigints()))
        classes = full_dictionary.equivalence_classes_under()
        assert len(classes) == distinct

    def test_resolution_monotone_in_tests(self, example_universe):
        """More tests can only improve diagnostic resolution."""
        table = example_universe.target_table
        small = FaultDictionary(table, [6, 7])
        large = FaultDictionary(table, [6, 7, 12, 1, 2])
        assert (
            large.diagnostic_resolution() >= small.diagnostic_resolution()
        )
        assert large.detected_count() >= small.detected_count()

    def test_ndetection_improves_resolution(self, example_universe):
        """The diagnosis angle on the paper's premise: higher n gives a
        finer dictionary (weakly)."""
        table = example_universe.target_table
        t1 = greedy_ndetection_set(table, 1)
        t3 = greedy_ndetection_set(table, 3)
        d1 = FaultDictionary(table, t1)
        d3 = FaultDictionary(table, t3)
        assert d3.diagnostic_resolution() >= d1.diagnostic_resolution()

    def test_empty_detection_resolution(self, example_universe):
        d = FaultDictionary(example_universe.target_table, [])
        assert d.diagnostic_resolution() == 1.0
        assert d.detected_count() == 0
