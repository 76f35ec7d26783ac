"""Definition 1 / Definition 2 detection counting."""

from __future__ import annotations

import pytest

from repro.core.definitions import (
    count_detections_def1,
    count_detections_def2,
    count_detections_def2_exact,
)
from repro.logic.bitops import signature_from_vectors


class TestDef1:
    def test_simple_intersection(self):
        f_sig = signature_from_vectors([4, 5, 6, 7], 4)
        t_sig = signature_from_vectors([5, 6, 12], 4)
        assert count_detections_def1(f_sig, t_sig) == 2

    def test_empty(self):
        assert count_detections_def1(0b1111, 0) == 0


class TestDef2Greedy:
    def test_never_exceeds_def1(self, example_universe):
        c = example_universe.circuit
        table = example_universe.target_table
        tests = list(range(16))
        for i, fault in enumerate(table.faults):
            sig = table.packed.row_bigint(i)
            d1 = count_detections_def1(sig, (1 << 16) - 1)
            d2 = count_detections_def2(c, fault, sig, tests)
            assert 0 <= d2 <= d1

    def test_at_least_one_when_detected(self, example_universe):
        c = example_universe.circuit
        table = example_universe.target_table
        for i, fault in enumerate(table.faults):
            sig = table.packed.row_bigint(i)
            if sig:
                d2 = count_detections_def2(c, fault, sig, list(range(16)))
                assert d2 >= 1

    def test_similar_tests_counted_once(self, example_universe):
        """Tests 4 and 5 share the detecting condition of 1/1 (common
        cube 010x detects it), so they count as one detection."""
        c = example_universe.circuit
        table = example_universe.target_table
        idx = [table.fault_name(i) for i in range(len(table))].index("1/1")
        fault = table.faults[idx]
        sig = table.packed.row_bigint(idx)
        assert count_detections_def2(c, fault, sig, [4, 5]) == 1
        assert count_detections_def2(c, fault, sig, [4]) == 1

    def test_order_dependence_is_bounded(self, example_universe):
        """Greedy count varies with order but stays within [1, exact]."""
        c = example_universe.circuit
        table = example_universe.target_table
        for i, fault in enumerate(table.faults):
            sig = table.packed.row_bigint(i)
            if not sig:
                continue
            vecs = table.vectors(i)
            exact = count_detections_def2_exact(c, fault, sig, vecs)
            forward = count_detections_def2(c, fault, sig, vecs)
            backward = count_detections_def2(
                c, fault, sig, list(reversed(vecs))
            )
            assert 1 <= forward <= exact
            assert 1 <= backward <= exact


class TestDef2Exact:
    def test_exact_at_least_greedy(self, example_universe):
        c = example_universe.circuit
        table = example_universe.target_table
        for i, fault in enumerate(table.faults):
            sig = table.packed.row_bigint(i)
            if not sig:
                continue
            vecs = table.vectors(i)
            assert count_detections_def2_exact(
                c, fault, sig, vecs
            ) >= count_detections_def2(c, fault, sig, vecs)

    def test_guard_on_large_instances(self, example_universe):
        c = example_universe.circuit
        table = example_universe.target_table
        with pytest.raises(ValueError, match="max_tests"):
            count_detections_def2_exact(
                c, table.faults[0], table.packed.row_bigint(0),
                list(range(16)), max_tests=1,
            )

    def test_trivial_cases(self, example_universe):
        c = example_universe.circuit
        table = example_universe.target_table
        fault = table.faults[0]
        sig = table.packed.row_bigint(0)
        assert count_detections_def2_exact(c, fault, sig, []) == 0
        one = [table.vectors(0)[0]]
        assert count_detections_def2_exact(c, fault, sig, one) == 1
