"""n-detection test-set generators: quotas and the linear-growth premise."""

from __future__ import annotations

import random

import pytest

from repro.atpg.ndetect import greedy_ndetection_set, podem_ndetection_set
from repro.errors import AtpgError
from repro.faultsim.serial import detects_stuck_at


class TestGreedy:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_quotas_met(self, example_universe, n):
        table = example_universe.target_table
        tests = greedy_ndetection_set(table, n)
        sig = sum(1 << t for t in tests)
        for f_sig in table.packed.to_bigints():
            want = min(n, f_sig.bit_count())
            assert (f_sig & sig).bit_count() >= want

    def test_no_duplicates(self, example_universe):
        tests = greedy_ndetection_set(example_universe.target_table, 3)
        assert len(set(tests)) == len(tests)

    def test_sizes_grow_roughly_linearly(self, example_universe):
        """The paper's premise: compact n-detection test sets grow about
        linearly with n."""
        table = example_universe.target_table
        sizes = [len(greedy_ndetection_set(table, n)) for n in (1, 2, 3, 4)]
        assert sizes == sorted(sizes)
        # Size at n=4 within a factor ~n of size at n=1 (loose linearity).
        assert sizes[3] <= 4 * sizes[0] + 4

    def test_rng_tiebreak_still_valid(self, example_universe):
        table = example_universe.target_table
        tests = greedy_ndetection_set(table, 2, rng=random.Random(9))
        sig = sum(1 << t for t in tests)
        for f_sig in table.packed.to_bigints():
            want = min(2, f_sig.bit_count())
            assert (f_sig & sig).bit_count() >= want

    def test_bad_n(self, example_universe):
        with pytest.raises(AtpgError):
            greedy_ndetection_set(example_universe.target_table, 0)


class TestPodemGenerator:
    @pytest.mark.parametrize("n", [1, 2])
    def test_quotas_met(self, example_universe, n):
        c = example_universe.circuit
        faults = example_universe.target_faults
        tests = podem_ndetection_set(c, faults, n, seed=4)
        assert len(set(tests)) == len(tests)
        for i, fault in enumerate(faults):
            cap = example_universe.target_table.count(i)
            want = min(n, cap)
            have = sum(
                1 for t in tests if detects_stuck_at(c, fault, t)
            )
            assert have >= want, fault.name(c)

    def test_bad_n(self, example_universe):
        with pytest.raises(AtpgError):
            podem_ndetection_set(
                example_universe.circuit, example_universe.target_faults, 0
            )

    def test_greedy_not_larger_than_podem(self, example_universe):
        """The table-driven greedy generator should be at least as
        compact as the per-fault PODEM generator."""
        c = example_universe.circuit
        greedy = greedy_ndetection_set(example_universe.target_table, 2)
        podem = podem_ndetection_set(
            c, example_universe.target_faults, 2, seed=1
        )
        assert len(greedy) <= len(podem) + 2
