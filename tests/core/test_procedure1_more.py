"""Procedure 1 corner cases: exhaustion, tiny universes, huge n."""

from __future__ import annotations

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gate import GateType
from repro.core.procedure1 import build_random_ndetection_sets
from repro.faultsim.detection import DetectionTable


@pytest.fixture()
def tiny_table():
    """1-gate circuit: some faults have very small detection sets."""
    b = CircuitBuilder("tiny")
    b.input("a")
    b.input("b")
    b.gate("y", GateType.AND, ["a", "b"])
    b.output("y")
    return DetectionTable.for_stuck_at(b.build())


class TestExhaustion:
    def test_n_larger_than_any_detection_set(self, tiny_table):
        """When n exceeds N(f), all of T(f) is included — the paper's
        'If a fault has fewer than n different test vectors that detect
        it, all its test vectors are included.'"""
        family = build_random_ndetection_sets(
            tiny_table, n_max=10, num_sets=5, seed=0
        )
        final = family.snapshots[-1]
        for sig in tiny_table.packed.to_bigints():
            if not sig:
                continue
            for tk in final:
                assert sig & tk == sig  # every test vector included

    def test_sets_stop_growing_after_saturation(self, tiny_table):
        family = build_random_ndetection_sets(
            tiny_table, n_max=10, num_sets=3, seed=1
        )
        # The whole useful space is 4 vectors; growth must stall.
        sizes = [max(family.sizes(n)) for n in range(1, 11)]
        assert sizes[-1] == sizes[-2]
        assert sizes[-1] <= 4

    def test_def2_with_exhaustion(self, tiny_table):
        family = build_random_ndetection_sets(
            tiny_table, n_max=6, num_sets=4, seed=2, counting="def2"
        )
        final = family.snapshots[-1]
        for sig in tiny_table.packed.to_bigints():
            if not sig:
                continue
            for tk in final:
                assert sig & tk == sig


class TestUndetectableTargets:
    def test_undetectable_targets_ignored(self):
        b = CircuitBuilder("red")
        b.input("a")
        b.gate("k", GateType.CONST1, [])
        b.gate("y", GateType.OR, ["a", "k"])
        b.output("y")
        table = DetectionTable.for_stuck_at(b.build())
        assert any(sig == 0 for sig in table.packed.to_bigints())
        family = build_random_ndetection_sets(
            table, n_max=3, num_sets=4, seed=3
        )
        # Detectable faults still reach their quotas.
        for sig in table.packed.to_bigints():
            if not sig:
                continue
            for tk in family.snapshots[-1]:
                assert (sig & tk).bit_count() >= min(3, sig.bit_count())


class TestSingleSet:
    def test_k_equals_one(self, tiny_table):
        family = build_random_ndetection_sets(
            tiny_table, n_max=2, num_sets=1, seed=4
        )
        assert family.num_sets == 1
        assert len(family.snapshots) == 2

    def test_nmax_one_is_plain_detection_set(self, tiny_table):
        family = build_random_ndetection_sets(
            tiny_table, n_max=1, num_sets=8, seed=5
        )
        for k in range(8):
            tk = family.signature(1, k)
            for sig in tiny_table.packed.to_bigints():
                if sig:
                    assert sig & tk
