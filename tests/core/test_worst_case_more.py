"""Deeper worst-case properties: adversarial construction vs Procedure 1.

The first class closes the loop between Sections 2 and 3 at the level of
*individual faults*: for a fault with nmin(g) = n, there must exist an
(n-1)-detection set missing g (constructed), while no Procedure-1 family
member at n may miss it (sampled).
"""

from __future__ import annotations

import pytest

from repro.core.procedure1 import build_random_ndetection_sets
from repro.core.worst_case import WorstCaseAnalysis
from repro.faults.universe import FaultUniverse
from repro.logic.bitops import iter_set_bits


@pytest.fixture(scope="module")
def majority_setup(majority_circuit):
    universe = FaultUniverse(majority_circuit)
    wc = WorstCaseAnalysis(universe.target_table, universe.untargeted_table)
    return universe, wc


class TestTightnessEndToEnd:
    def test_nmin_is_exactly_the_threshold(self, majority_setup):
        """Below nmin an escape is constructible; at nmin it never happens."""
        universe, wc = majority_setup
        family = build_random_ndetection_sets(
            universe.target_table, n_max=6, num_sets=30, seed=9
        )
        targets = universe.target_table
        for rec in wc.records:
            if rec.nmin is None or rec.nmin > 6:
                continue
            g_sig = universe.untargeted_table.packed.row_bigint(
                rec.fault_index
            )
            # (a) guarantee at n = nmin over the random family:
            for k in range(family.num_sets):
                assert family.signature(rec.nmin, k) & g_sig
            if rec.nmin == 1:
                continue
            # (b) achievable escape at n = nmin - 1:
            n = rec.nmin - 1
            adversary = 0
            for f_sig in targets.packed.to_bigints():
                want = min(n, f_sig.bit_count())
                picked = 0
                for v in iter_set_bits(f_sig & ~g_sig):
                    if picked == want:
                        break
                    adversary |= 1 << v
                    picked += 1
                assert picked == want
            assert not (adversary & g_sig)

    def test_witness_fault_forces_detection(self, majority_setup):
        """Adding nmin detections of the *witness* target alone already
        forces a test of g into the set."""
        universe, wc = majority_setup
        targets = universe.target_table
        for rec in wc.records:
            if rec.nmin is None:
                continue
            w_sig = targets.packed.row_bigint(rec.witness)
            g_sig = universe.untargeted_table.packed.row_bigint(
                rec.fault_index
            )
            outside = (w_sig & ~g_sig).bit_count()
            # nmin detections of the witness cannot fit outside T(g).
            assert outside == rec.nmin - 1 or outside < rec.nmin


class TestCrossFaultModels:
    def test_richer_target_set_never_hurts(self, majority_circuit):
        """Adding target faults can only lower (improve) nmin values."""
        from repro.faults.stuck_at import (
            all_stuck_at_faults,
            collapsed_stuck_at_faults,
        )
        from repro.faultsim.detection import DetectionTable

        collapsed = DetectionTable.for_stuck_at(
            majority_circuit, faults=collapsed_stuck_at_faults(majority_circuit)
        )
        full = DetectionTable.for_stuck_at(
            majority_circuit, faults=all_stuck_at_faults(majority_circuit)
        )
        untargeted = DetectionTable.for_bridging(majority_circuit)
        wc_collapsed = WorstCaseAnalysis(collapsed, untargeted)
        wc_full = WorstCaseAnalysis(full, untargeted)
        for a, b in zip(wc_collapsed.records, wc_full.records, strict=True):
            a_val = a.nmin if a.nmin is not None else 10**9
            b_val = b.nmin if b.nmin is not None else 10**9
            assert b_val <= a_val

    def test_collapsing_preserves_nmin(self, majority_circuit):
        """Equivalence collapsing must NOT change nmin: merged faults
        have identical detection sets, so the min is unaffected."""
        from repro.faults.stuck_at import (
            all_stuck_at_faults,
            collapsed_stuck_at_faults,
        )
        from repro.faultsim.detection import DetectionTable

        collapsed = DetectionTable.for_stuck_at(
            majority_circuit, faults=collapsed_stuck_at_faults(majority_circuit)
        )
        full = DetectionTable.for_stuck_at(
            majority_circuit, faults=all_stuck_at_faults(majority_circuit)
        )
        untargeted = DetectionTable.for_bridging(majority_circuit)
        wc_collapsed = WorstCaseAnalysis(collapsed, untargeted)
        wc_full = WorstCaseAnalysis(full, untargeted)
        for a, b in zip(wc_collapsed.records, wc_full.records, strict=True):
            assert a.nmin == b.nmin
