"""Stuck-at universe and collapsing, anchored on the paper's example."""

from __future__ import annotations

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gate import GateType
from repro.errors import FaultError
from repro.faults.stuck_at import (
    StuckAtFault,
    all_stuck_at_faults,
    collapsed_stuck_at_faults,
    dominance_collapsed_faults,
    equivalence_classes,
)
from repro.faultsim.detection import DetectionTable


class TestUniverse:
    def test_full_universe_size(self, example_circuit):
        assert len(all_stuck_at_faults(example_circuit)) == 22

    def test_bad_value_rejected(self):
        with pytest.raises(FaultError):
            StuckAtFault(0, 2)

    def test_name(self, example_circuit):
        f = StuckAtFault(example_circuit.lid_of("9"), 1)
        assert f.name(example_circuit) == "9/1"


class TestEquivalenceClasses:
    def test_example_classes(self, example_circuit):
        c = example_circuit
        classes = equivalence_classes(c)
        named = [
            {f.name(c) for f in members} for members in classes
        ]
        # The three published multi-fault classes.
        assert {"1/0", "5/0", "9/0"} in named
        assert {"6/0", "7/0", "10/0"} in named
        assert {"4/1", "8/1", "11/1"} in named
        # 16 classes total (22 faults - 6 merged).
        assert len(classes) == 16

    def test_classes_partition_universe(self, example_circuit):
        classes = equivalence_classes(example_circuit)
        flat = [f for members in classes for f in members]
        assert len(flat) == 22
        assert len(set(flat)) == 22

    def test_equivalent_faults_same_detection_set(self, c17_circuit):
        """Every fault in a class has the same T(f) — the defining property."""
        classes = equivalence_classes(c17_circuit)
        for members in classes:
            if len(members) == 1:
                continue
            table = DetectionTable.for_stuck_at(c17_circuit, faults=members)
            assert len(set(table.packed.to_bigints())) == 1, [
                f.name(c17_circuit) for f in members
            ]

    def test_equivalence_sound_on_example(self, example_circuit):
        classes = equivalence_classes(example_circuit)
        for members in classes:
            table = DetectionTable.for_stuck_at(
                example_circuit, faults=members
            )
            assert len(set(table.packed.to_bigints())) == 1


class TestCollapsedList:
    def test_paper_order(self, example_circuit):
        c = example_circuit
        collapsed = collapsed_stuck_at_faults(c)
        names = [f.name(c) for f in collapsed]
        assert names == [
            "1/1", "2/0", "2/1", "3/0", "3/1", "4/0", "5/1", "6/1",
            "7/1", "8/0", "9/0", "9/1", "10/0", "10/1", "11/0", "11/1",
        ]

    def test_branch_of_single_fanout_stem_collapses(self):
        b = CircuitBuilder("c")
        b.input("a")
        b.input("x")
        b.branch("a1", of="a")  # single branch: equivalent to stem
        b.gate("g", GateType.AND, ["a1", "x"])
        b.output("g")
        c = b.build(auto_branch=False)
        collapsed = collapsed_stuck_at_faults(c)
        names = {f.name(c) for f in collapsed}
        # a/0 ≡ a1/0 ≡ g/0 and a/1 ≡ a1/1: neither a fault survives.
        assert "a/0" not in names
        assert "a/1" not in names

    def test_not_chain_collapses_fully(self, tiny_not_chain):
        collapsed = collapsed_stuck_at_faults(tiny_not_chain)
        # a/0≡n1/1≡out/0 and a/1≡n1/0≡out/1: 6 faults -> 2 classes.
        assert len(collapsed) == 2

    def test_xor_has_no_equivalences(self, xor_tree_circuit):
        c = xor_tree_circuit
        # Only fanout-free-buffer/branch rules could merge; xor_tree(2) has
        # no fanout, so all 2*lines faults survive.
        assert len(collapsed_stuck_at_faults(c)) == 2 * len(c.lines)


class TestDominance:
    def test_dominance_is_subset_of_equivalence_collapse(self, example_circuit):
        eq = set(collapsed_stuck_at_faults(example_circuit))
        dom = set(dominance_collapsed_faults(example_circuit))
        assert dom < eq

    def test_example_drops_expected(self, example_circuit):
        c = example_circuit
        dom = {f.name(c) for f in dominance_collapsed_faults(c)}
        # AND gate 9: output s-a-1 dominated by 1/1 and 5/1.
        assert "9/1" not in dom
        # OR gate 11: output s-a-0 dominated by 8/0 and 4/0.
        assert "11/0" not in dom

    def test_dominated_faults_covered(self, example_circuit):
        """Any test set detecting all dominance-collapsed faults detects
        every equivalence-collapsed fault (the defining guarantee)."""
        c = example_circuit
        eq_table = DetectionTable.for_stuck_at(
            c, faults=collapsed_stuck_at_faults(c)
        )
        dom_faults = dominance_collapsed_faults(c)
        dom_table = DetectionTable.for_stuck_at(c, faults=dom_faults)
        # Build a minimal test set hitting each dominance fault once.
        test_sig = 0
        for sig in dom_table.packed.to_bigints():
            if sig and not (sig & test_sig):
                test_sig |= sig & -sig
        for sig in eq_table.packed.to_bigints():
            if sig:
                assert sig & test_sig, "dominated fault escaped"
