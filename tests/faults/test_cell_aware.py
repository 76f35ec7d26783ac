"""Gate-exhaustive fault model: universe, detection, analysis plug-in."""

from __future__ import annotations

import pytest

from repro.core.worst_case import WorstCaseAnalysis
from repro.errors import FaultError
from repro.faults.cell_aware import (
    GateExhaustiveFault,
    GateExhaustiveFaults,
    gate_exhaustive_faults,
    gate_exhaustive_table,
)
from repro.faults.universe import FaultUniverse
from repro.simulation.twoval import simulate_vector


class TestUniverse:
    def test_example_counts(self, example_circuit):
        faults = gate_exhaustive_faults(example_circuit)
        # 3 two-input gates x 4 patterns each.
        assert len(faults) == 12

    def test_max_arity_filter(self, example_circuit):
        assert gate_exhaustive_faults(example_circuit, max_arity=1) == []

    def test_name(self, example_circuit):
        f = GateExhaustiveFault(example_circuit.lid_of("9"), 0b10)
        assert f.name(example_circuit) == "9[10]"

    def test_negative_pattern_rejected(self):
        with pytest.raises(FaultError):
            GateExhaustiveFault(0, -1)


class TestDetection:
    def test_against_manual_simulation(self, example_circuit):
        """Cross-check T(g) against an explicit two-pass simulation."""
        c = example_circuit
        table = gate_exhaustive_table(c, drop_undetectable=False)
        assert table.faults == gate_exhaustive_faults(c)
        for index, fault in enumerate(table.faults):
            det = table.packed.row_bigint(index)
            line = c.lines[fault.lid]
            arity = len(line.fanin)
            for v in range(16):
                good = simulate_vector(c, v)
                pattern = 0
                for src in line.fanin:
                    pattern = (pattern << 1) | good[src]
                if pattern != fault.pattern:
                    expected = False
                else:
                    faulty = simulate_vector(
                        c, v, forced={fault.lid: good[fault.lid] ^ 1}
                    )
                    expected = any(
                        good[o] != faulty[o] for o in c.outputs
                    )
                assert bool((det >> v) & 1) == expected, (
                    fault.name(c), v,
                )
            assert arity == 2

    def test_known_fault(self, example_circuit):
        """9 = AND(1,5): flipping its output on pattern 11 is detected on
        exactly the vectors where 1=1 and 2=1 (9 is an output)."""
        c = example_circuit
        table = gate_exhaustive_table(c)
        fault = GateExhaustiveFault(c.lid_of("9"), 0b11)
        assert table.vectors(table.faults.index(fault)) == [12, 13, 14, 15]

    def test_pattern_width_guard(self, example_circuit):
        c = example_circuit
        with pytest.raises(FaultError, match="too wide"):
            GateExhaustiveFaults.of(
                [GateExhaustiveFault(c.lid_of("9"), 0b100)]
            ).flip_terms(c)


class TestTableIntegration:
    def test_table_builds_and_filters(self, example_circuit):
        table = gate_exhaustive_table(example_circuit)
        assert len(table) > 0
        assert all(sig for sig in table.packed.to_bigints())

    def test_plugs_into_worst_case(self, example_circuit):
        universe = FaultUniverse(example_circuit)
        ge_table = gate_exhaustive_table(example_circuit)
        analysis = WorstCaseAnalysis(universe.target_table, ge_table)
        assert len(analysis) == len(ge_table)
        # Every gate-exhaustive fault overlaps some stuck-at fault here.
        assert all(r.nmin is not None for r in analysis.records)

    def test_union_of_patterns_is_gate_flip(self, example_circuit):
        """The four pattern faults of a gate partition its activation:
        their T(g) sets union to the detection set of 'output inverted
        under some pattern', and are pairwise disjoint in activation."""
        c = example_circuit
        table = gate_exhaustive_table(c, drop_undetectable=False)
        by_gate: dict[int, list[int]] = {}
        rows = table.packed.to_bigints()
        for fault, sig in zip(table.faults, rows, strict=True):
            by_gate.setdefault(fault.lid, []).append(sig)
        for lid, sigs_list in by_gate.items():
            # Activations are disjoint, so detection sets are too.
            union = 0
            total = 0
            for sig in sigs_list:
                assert (union & sig) == 0
                union |= sig
                total += sig.bit_count()
            assert union.bit_count() == total
