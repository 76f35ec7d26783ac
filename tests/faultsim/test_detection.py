"""Detection tables: cross-validation against the serial simulator."""

from __future__ import annotations

import pytest

from repro.faults.bridging import four_way_bridging_faults
from repro.faults.stuck_at import collapsed_stuck_at_faults
from repro.faultsim.detection import DetectionTable
from repro.faultsim.serial import detects_bridging, detects_stuck_at


class TestStuckAtTable:
    @pytest.mark.parametrize(
        "fixture", ["example_circuit", "c17_circuit", "majority_circuit"]
    )
    def test_agrees_with_serial_engine(self, fixture, request):
        """The exhaustive engine and the independent per-vector engine
        must produce identical detection sets for every fault."""
        circuit = request.getfixturevalue(fixture)
        table = DetectionTable.for_stuck_at(circuit)
        for i, fault in enumerate(table.faults):
            expected = [
                v
                for v in range(1 << circuit.num_inputs)
                if detects_stuck_at(circuit, fault, v)
            ]
            assert table.vectors(i) == expected, table.fault_name(i)

    def test_undetectable_faults_kept_by_default(self):
        from repro.circuit.builder import CircuitBuilder
        from repro.circuit.gate import GateType

        b = CircuitBuilder("redundant")
        b.input("a")
        b.gate("k", GateType.CONST0, [])
        b.gate("g", GateType.OR, ["a", "k"])
        b.output("g")
        c = b.build()
        table = DetectionTable.for_stuck_at(c)
        # k stuck-at-0 is undetectable (k is already 0).
        undetectable = [
            table.fault_name(i)
            for i in range(len(table))
            if not table.packed.row_bigint(i)
        ]
        assert "k/0" in undetectable

    def test_drop_undetectable(self):
        from repro.circuit.builder import CircuitBuilder
        from repro.circuit.gate import GateType

        b = CircuitBuilder("redundant")
        b.input("a")
        b.gate("k", GateType.CONST0, [])
        b.gate("g", GateType.OR, ["a", "k"])
        b.output("g")
        c = b.build()
        table = DetectionTable.for_stuck_at(c, drop_undetectable=True)
        assert all(sig for sig in table.packed.to_bigints())


class TestBridgingTable:
    @pytest.mark.parametrize(
        "fixture", ["example_circuit", "majority_circuit", "and_or_circuit"]
    )
    def test_agrees_with_serial_engine(self, fixture, request):
        circuit = request.getfixturevalue(fixture)
        table = DetectionTable.for_bridging(circuit, drop_undetectable=False)
        for i, fault in enumerate(table.faults):
            expected = [
                v
                for v in range(1 << circuit.num_inputs)
                if detects_bridging(circuit, fault, v)
            ]
            assert table.vectors(i) == expected, table.fault_name(i)

    def test_detectable_only_by_default(self, example_circuit):
        table = DetectionTable.for_bridging(example_circuit)
        assert all(sig for sig in table.packed.to_bigints())

    def test_activation_semantics(self, example_circuit):
        """(9,0,10,1) activates where fault-free 9=0 and 10=1."""
        c = example_circuit
        fault = four_way_bridging_faults(c)[0]
        table = DetectionTable.for_bridging(
            c, faults=[fault], drop_undetectable=False
        )
        assert table.vectors(0) == [6, 7]


class TestTableQueries:
    def test_counts(self, example_universe):
        table = example_universe.target_table
        assert table.counts() == [
            table.packed.row_bigint(i).bit_count() for i in range(len(table))
        ]
        assert table.count(0) == 4  # T(1/1) = {4,5,6,7}

    def test_detected_by(self, example_universe):
        table = example_universe.target_table
        test_sig = (1 << 6) | (1 << 7)
        hit = table.detected_by(test_sig)
        names = {table.fault_name(i) for i in hit}
        assert names == {"1/1", "2/0", "3/0", "8/0", "9/1", "10/0", "11/0"}

    def test_coverage(self, example_universe):
        table = example_universe.target_table
        full = (1 << 16) - 1
        assert table.coverage(full) == 1.0
        assert table.coverage(0) == 0.0

    def test_detection_counts(self, example_universe):
        table = example_universe.target_table
        counts = table.detection_counts((1 << 6) | (1 << 12))
        by_name = dict(
            zip(
                [table.fault_name(i) for i in range(len(table))],
                counts,
                strict=True,
            )
        )
        assert by_name["1/1"] == 1   # vector 6 only
        assert by_name["2/0"] == 2   # vectors 6 and 12

    def test_mismatched_lengths_rejected(self, example_circuit):
        from repro.errors import FaultError

        faults = collapsed_stuck_at_faults(example_circuit)
        with pytest.raises(FaultError):
            DetectionTable.from_signatures(example_circuit, faults, [0])


class TestExplicitBaseSignatures:
    """Tables from explicit inputs: an empty fault list, big-int rows."""

    def test_empty_faults_and_signatures_build_empty_table(
        self, example_circuit
    ):
        table = DetectionTable.for_stuck_at(example_circuit, faults=[])
        assert len(table) == 0
        assert table.packed.words.shape == (0, 1)

    def test_explicit_signatures_used(self, example_universe):
        table = example_universe.target_table
        rows = DetectionTable.from_signatures(
            table.circuit, table.faults, table.packed.to_bigints()
        )
        assert rows == table
