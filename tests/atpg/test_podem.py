"""PODEM: cross-validated against exhaustive detection tables."""

from __future__ import annotations

import random

import pytest

from repro.atpg.podem import (
    ABORTED,
    DETECTED,
    UNDETECTABLE,
    PodemResult,
    generate_test,
    is_detectable,
)
from repro.errors import AtpgError
from repro.faults.stuck_at import all_stuck_at_faults
from repro.faultsim.detection import DetectionTable
from repro.faultsim.serial import detects_stuck_at


class TestAgainstExhaustive:
    @pytest.mark.parametrize(
        "fixture",
        ["example_circuit", "c17_circuit", "majority_circuit",
         "and_or_circuit", "xor_tree_circuit"],
    )
    def test_detectability_matches(self, fixture, request):
        """PODEM's verdict must equal the exhaustive table's for every
        fault in the full (uncollapsed) universe."""
        circuit = request.getfixturevalue(fixture)
        faults = all_stuck_at_faults(circuit)
        table = DetectionTable.for_stuck_at(circuit, faults=faults)
        for i, fault in enumerate(faults):
            result = generate_test(circuit, fault, backtrack_limit=0)
            expected = bool(table.packed.row_bigint(i))
            assert (result.status == DETECTED) == expected, (
                fault.name(circuit)
            )

    @pytest.mark.parametrize(
        "fixture", ["example_circuit", "c17_circuit", "majority_circuit"]
    )
    def test_generated_cubes_detect(self, fixture, request):
        """Every completion of a PODEM cube must detect the fault."""
        circuit = request.getfixturevalue(fixture)
        for fault in all_stuck_at_faults(circuit):
            result = generate_test(circuit, fault, backtrack_limit=0)
            if result.status != DETECTED:
                continue
            for v in result.cube.completions():
                assert detects_stuck_at(circuit, fault, v), (
                    f"{fault.name(circuit)} cube {result.cube}"
                )


class TestRedundantFaults:
    def test_undetectable_identified(self):
        from repro.circuit.builder import CircuitBuilder
        from repro.circuit.gate import GateType
        from repro.faults.stuck_at import StuckAtFault

        # y = OR(a, CONST1) is constant 1: a-side faults are undetectable.
        b = CircuitBuilder("redundant")
        b.input("a")
        b.gate("k", GateType.CONST1, [])
        b.gate("y", GateType.OR, ["a", "k"])
        b.output("y")
        c = b.build()
        assert not is_detectable(c, StuckAtFault(c.lid_of("a"), 0))
        assert not is_detectable(c, StuckAtFault(c.lid_of("a"), 1))
        assert not is_detectable(c, StuckAtFault(c.lid_of("y"), 1))
        assert is_detectable(c, StuckAtFault(c.lid_of("y"), 0))


class TestResultObject:
    def test_vector_deterministic_without_rng(self, example_circuit):
        from repro.faults.stuck_at import StuckAtFault

        f = StuckAtFault(example_circuit.lid_of("1"), 1)
        result = generate_test(example_circuit, f)
        v = result.vector()
        assert detects_stuck_at(example_circuit, f, v)

    def test_vector_with_rng(self, example_circuit):
        from repro.faults.stuck_at import StuckAtFault

        f = StuckAtFault(example_circuit.lid_of("1"), 1)
        result = generate_test(example_circuit, f)
        rng = random.Random(3)
        for _ in range(10):
            assert detects_stuck_at(
                example_circuit, f, result.vector(rng)
            )

    def test_no_cube_raises(self):
        result = PodemResult(UNDETECTABLE, None)
        with pytest.raises(AtpgError):
            result.vector()

    def test_abort_status_surfaces(self):
        # A backtrack limit of 1 on an XOR-heavy circuit may abort; the
        # is_detectable wrapper must refuse to guess.
        from repro.bench_suite.example import xor_tree
        from repro.faults.stuck_at import StuckAtFault

        c = xor_tree(3)
        f = StuckAtFault(0, 1)
        result = generate_test(c, f, backtrack_limit=1)
        assert result.status in (DETECTED, ABORTED, UNDETECTABLE)
        if result.status == ABORTED:
            with pytest.raises(AtpgError, match="backtrack"):
                is_detectable(c, f, backtrack_limit=1)
