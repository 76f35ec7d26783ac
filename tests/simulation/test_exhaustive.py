"""Exhaustive signatures: agreement with per-vector simulation, resim."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.faultsim.sampling import VectorUniverse
from repro.logic.bitops import all_ones_mask
from repro.logic.packed import pack_signature
from repro.simulation.exhaustive import (
    line_signatures,
    output_response_signatures,
)
from repro.simulation.ppsfp import PackedSimulator
from repro.simulation.twoval import simulate_vector


class TestLineSignatures:
    @pytest.mark.parametrize(
        "fixture",
        ["example_circuit", "c17_circuit", "majority_circuit", "and_or_circuit"],
    )
    def test_matches_per_vector_sim(self, fixture, request):
        circuit = request.getfixturevalue(fixture)
        sigs = line_signatures(circuit)
        for v in range(1 << circuit.num_inputs):
            vals = simulate_vector(circuit, v)
            for lid in range(len(circuit.lines)):
                assert (sigs[lid] >> v) & 1 == vals[lid], (
                    f"line {circuit.lines[lid].name} vector {v}"
                )

    def test_example_known_signatures(self, example_circuit):
        sigs = line_signatures(example_circuit)
        c = example_circuit
        assert sigs[c.lid_of("9")] == 0xF000   # vectors 12-15
        assert sigs[c.lid_of("10")] == 0xC0C0  # vectors 6,7,14,15
        assert sigs[c.lid_of("11")] == 0xEEEE  # all but 0,4,8,12

    def test_output_response_signatures(self, example_circuit):
        outs = output_response_signatures(example_circuit)
        assert outs == [0xF000, 0xC0C0, 0xEEEE]

    def test_input_cap(self):
        from repro.circuit.builder import CircuitBuilder
        from repro.circuit.gate import GateType

        b = CircuitBuilder("wide")
        names = [b.input(f"x{i}") for i in range(25)]
        b.gate("g", GateType.AND, names)
        b.output("g")
        with pytest.raises(SimulationError, match="partition"):
            line_signatures(b.build())


class TestResimulateCone:
    """Forced-value cone re-simulation over ``U``, by the word-parallel
    kernel: the detection set of one forced line signature."""

    def _detect(self, c, lid, forced):
        universe = VectorUniverse(c.num_inputs)
        sim = PackedSimulator(c, universe)
        words = pack_signature(forced, universe.size)[None, :]
        row = sim.detection_rows([lid], words)[0]
        return int.from_bytes(row.tobytes(), "little")

    def test_stuck_at_injection(self, example_circuit):
        c = example_circuit
        mask = all_ones_mask(4)
        # Line 5 (branch of 2) stuck at 1: 9 = AND(1, 5) becomes input 1
        # (0xFF00 instead of 0xF000); 10 and 11 read other branches.
        det = self._detect(c, c.lid_of("5"), mask)
        assert det == 0xFF00 ^ 0xF000

    def test_noop_forcing(self, example_circuit):
        c = example_circuit
        sigs = line_signatures(c)
        det = self._detect(c, c.lid_of("9"), sigs[c.lid_of("9")])
        assert det == 0

    def test_detection_signature(self, example_circuit):
        c = example_circuit
        mask = all_ones_mask(4)
        # 9 stuck at 1: detected whenever fault-free 9 = 0 (9 is a PO).
        det = self._detect(c, c.lid_of("9"), mask)
        assert det == ~0xF000 & mask

    def test_partial_forcing_bridging_style(self, example_circuit):
        """Forcing only some vectors' bits (as bridging faults do)."""
        c = example_circuit
        sigs = line_signatures(c)
        s9 = sigs[c.lid_of("9")]
        flipped = s9 ^ (1 << 12)  # flip vector 12 only
        det = self._detect(c, c.lid_of("9"), flipped)
        assert det == 1 << 12
