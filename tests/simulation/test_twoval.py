"""2-valued simulation: reference semantics and batch consistency."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation.twoval import (
    output_values,
    response_word,
    simulate_batch,
    simulate_vector,
)


def _example_reference(v):
    """Hand-computed truth function of the Figure 1 circuit."""
    i1 = (v >> 3) & 1
    i2 = (v >> 2) & 1
    i3 = (v >> 1) & 1
    i4 = v & 1
    return (i1 & i2, i2 & i3, i3 | i4)


class TestSimulateVector:
    def test_example_truth_table(self, example_circuit):
        for v in range(16):
            assert output_values(example_circuit, v) == _example_reference(v)

    def test_vector_out_of_range(self, example_circuit):
        with pytest.raises(SimulationError):
            simulate_vector(example_circuit, 16)
        with pytest.raises(SimulationError):
            simulate_vector(example_circuit, -1)

    def test_branch_copies_stem(self, example_circuit):
        c = example_circuit
        vals = simulate_vector(c, 0b0100)
        assert vals[c.lid_of("5")] == vals[c.lid_of("2")] == 1
        assert vals[c.lid_of("6")] == 1

    def test_forced_value(self, example_circuit):
        c = example_circuit
        forced = {c.lid_of("9"): 1}
        vals = simulate_vector(c, 0, forced=forced)
        assert vals[c.lid_of("9")] == 1

    def test_forced_input(self, example_circuit):
        c = example_circuit
        forced = {c.lid_of("1"): 1}
        vals = simulate_vector(c, 0b0100, forced=forced)
        assert vals[c.lid_of("9")] == 1  # AND(1=forced 1, 5=1)


class TestBatch:
    def test_batch_matches_singles(self, c17_circuit):
        vectors = list(range(32))
        words = simulate_batch(c17_circuit, vectors)
        for lane, v in enumerate(vectors):
            single = simulate_vector(c17_circuit, v)
            for lid in range(len(c17_circuit.lines)):
                assert (words[lid] >> lane) & 1 == single[lid]

    def test_response_word(self, example_circuit):
        responses = response_word(example_circuit, [6, 7, 12])
        assert responses == [
            _example_reference(6),
            _example_reference(7),
            _example_reference(12),
        ]

    def test_empty_batch(self, example_circuit):
        words = simulate_batch(example_circuit, [])
        assert all(w == 0 for w in words)

    @given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_batch_any_order(self, c17_circuit, vectors):
        words = simulate_batch(c17_circuit, vectors)
        for lane, v in enumerate(vectors):
            expected = output_values(c17_circuit, v)
            got = tuple(
                (words[o] >> lane) & 1 for o in c17_circuit.outputs
            )
            assert got == expected


class TestMajority:
    def test_majority_function(self, majority_circuit):
        for v in range(8):
            a, b, c = (v >> 2) & 1, (v >> 1) & 1, v & 1
            expected = int(a + b + c >= 2)
            assert output_values(majority_circuit, v) == (expected,)


class TestXorTree:
    def test_parity(self, xor_tree_circuit):
        p = xor_tree_circuit.num_inputs
        for v in range(1 << p):
            expected = bin(v).count("1") % 2
            assert output_values(xor_tree_circuit, v) == (expected,)


class TestInputLaneWords:
    """The bulk bit-transpose must match the per-bit reference exactly."""

    def _reference_words(self, circuit, vectors):
        p = circuit.num_inputs
        words = [0] * p
        for lane, v in enumerate(vectors):
            for j in range(p):
                if (v >> (p - 1 - j)) & 1:
                    words[j] |= 1 << lane
        return words

    def test_bulk_matches_per_bit_loop_10k(self, c17_circuit):
        """Regression for the quadratic lane builder: 10k-vector batch."""
        import random

        from repro.simulation.twoval import _input_lane_words

        rng = random.Random(20250807)
        p = c17_circuit.num_inputs
        vectors = [rng.randrange(1 << p) for _ in range(10_000)]
        assert _input_lane_words(c17_circuit, vectors) == (
            self._reference_words(c17_circuit, vectors)
        )

    def test_per_bit_loop_matches_beyond_64_inputs(self):
        # 65 inputs do not fit one uint64 lane, so the per-bit loop runs.
        from repro.bench_suite.randlogic import random_circuit
        from repro.simulation.twoval import _input_lane_words

        wide = random_circuit(1, num_inputs=65, num_gates=40)
        top = (1 << 65) - 1
        vectors = [3, 1 << 64, 0, top, 8, 8, top - (1 << 63)]
        assert _input_lane_words(wide, vectors) == (
            self._reference_words(wide, vectors)
        )

    def test_out_of_range_rejected_on_both_paths(self, c17_circuit):
        from repro.bench_suite.randlogic import random_circuit
        from repro.simulation.twoval import _input_lane_words

        with pytest.raises(SimulationError):
            _input_lane_words(c17_circuit, [0, 1 << c17_circuit.num_inputs])
        wide = random_circuit(1, num_inputs=65, num_gates=40)
        with pytest.raises(SimulationError):
            _input_lane_words(wide, [0, 1 << 65])

    def test_simulate_batch_10k_consistent_with_singles(self, c17_circuit):
        import random

        rng = random.Random(7)
        vectors = [rng.randrange(32) for _ in range(10_000)]
        words = simulate_batch(c17_circuit, vectors)
        for lane in (0, 1, 4999, 9998, 9999):
            expected = output_values(c17_circuit, vectors[lane])
            got = tuple(
                (words[o] >> lane) & 1 for o in c17_circuit.outputs
            )
            assert got == expected
