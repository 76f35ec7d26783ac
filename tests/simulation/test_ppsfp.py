"""PPSFP kernel unit tests: word layout, batching, wide universes.

The kernel-vs-serial sweep over the suite lives in
``tests/test_ppsfp_differential.py``; this module covers the kernel's
own invariants — base words vs the big-int simulators, batching
invariance, input-site forcing, non-word-multiple universe sizes,
word-block reuse across batches, gate evaluation against
``eval_signature``, and exhaustive universes past 4,096 words per row
checked against the serial oracle.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.bench_suite.randlogic import random_circuit
from repro.bench_suite.registry import get_circuit
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gate import GateType, eval_signature
from repro.circuit.netlist import LineKind
from repro.errors import SimulationError
from repro.faults.bridging import four_way_bridging_faults
from repro.faults.stuck_at import (
    StuckAtFault,
    StuckAtFaults,
    collapsed_stuck_at_faults,
)
from repro.faultsim.detection import DetectionTable
from repro.faultsim.sampling import VectorUniverse, draw_universe
from repro.faultsim.serial import detects
from repro.logic.packed import (
    PackedSignatureMatrix,
    pack_signature,
    words_for,
)
from repro.simulation import exhaustive, ppsfp, twoval


def _sampled(circuit, k, seed=11):
    k = min(k, 1 << circuit.num_inputs)
    return draw_universe(circuit.num_inputs, k, seed=seed)


def _matrix(circuit, universe, faults, batch_rows=None):
    """The kernel's rows for a fault array, via its flip form."""
    return ppsfp.flip_matrix(
        faults.kind, circuit, universe, *faults.flip_terms(circuit),
        batch_rows=batch_rows,
    )


def _serial_rows(circuit, universe, faults):
    """Big-int detection rows over ``universe`` from the serial oracle."""
    return [
        sum(
            1 << bit
            for bit in range(universe.size)
            if detects(circuit, fault, universe.vector_at(bit))
        )
        for fault in faults
    ]


class TestInputLaneMatrix:
    @pytest.mark.parametrize("p,count", [(3, 5), (6, 64), (7, 100)])
    def test_matches_per_bit_definition(self, p, count):
        import random

        rng = random.Random(p * 1000 + count)
        vectors = [rng.randrange(1 << p) for _ in range(count)]
        rows = ppsfp.input_lane_matrix(p, vectors)
        assert rows.shape == (p, words_for(count))
        for j in range(p):
            want = 0
            for lane, v in enumerate(vectors):
                if (v >> (p - 1 - j)) & 1:
                    want |= 1 << lane
            got = int.from_bytes(
                rows[j].astype("<u8", copy=False).tobytes(), "little"
            )
            assert got == want

    def test_out_of_range_vector_rejected(self):
        with pytest.raises(SimulationError):
            ppsfp.input_lane_matrix(3, [0, 8])
        with pytest.raises(SimulationError):
            ppsfp.input_lane_matrix(3, [-1])

    def test_wide_vectors_rejected(self):
        with pytest.raises(SimulationError):
            ppsfp.input_lane_matrix(65, [0])


def _base_circuit(name):
    if name == "aliasing":
        return _aliasing_circuit()
    if name == "random19":
        return random_circuit(3, num_inputs=19, num_gates=40)
    return get_circuit(name)


class TestBaseWords:
    @pytest.mark.parametrize(
        "name", ["lion", "beecount", "wide28", "aliasing", "random19"]
    )
    def test_base_matches_big_int_signatures(self, name):
        """Base words equal the big-int simulators' line signatures:
        ``exhaustive.line_signatures`` over all of ``U``,
        ``twoval.simulate_batch`` over a draw (a partial final word);
        ``random19`` is a multi-word exhaustive universe."""
        circuit = _base_circuit(name)
        row_of, owners = ppsfp.line_rows(circuit)
        universes = [_sampled(circuit, 77)]
        if circuit.num_inputs <= 19:
            universes.append(VectorUniverse(circuit.num_inputs))
        if circuit.num_inputs >= 19:
            universes.append(_sampled(circuit, 5000))
        for universe in universes:
            base = ppsfp.packed_line_words(circuit, universe)
            assert len(base) == len(owners)
            if universe.exhaustive:
                sigs = exhaustive.line_signatures(circuit)
            else:
                sigs = twoval.simulate_batch(circuit, universe.vectors)
            want = PackedSignatureMatrix.from_bigints(sigs, universe.size)
            assert np.array_equal(base[row_of], want.words), (
                f"{name}: base words differ over {universe!r}"
            )


class TestKernelGates:
    def test_batch_rows_bounds(self):
        assert ppsfp.batch_rows_for(1) == ppsfp.MAX_BATCH_ROWS
        assert ppsfp.batch_rows_for(10**9) == 1


class TestDetectionMatrices:
    def test_batching_invariance(self):
        circuit = random_circuit(5, num_inputs=6, num_gates=14)
        universe = _sampled(circuit, 37)  # not a multiple of 64
        faults = collapsed_stuck_at_faults(circuit)
        whole = _matrix(circuit, universe, faults, batch_rows=len(faults))
        tiny = _matrix(circuit, universe, faults, batch_rows=3)
        assert whole.to_bigints() == tiny.to_bigints()
        bfaults = four_way_bridging_faults(circuit)
        whole = _matrix(circuit, universe, bfaults, batch_rows=len(bfaults))
        tiny = _matrix(circuit, universe, bfaults, batch_rows=5)
        assert whole.to_bigints() == tiny.to_bigints()

    def test_matches_big_int_table_including_input_sites(self):
        circuit = get_circuit("lion")
        universe = VectorUniverse(circuit.num_inputs)
        # Faults on every input and branch line, both polarities: the
        # pre-seeded input path and the branch-alias path are on-table.
        faults = StuckAtFaults.of([
            StuckAtFault(ln.lid, v)
            for ln in circuit.lines
            if ln.kind in (LineKind.INPUT, LineKind.BRANCH)
            for v in (0, 1)
        ])
        matrix = _matrix(circuit, universe, faults)
        assert matrix.to_bigints() == _serial_rows(circuit, universe, faults)

    def test_non_word_multiple_universe(self):
        circuit = random_circuit(9, num_inputs=7, num_gates=18)
        universe = _sampled(circuit, 70)  # 70 bits -> 2 words, 6 spare
        faults = collapsed_stuck_at_faults(circuit)
        matrix = _matrix(circuit, universe, faults)
        assert matrix.to_bigints() == _serial_rows(circuit, universe, faults)
        mask = universe.mask
        for sig in matrix.to_bigints():
            assert sig & ~mask == 0, "detection bits beyond the universe"

    def test_zero_activation_bridging_rows_are_zero(self, check_serial_bits):
        circuit = get_circuit("beecount")
        universe = _sampled(circuit, 9, seed=5)
        faults = four_way_bridging_faults(circuit)
        matrix = _matrix(circuit, universe, faults)
        sigs = twoval.simulate_batch(circuit, universe.vectors)
        mask = universe.mask

        def matched(lid, value):
            return sigs[lid] if value else ~sigs[lid] & mask

        idle = [
            i for i, g in enumerate(faults)
            if not (
                matched(g.victim, g.victim_value)
                & matched(g.aggressor, g.aggressor_value)
            )
        ]
        assert idle, "every fault activated; pick a smaller draw"
        rows = matrix.to_bigints()
        assert all(rows[i] == 0 for i in idle)
        check_serial_bits(
            DetectionTable(circuit, faults, matrix, universe), bits=512
        )


def _aliasing_circuit():
    """Every way a line can share its fanin's word block, plus fanout.

    BUF and unary AND return their input; branches alias their stem; an
    input and gates that feed other gates are also outputs.
    """
    b = CircuitBuilder("aliasing")
    for name in "abcd":
        b.input(name)
    b.gate("g1", GateType.AND, ["a", "b"])
    b.gate("g2", GateType.BUF, ["g1"])
    b.gate("g3", GateType.AND, ["g2"])
    b.gate("g4", GateType.XNOR, ["g3", "c"])
    b.gate("g5", GateType.OR, ["g1", "d"])
    b.gate("g6", GateType.NAND, ["g4", "g5", "a"])
    b.gate("g7", GateType.NOT, ["g6"])
    b.gate("g8", GateType.XOR, ["g7", "g2", "d"])
    b.gate("g9", GateType.NOR, ["g8"])
    for name in ("g9", "g5", "g3", "a"):
        b.output(name)
    return b.build(auto_branch=True)


class TestBlockPool:
    """One simulator reuses its word blocks across and within batches."""

    @pytest.mark.parametrize(
        "make",
        [
            _aliasing_circuit,
            lambda: random_circuit(7, num_inputs=6, num_gates=30),
        ],
    )
    def test_long_lived_simulator_matches_cone_path(self, make):
        """Rows of one pooled simulator fed batches of changing sizes
        equal a fresh per-table cone pass and the serial oracle."""
        circuit = make()
        universe = _sampled(circuit, 50)
        faults = [
            StuckAtFault(ln.lid, v) for ln in circuit.lines for v in (0, 1)
        ]
        random.Random(3).shuffle(faults)
        sim = ppsfp.PackedSimulator(circuit, universe)
        rows = []
        start = 0
        # Batches of changing sizes take their blocks from one pool.
        for size in itertools.cycle((1, 9, 3, 40, 2, 17)):
            batch = faults[start : start + size]
            if not batch:
                break
            start += size
            values = np.array([f.value for f in batch], dtype=bool)
            forced = np.where(values[:, None], sim.mask_row, np.uint64(0))
            det = sim.detection_rows([f.lid for f in batch], forced)
            rows += [int.from_bytes(r.tobytes(), "little") for r in det]
        table = DetectionTable.for_stuck_at(
            circuit, faults=faults, universe=universe
        )
        assert rows == table.packed.to_bigints()
        assert rows == _serial_rows(circuit, universe, faults)


class TestEvalWords:
    @pytest.mark.parametrize(
        ("gate_type", "arity"),
        [
            (gt, arity)
            for gt in GateType
            for arity in (
                [0] if gt in (GateType.CONST0, GateType.CONST1)
                else [1] if gt in (GateType.BUF, GateType.NOT)
                else [1, 2, 3, 4]
            )
        ],
        ids=str,
    )
    def test_matches_eval_signature(self, gate_type, arity):
        size = 100  # two words, the last one partial
        full = (1 << size) - 1
        mask = pack_signature(full, size)
        rng = random.Random(arity)
        batch = [
            [rng.getrandbits(size) for _ in range(arity)] for _ in range(3)
        ]
        # Word rows (W,) broadcast against batch blocks (B, W).
        inputs = [
            np.stack([pack_signature(row[i], size) for row in batch])
            if i % 2 else pack_signature(batch[0][i], size)
            for i in range(arity)
        ]
        for row in batch:
            row[0::2] = batch[0][0::2]
        words = np.broadcast_to(
            ppsfp.eval_words(gate_type, inputs, mask), (3, 2)
        )
        for got, row in zip(words, batch, strict=True):
            expected = eval_signature(gate_type, row, full)
            assert int.from_bytes(got.tobytes(), "little") == expected


class TestWideFallback:
    """Exhaustive universes past 4,096 words per row: still the kernel."""

    def test_wide_exhaustive_universe_matches_serial(self, check_serial_bits):
        from repro import obs
        from repro.obs.tracer import ListTraceWriter, Tracer

        circuit = random_circuit(3, num_inputs=19, num_gates=12)
        universe = VectorUniverse(circuit.num_inputs)
        assert words_for(universe.size) == 8192
        writer = ListTraceWriter()
        previous = obs.activate(Tracer(writer, trace_id="T"))
        try:
            tables = (
                DetectionTable.for_stuck_at(circuit),
                DetectionTable.for_bridging(circuit),
            )
        finally:
            obs.reset(previous)
        words = [
            r["attrs"]["words"]
            for r in writer.records
            if r["name"] == "ppsfp_matrix"
        ]
        assert words == [8192, 8192]
        for seed, table in enumerate(tables):
            check_serial_bits(table, bits=512, seed=seed)

    def test_past_the_exhaustive_cap_raises(self):
        with pytest.raises(SimulationError, match="partition"):
            DetectionTable.for_stuck_at(get_circuit("wide28"))
