"""Cross-engine property tests on random circuits (second wave).

Each test pits two independent implementations of the same question
against each other on randomly generated netlists:

* PODEM (search-based) vs exhaustive tables (enumeration) on
  detectability *and* on the tests they produce;
* bridging detection signatures vs the serial per-vector engine;
* gate-exhaustive signatures vs a brute-force two-pass simulation;
* greedy n-detection sets vs the Definition 1 counting invariant.
"""

from __future__ import annotations

import random as pyrandom

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg.ndetect import greedy_ndetection_set
from repro.atpg.podem import DETECTED, generate_test
from repro.bench_suite.randlogic import random_circuit
from repro.faults.cell_aware import gate_exhaustive_table
from repro.faultsim.detection import DetectionTable
from repro.faultsim.serial import detects_bridging, detects_stuck_at
from repro.simulation.twoval import simulate_vector

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _circuit_from(seed: int, gates: int = 16):
    return random_circuit(seed % 9973, num_inputs=5, num_gates=gates)


@given(st.integers(min_value=0, max_value=10**6))
@_SETTINGS
def test_podem_agrees_with_exhaustive(seed):
    circuit = _circuit_from(seed)
    table = DetectionTable.for_stuck_at(circuit)
    rng = pyrandom.Random(seed)
    indices = rng.sample(range(len(table)), min(8, len(table)))
    for i in indices:
        fault = table.faults[i]
        result = generate_test(circuit, fault, backtrack_limit=0)
        detectable = bool(table.packed.row_bigint(i))
        assert (result.status == DETECTED) == detectable, (
            fault.name(circuit)
        )
        if result.status == DETECTED:
            v = result.vector()
            assert (table.packed.row_bigint(i) >> v) & 1


@given(st.integers(min_value=0, max_value=10**6))
@_SETTINGS
def test_bridging_table_agrees_with_serial(seed):
    circuit = _circuit_from(seed)
    table = DetectionTable.for_bridging(circuit, drop_undetectable=False)
    if not len(table):
        return
    rng = pyrandom.Random(seed)
    space = 1 << circuit.num_inputs
    for i in rng.sample(range(len(table)), min(5, len(table))):
        fault = table.faults[i]
        for v in rng.sample(range(space), 6):
            assert detects_bridging(circuit, fault, v) == bool(
                (table.packed.row_bigint(i) >> v) & 1
            )


@given(st.integers(min_value=0, max_value=10**6))
@_SETTINGS
def test_gate_exhaustive_agrees_with_bruteforce(seed):
    circuit = _circuit_from(seed, gates=10)
    table = gate_exhaustive_table(circuit, drop_undetectable=False)
    if not len(table):
        return
    rng = pyrandom.Random(seed)
    space = 1 << circuit.num_inputs
    for i in rng.sample(range(len(table)), min(5, len(table))):
        fault = table.faults[i]
        line = circuit.lines[fault.lid]
        for v in rng.sample(range(space), 5):
            good = simulate_vector(circuit, v)
            pattern = 0
            for src in line.fanin:
                pattern = (pattern << 1) | good[src]
            if pattern != fault.pattern:
                expected = False
            else:
                faulty = simulate_vector(
                    circuit, v, forced={fault.lid: good[fault.lid] ^ 1}
                )
                expected = any(
                    good[o] != faulty[o] for o in circuit.outputs
                )
            assert bool((table.packed.row_bigint(i) >> v) & 1) == expected


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=4),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_greedy_ndetection_meets_quotas(seed, n):
    circuit = _circuit_from(seed, gates=12)
    table = DetectionTable.for_stuck_at(circuit)
    tests = greedy_ndetection_set(table, n)
    assert len(set(tests)) == len(tests)
    sig = sum(1 << t for t in tests)
    for f_sig in table.packed.to_bigints():
        assert (f_sig & sig).bit_count() >= min(n, f_sig.bit_count())
    # And the serial engine confirms a sample of the detections.
    rng = pyrandom.Random(seed)
    for i in rng.sample(range(len(table)), min(4, len(table))):
        fault = table.faults[i]
        detected = [
            t for t in tests if detects_stuck_at(circuit, fault, t)
        ]
        assert len(detected) >= min(n, table.packed.row_bigint(i).bit_count())