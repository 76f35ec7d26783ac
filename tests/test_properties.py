"""Property-based cross-validation on randomly generated circuits.

A hypothesis strategy builds random normal-form circuits (4-6 inputs,
up to ~25 gates with random types, arities, and fanout), then the core
invariants are checked on each:

* exhaustive signatures == per-vector simulation;
* stuck-at detection tables == the independent serial engine;
* equivalence-collapsed classes share identical detection sets;
* 3-valued simulation is sound w.r.t. every completion;
* Procedure 1 snapshots really are n-detection test sets;
* p(n, g) == 1 whenever n >= nmin(g).

Random circuits explore structural corners (deep reconvergence, XOR
chains, constants) that the curated fixtures cannot.
"""

from __future__ import annotations

import random as pyrandom

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gate import GateType
from repro.circuit.validate import validate_circuit
from repro.core.procedure1 import build_random_ndetection_sets
from repro.core.worst_case import WorstCaseAnalysis
from repro.faults.stuck_at import equivalence_classes
from repro.faultsim.detection import DetectionTable
from repro.faultsim.serial import detects_stuck_at
from repro.logic.cube import Cube
from repro.simulation.exhaustive import line_signatures
from repro.simulation.threeval import simulate_cube
from repro.simulation.twoval import simulate_vector

_GATES = [
    GateType.AND,
    GateType.OR,
    GateType.NAND,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
]


def _draw_gates(rng, builder, num_inputs, num_gates):
    """Deterministically add random gates; returns all line names."""
    lines = [f"x{i}" for i in range(num_inputs)]
    for g in range(num_gates):
        gt = rng.choice(_GATES)
        if gt in (GateType.NOT, GateType.BUF):
            fanin = [rng.choice(lines)]
        else:
            arity = rng.randint(2, min(4, len(lines)))
            fanin = rng.sample(lines, arity)
        lines.append(builder.gate(f"g{g}", gt, fanin))
    return lines


@st.composite
def circuits(draw, max_inputs=6, max_gates=25):
    """Random normal-form circuit (auto-branched, no dangling gates).

    Built in two passes from the same RNG seed: the first pass discovers
    which gate lines end up without sinks, the second promotes them to
    primary outputs so every gate is observable.
    """
    num_inputs = draw(st.integers(min_value=2, max_value=max_inputs))
    num_gates = draw(st.integers(min_value=1, max_value=max_gates))
    seed = draw(st.integers(min_value=0, max_value=2**31))

    def build(extra_outputs):
        rng = pyrandom.Random(seed)
        b = CircuitBuilder(f"rand{seed}")
        for i in range(num_inputs):
            b.input(f"x{i}")
        lines = _draw_gates(rng, b, num_inputs, num_gates)
        outputs = {lines[-1]}
        for _ in range(rng.randint(0, 2)):
            outputs.add(rng.choice(lines[num_inputs:]))
        outputs |= extra_outputs
        for name in sorted(outputs):
            b.output(name)
        return b.build(auto_branch=True)

    circuit = build(set())
    dangling = {
        ln.name
        for ln in circuit.lines
        if not ln.fanout and not ln.is_output and not ln.name.startswith("x")
    }
    if dangling:
        circuit = build(dangling)
    return circuit


_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(circuits())
@_SETTINGS
def test_random_circuits_validate(circuit):
    issues = [
        i for i in validate_circuit(circuit) if "dangling" not in i
    ]
    assert issues == []


@given(circuits())
@_SETTINGS
def test_exhaustive_matches_pervector(circuit):
    sigs = line_signatures(circuit)
    rng = pyrandom.Random(0)
    space = 1 << circuit.num_inputs
    for v in rng.sample(range(space), min(8, space)):
        vals = simulate_vector(circuit, v)
        for lid in range(len(circuit.lines)):
            assert (sigs[lid] >> v) & 1 == vals[lid]


@given(circuits(max_inputs=5, max_gates=15))
@_SETTINGS
def test_detection_table_matches_serial(circuit):
    table = DetectionTable.for_stuck_at(circuit)
    rng = pyrandom.Random(1)
    space = 1 << circuit.num_inputs
    indices = rng.sample(range(len(table)), min(6, len(table)))
    for i in indices:
        fault = table.faults[i]
        for v in rng.sample(range(space), min(6, space)):
            assert detects_stuck_at(circuit, fault, v) == bool(
                (table.packed.row_bigint(i) >> v) & 1
            )


@given(circuits(max_inputs=5, max_gates=15))
@_SETTINGS
def test_equivalence_classes_share_detection_sets(circuit):
    classes = [
        members
        for members in equivalence_classes(circuit)
        if len(members) > 1
    ]
    for members in classes[:6]:
        table = DetectionTable.for_stuck_at(circuit, faults=members)
        assert len(set(table.packed.to_bigints())) == 1


@given(circuits(max_inputs=5, max_gates=12), st.integers(0, 2**16))
@_SETTINGS
def test_threeval_soundness(circuit, seed):
    rng = pyrandom.Random(seed)
    cube = Cube.empty(circuit.num_inputs)
    for i in range(circuit.num_inputs):
        cube = cube.with_input(i, rng.choice([0, 1, 2]))
    vals3 = simulate_cube(circuit, cube)
    sample = cube.completions()
    rng.shuffle(sample)
    for v in sample[:4]:
        vals2 = simulate_vector(circuit, v)
        for lid in range(len(circuit.lines)):
            if vals3[lid] != 2:
                assert vals3[lid] == vals2[lid]


@given(circuits(max_inputs=5, max_gates=10), st.integers(0, 10**6))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_procedure1_invariant_and_guarantee(circuit, seed):
    targets = DetectionTable.for_stuck_at(circuit)
    n_max = 3
    family = build_random_ndetection_sets(
        targets, n_max=n_max, num_sets=8, seed=seed
    )
    # (1) Every snapshot is an n-detection set.
    for n in range(1, n_max + 1):
        for k in range(family.num_sets):
            tk = family.signature(n, k)
            for sig in targets.packed.to_bigints():
                assert (sig & tk).bit_count() >= min(n, sig.bit_count())
    # (2) nmin guarantee: untargeted faults with nmin <= n are detected
    # by every n-detection snapshot.
    untargeted = DetectionTable.for_bridging(circuit)
    if len(untargeted) == 0:
        return
    wc = WorstCaseAnalysis(targets, untargeted)
    for rec in wc.records:
        if rec.nmin is None or rec.nmin > n_max:
            continue
        g_sig = untargeted.packed.row_bigint(rec.fault_index)
        for n in range(rec.nmin, n_max + 1):
            for k in range(family.num_sets):
                assert family.signature(n, k) & g_sig, (
                    "worst-case guarantee violated"
                )
