"""Serial (per-vector) fault simulation.

A deliberately independent slow path: faults are simulated one vector at
a time with explicit value forcing, sharing *no* code with the PPSFP
kernel that builds every detection table.  It is the kernel's one
oracle: the test suite cross-validates the two engines against each
other, which is the main line of defence against systematic bugs in the
detection tables that every analysis depends on.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.circuit.netlist import Circuit
from repro.faults.bridging import BridgingFault
from repro.faults.stuck_at import StuckAtFault
from repro.simulation.twoval import simulate_vector


def detects_stuck_at(
    circuit: Circuit, fault: StuckAtFault, vector: int
) -> bool:
    """True when ``vector`` detects the stuck-at fault (two full sims)."""
    good = simulate_vector(circuit, vector)
    faulty = simulate_vector(circuit, vector, forced={fault.lid: fault.value})
    return any(good[o] != faulty[o] for o in circuit.outputs)


def detects_bridging(
    circuit: Circuit, fault: BridgingFault, vector: int
) -> bool:
    """True when ``vector`` detects the four-way bridging fault.

    The activation condition is evaluated on the fault-free simulation;
    when activated, the victim is forced to the flipped value and the
    circuit re-simulated.
    """
    good = simulate_vector(circuit, vector)
    if good[fault.victim] != fault.victim_value:
        return False
    if good[fault.aggressor] != fault.aggressor_value:
        return False
    flipped = fault.victim_value ^ 1
    faulty = simulate_vector(circuit, vector, forced={fault.victim: flipped})
    return any(good[o] != faulty[o] for o in circuit.outputs)


def detects(circuit: Circuit, fault, vector: int) -> bool:
    """Dispatch on fault type."""
    if isinstance(fault, StuckAtFault):
        return detects_stuck_at(circuit, fault, vector)
    if isinstance(fault, BridgingFault):
        return detects_bridging(circuit, fault, vector)
    raise TypeError(f"unsupported fault type: {type(fault).__name__}")


def detecting_vectors(
    circuit: Circuit, fault, vectors: Iterable[int]
) -> list[int]:
    """Subset of ``vectors`` that detect the fault (serial engine)."""
    return [v for v in vectors if detects(circuit, fault, v)]


def test_set_coverage(
    circuit: Circuit, faults: Sequence, vectors: Sequence[int]
) -> tuple[int, int]:
    """(detected, total) over ``faults`` for an explicit test set."""
    detected = 0
    for fault in faults:
        if any(detects(circuit, fault, v) for v in vectors):
            detected += 1
    return detected, len(faults)
