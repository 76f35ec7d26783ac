"""Serial (per-vector) fault simulation.

A deliberately independent slow path: faults are simulated one vector at
a time with explicit value forcing, sharing *no* code with the PPSFP
kernel that builds every detection table.  It is the kernel's one
oracle: the test suite cross-validates the two engines against each
other, which is the main line of defence against systematic bugs in the
detection tables that every analysis depends on.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from repro.circuit.netlist import Circuit
from repro.faults.bridging import BridgingFault
from repro.faults.stuck_at import StuckAtFault
from repro.simulation.twoval import simulate_vector


def _stuck_at_detected(
    circuit: Circuit, fault: StuckAtFault, vector: int, good: list[int]
) -> bool:
    """The stuck-at check, given ``vector``'s fault-free values ``good``."""
    faulty = simulate_vector(circuit, vector, forced={fault.lid: fault.value})
    return any(good[o] != faulty[o] for o in circuit.outputs)


def _bridging_detected(
    circuit: Circuit, fault: BridgingFault, vector: int, good: list[int]
) -> bool:
    """The bridging check, given ``vector``'s fault-free values ``good``.

    The activation condition is evaluated on the fault-free simulation;
    when activated, the victim is forced to the flipped value and the
    circuit re-simulated.
    """
    if good[fault.victim] != fault.victim_value:
        return False
    if good[fault.aggressor] != fault.aggressor_value:
        return False
    flipped = fault.victim_value ^ 1
    faulty = simulate_vector(circuit, vector, forced={fault.victim: flipped})
    return any(good[o] != faulty[o] for o in circuit.outputs)


def _checker(fault) -> Callable[..., bool]:
    if isinstance(fault, StuckAtFault):
        return _stuck_at_detected
    if isinstance(fault, BridgingFault):
        return _bridging_detected
    raise TypeError(f"unsupported fault type: {type(fault).__name__}")


def detects_stuck_at(
    circuit: Circuit, fault: StuckAtFault, vector: int
) -> bool:
    """True when ``vector`` detects the stuck-at fault (two full sims)."""
    good = simulate_vector(circuit, vector)
    return _stuck_at_detected(circuit, fault, vector, good)


def detects_bridging(
    circuit: Circuit, fault: BridgingFault, vector: int
) -> bool:
    """True when ``vector`` detects the four-way bridging fault."""
    good = simulate_vector(circuit, vector)
    return _bridging_detected(circuit, fault, vector, good)


def detects(circuit: Circuit, fault, vector: int) -> bool:
    """Dispatch on fault type."""
    check = _checker(fault)
    return check(circuit, fault, vector, simulate_vector(circuit, vector))


def detection_sets(
    circuit: Circuit, faults: Sequence, vectors: Sequence[int]
) -> list[int]:
    """Big-int detection rows: bit ``i`` of row ``r`` is set when
    ``vectors[i]`` detects ``faults[r]``.

    Vector-major, so each vector's fault-free simulation is computed
    once and shared by every fault; each (fault, vector) pair then
    costs the one check :func:`detects` makes.
    """
    checks = [_checker(fault) for fault in faults]
    rows = [0] * len(faults)
    for bit, vector in enumerate(vectors):
        good = simulate_vector(circuit, vector)
        for r, (fault, check) in enumerate(zip(faults, checks)):
            if check(circuit, fault, vector, good):
                rows[r] |= 1 << bit
    return rows


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
