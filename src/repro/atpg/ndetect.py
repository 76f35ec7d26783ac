"""Deterministic n-detection test-set generation.

The paper's premise is that "the size of a compact n-detection test set
increases approximately linearly with n"; these generators provide that
substrate and let the benches verify the premise on our circuits.

Two engines:

* :func:`greedy_ndetection_set` — greedy set multicover over an
  exhaustive detection table: repeatedly add the vector that satisfies
  the most outstanding (fault, still-needed-detections) demand.  Near
  optimal, available whenever the table is (small input counts).
* :func:`podem_ndetection_set` — PODEM per fault with random fill of the
  unspecified bits, retrying until each fault has ``n`` distinct tests
  (or its test count is exhausted); works without exhaustive tables.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.atpg.podem import ABORTED, DETECTED, generate_test
from repro.circuit.netlist import Circuit
from repro.errors import AtpgError
from repro.faults.stuck_at import StuckAtFault
from repro.faultsim.detection import DetectionTable
from repro.faultsim.serial import detects_stuck_at


def greedy_ndetection_set(
    table: DetectionTable, n: int, rng: random.Random | None = None
) -> list[int]:
    """Greedy compact n-detection test set from a detection table.

    Every detectable fault ends up detected ``min(n, N(f))`` times.
    Ties between equally useful vectors break randomly when ``rng`` is
    given (deterministically toward the smallest vector otherwise).
    """
    if n < 1:
        raise AtpgError(f"n must be >= 1, got {n}")
    remaining = {
        i: min(n, count) for i, count in enumerate(table.counts()) if count
    }
    chosen: list[int] = []
    chosen_sig = 0
    # Vector -> fault coverage map (sparse, built once).
    vector_faults: dict[int, list[int]] = {}
    for i in range(len(table)):
        for v in table.vectors(i):
            vector_faults.setdefault(v, []).append(i)
    while remaining:
        best_vec = None
        best_gain = 0
        candidates = list(vector_faults.items())
        if rng is not None:
            rng.shuffle(candidates)
        for v, fault_ids in candidates:
            if (chosen_sig >> v) & 1:
                continue
            gain = sum(1 for i in fault_ids if remaining.get(i, 0) > 0)
            if gain > best_gain:
                best_gain = gain
                best_vec = v
        if best_vec is None:
            break  # demands left but no vector helps (cannot happen)
        chosen.append(best_vec)
        chosen_sig |= 1 << best_vec
        for i in vector_faults[best_vec]:
            if i in remaining:
                remaining[i] -= 1
                if remaining[i] == 0:
                    del remaining[i]
    return chosen


def podem_ndetection_set(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    n: int,
    seed: int = 0,
    max_attempts_per_fault: int = 64,
    backtrack_limit: int = 10_000,
) -> list[int]:
    """PODEM-based n-detection test set (no exhaustive table needed).

    For each fault, generates up to ``n`` distinct tests: a PODEM cube is
    completed with random values, rejected if already present.  Tests
    added for earlier faults count toward later faults' quotas (checked
    with the serial fault simulator), mirroring how deterministic
    n-detection generators exploit fortuitous detection.
    """
    if n < 1:
        raise AtpgError(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    tests: list[int] = []
    test_set: set[int] = set()
    for fault in faults:
        have = sum(1 for t in tests if detects_stuck_at(circuit, fault, t))
        if have >= n:
            continue
        result = generate_test(circuit, fault, backtrack_limit)
        if result.status == ABORTED:
            raise AtpgError(
                f"PODEM aborted on {fault.name(circuit)}; "
                "raise backtrack_limit"
            )
        if result.status != DETECTED:
            continue  # undetectable target: nothing to add
        attempts = 0
        while have < n and attempts < max_attempts_per_fault:
            attempts += 1
            t = result.vector(rng)
            if t in test_set:
                # Re-run PODEM occasionally?  The cube's completions may
                # all be taken; try another random completion first.
                continue
            if not detects_stuck_at(circuit, fault, t):  # pragma: no cover
                raise AtpgError("PODEM produced a non-detecting test")
            tests.append(t)
            test_set.add(t)
            have += 1
    return tests
