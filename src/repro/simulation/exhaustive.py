"""Exhaustive full-input-space simulation (the analysis substrate).

The paper's analysis is "based on the set ``U`` of all the input vectors
of the circuit".  For a ``p``-input circuit, every line gets a *signature*:
an integer with ``2**p`` bits, bit ``v`` holding the line's fault-free
value under input vector ``v``.  One pass over the topological order
computes all signatures with one bitwise expression per gate.

Signatures are the common currency of this library: test sets are
signatures, Procedure 1 and the scalar ``nmin`` oracle read detection
sets ``T(f)`` as signatures, and the worst-case quantities ``N(f)`` /
``M(g, f)`` are popcounts of signatures.  Detection sets themselves are
built by the word-parallel kernel (:mod:`repro.simulation.ppsfp`),
which simulates the same fault-free values directly as words
(:func:`~repro.simulation.ppsfp.packed_line_words`); these big-int
signatures are its reference in the tests.
"""

from __future__ import annotations

from repro.circuit.gate import eval_signature
from repro.circuit.netlist import Circuit, LineKind
from repro.errors import SimulationError
from repro.logic.bitops import (
    MAX_EXHAUSTIVE_INPUTS,
    all_ones_mask,
    input_signature,
)


def check_exhaustive_inputs(circuit: Circuit) -> None:
    """Raise :class:`SimulationError` past the exhaustive input cap.

    The cap is :data:`~repro.logic.bitops.MAX_EXHAUSTIVE_INPUTS`; use
    :func:`repro.circuit.transform.output_partitions` to split such
    circuits first (the paper's Section 4 recommendation).
    """
    p = circuit.num_inputs
    if p > MAX_EXHAUSTIVE_INPUTS:
        raise SimulationError(
            f"circuit {circuit.name!r} has {p} inputs; exhaustive analysis "
            f"is capped at {MAX_EXHAUSTIVE_INPUTS} (partition the circuit)"
        )


def line_signatures(circuit: Circuit) -> list[int]:
    """Fault-free signature of every line, indexed by lid.

    Capped by :func:`check_exhaustive_inputs`.
    """
    check_exhaustive_inputs(circuit)
    p = circuit.num_inputs
    mask = all_ones_mask(p)
    sigs = [0] * len(circuit.lines)
    for pos, lid in enumerate(circuit.inputs):
        sigs[lid] = input_signature(pos, p)
    for lid in circuit.topo_order:
        line = circuit.lines[lid]
        if line.kind is LineKind.BRANCH:
            sigs[lid] = sigs[line.fanin[0]]
        else:
            sigs[lid] = eval_signature(
                line.gate_type, [sigs[f] for f in line.fanin], mask
            )
    return sigs


def output_response_signatures(circuit: Circuit) -> list[int]:
    """Signatures of the primary outputs only (in output order)."""
    sigs = line_signatures(circuit)
    return [sigs[o] for o in circuit.outputs]
