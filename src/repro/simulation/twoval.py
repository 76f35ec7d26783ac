"""Bit-parallel 2-valued logic simulation.

A *batch* of vectors is simulated in one pass: every line carries a lane
word (Python int) whose bit ``L`` is the line's value under the ``L``-th
vector of the batch.  Python's arbitrary-precision integers remove any
fixed lane-count limit — a batch of 10 000 vectors is one simulation.

Vector encoding follows the paper: a decimal vector ``v`` assigns input
``j`` (0-based position in ``circuit.inputs``, position 0 = input 1 of the
paper) the bit ``(v >> (p - 1 - j)) & 1``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuit.gate import eval_signature
from repro.circuit.netlist import Circuit, LineKind
from repro.errors import SimulationError


def _input_lane_words(circuit: Circuit, vectors: Sequence[int]) -> list[int]:
    """Lane word per primary input (index into ``circuit.inputs``).

    The bulk path bit-transposes the whole batch in one vectorized
    ``packbits`` pass and assembles each input's lane word from the
    packed little-endian words — O(K·p/64) word work instead of the
    per-bit O(K·p) Python loop, which is the difference between
    milliseconds and seconds on a 10k-vector batch.  Batches numpy
    cannot pack (zero inputs, or vectors wider than one ``uint64``)
    keep the per-bit loop; both paths produce identical words.
    """
    p = circuit.num_inputs
    vectors = list(vectors)
    if 0 < p <= 64:
        from repro.simulation.ppsfp import input_lane_matrix

        rows = input_lane_matrix(p, vectors)
        return [
            int.from_bytes(row.astype("<u8", copy=False).tobytes(), "little")
            for row in rows
        ]
    limit = 1 << p
    words = [0] * p
    for lane, v in enumerate(vectors):
        if not 0 <= v < limit:
            raise SimulationError(
                f"vector {v} out of range for {p}-input circuit"
            )
        for j in range(p):
            if (v >> (p - 1 - j)) & 1:
                words[j] |= 1 << lane
    return words


def simulate_batch(
    circuit: Circuit,
    vectors: Sequence[int],
    forced: dict[int, int] | None = None,
) -> list[int]:
    """Simulate a batch of decimal vectors; return lane words per line.

    Parameters
    ----------
    circuit:
        Normal-form circuit.
    vectors:
        Decimal input vectors; lane ``L`` of every returned word
        corresponds to ``vectors[L]``.
    forced:
        Optional ``{lid: 0|1}`` overrides applied after each line's normal
        evaluation — the mechanism used to inject stuck-at faults.

    Returns
    -------
    list[int]
        ``values[lid]`` is the lane word of line ``lid``.
    """
    lane_mask = (1 << len(vectors)) - 1
    input_words = _input_lane_words(circuit, vectors)
    values = [0] * len(circuit.lines)
    for pos, lid in enumerate(circuit.inputs):
        values[lid] = input_words[pos]
    if forced:
        for lid, val in forced.items():
            if circuit.lines[lid].kind is LineKind.INPUT:
                values[lid] = lane_mask if val else 0
    for lid in circuit.topo_order:
        line = circuit.lines[lid]
        if forced and lid in forced:
            values[lid] = lane_mask if forced[lid] else 0
            continue
        if line.kind is LineKind.BRANCH:
            values[lid] = values[line.fanin[0]]
        else:
            values[lid] = eval_signature(
                line.gate_type,
                [values[f] for f in line.fanin],
                lane_mask,
            )
    return values


def simulate_vector(
    circuit: Circuit, vector: int, forced: dict[int, int] | None = None
) -> list[int]:
    """Simulate one decimal vector; return the 0/1 value of every line."""
    words = simulate_batch(circuit, [vector], forced=forced)
    return [w & 1 for w in words]


def output_values(
    circuit: Circuit, vector: int, forced: dict[int, int] | None = None
) -> tuple[int, ...]:
    """The primary-output response to one vector (in output order)."""
    values = simulate_vector(circuit, vector, forced=forced)
    return tuple(values[o] for o in circuit.outputs)


def response_word(
    circuit: Circuit, vectors: Sequence[int]
) -> list[tuple[int, ...]]:
    """Output responses for a batch, one tuple per vector."""
    words = simulate_batch(circuit, vectors)
    out = []
    for lane in range(len(vectors)):
        out.append(
            tuple((words[o] >> lane) & 1 for o in circuit.outputs)
        )
    return out
