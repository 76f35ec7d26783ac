"""Gate-exhaustive (input-pattern) faults — an alternative untargeted model.

The paper's analysis is deliberately model-agnostic: ``G`` can be any set
of untargeted faults with known detection sets.  Besides the four-way
bridging model it evaluates, this module provides the classic
*gate-exhaustive* surrogate for unmodeled defects (in the spirit of
McCluskey's gate-exhaustive testing): for every multi-input gate and
every input pattern, a fault that flips the gate's output exactly when
its inputs carry that pattern.

A :class:`GateExhaustiveFault` ``(gate, pattern)`` is activated on input
vectors where the gate's fanin lines carry ``pattern`` (MSB = first
fanin); on those vectors the gate output is complemented.  Detection
requires the flip to reach a primary output — same propagation machinery
as the bridging model, so the worst-case / average-case analyses run on
it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.circuit.netlist import Circuit
from repro.errors import FaultError
from repro.logic.packed import _np

if TYPE_CHECKING:  # import cycle guard: repro.faultsim imports this package
    from collections.abc import Sequence

    import numpy as np
    from numpy.typing import NDArray

    from repro.faultsim.detection import DetectionTable

    IntpArray = NDArray[np.intp]
    BoolArray = NDArray[np.bool_]


@dataclass(frozen=True, slots=True, order=True)
class GateExhaustiveFault:
    """Output of gate ``lid`` flips when its inputs equal ``pattern``."""

    lid: int
    pattern: int

    def __post_init__(self) -> None:
        if self.pattern < 0:
            raise FaultError("pattern must be non-negative")

    def name(self, circuit: Circuit) -> str:
        line = circuit.lines[self.lid]
        bits = format(self.pattern, f"0{len(line.fanin)}b")
        return f"{line.name}[{bits}]"


def gate_exhaustive_faults(
    circuit: Circuit, max_arity: int = 6
) -> list[GateExhaustiveFault]:
    """All input-pattern faults of multi-input gates (2**arity each).

    Gates wider than ``max_arity`` are skipped — their pattern counts
    explode and the model is normally applied after small-fanin mapping.
    """
    faults = []
    for line in circuit.multi_input_gate_lines():
        arity = len(line.fanin)
        if arity > max_arity:
            continue
        for pattern in range(1 << arity):
            faults.append(GateExhaustiveFault(line.lid, pattern))
    return faults


def activation_terms(
    circuit: Circuit, faults: Sequence[GateExhaustiveFault]
) -> tuple[IntpArray, IntpArray, BoolArray]:
    """``(sites, lines, values)``: the faults as kernel flip faults.

    Fault ``r`` flips gate ``sites[r]`` where every fanin line
    ``lines[r, t]`` carries bit ``values[r, t]`` of its pattern (MSB =
    first fanin), the input of :func:`repro.simulation.ppsfp.flip_matrix`.
    Narrower gates repeat their first term, which leaves the AND of the
    terms unchanged.
    """
    arity = max((len(circuit.lines[g.lid].fanin) for g in faults), default=1)
    lines = _np.empty((len(faults), arity), dtype=_np.intp)
    values = _np.empty((len(faults), arity), dtype=bool)
    for r, g in enumerate(faults):
        fanin = list(circuit.lines[g.lid].fanin)
        width = len(fanin)
        if g.pattern >> width:
            raise FaultError(
                f"pattern {g.pattern} too wide for {width}-input gate"
            )
        bits = [bool(g.pattern >> (width - 1 - t) & 1) for t in range(width)]
        pad = arity - width
        lines[r] = fanin + fanin[:1] * pad
        values[r] = bits + bits[:1] * pad
    sites = _np.fromiter(
        (g.lid for g in faults), dtype=_np.intp, count=len(faults)
    )
    return sites, lines, values


def gate_exhaustive_table(
    circuit: Circuit,
    max_arity: int = 6,
    drop_undetectable: bool = True,
) -> DetectionTable:
    """Detection table over the gate-exhaustive universe.

    Built by the PPSFP kernel over the exhaustive universe.  Returns a
    :class:`repro.faultsim.detection.DetectionTable`, so the result
    plugs directly into :class:`repro.core.WorstCaseAnalysis` and
    :class:`repro.core.AverageCaseAnalysis`.
    """
    from repro.faultsim.detection import DetectionTable
    from repro.faultsim.sampling import VectorUniverse
    from repro.simulation.ppsfp import flip_matrix

    universe = VectorUniverse(circuit.num_inputs)
    faults = gate_exhaustive_faults(circuit, max_arity=max_arity)
    matrix = flip_matrix(
        "gate_exhaustive", circuit, universe,
        *activation_terms(circuit, faults),
    )
    return DetectionTable.from_rows(
        circuit, faults, matrix, universe, drop_undetectable
    )
