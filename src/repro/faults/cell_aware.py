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
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.circuit.netlist import Circuit
from repro.errors import FaultError
from repro.faults.arrays import FaultArray

if TYPE_CHECKING:  # import cycle guard: repro.faultsim imports this package
    from numpy.typing import NDArray

    from repro.faults.arrays import FlipTerms
    from repro.faultsim.detection import DetectionTable


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


class GateExhaustiveFaults(FaultArray[GateExhaustiveFault]):
    """Gate-exhaustive faults as two columns: ``lid`` and ``pattern``."""

    element = GateExhaustiveFault
    fields = (("lid", np.intp), ("pattern", np.int64))
    kind = "gate_exhaustive"

    lid: NDArray[np.intp]
    pattern: NDArray[np.int64]

    def _check(self, *columns: NDArray[Any]) -> None:
        if np.any(columns[1] < 0):
            raise FaultError("pattern must be non-negative")

    def flip_terms(self, circuit: Circuit) -> FlipTerms:
        """Fault ``r`` flips gate ``lid[r]`` where its fanin lines carry
        the bits of ``pattern[r]``, MSB first; a narrower gate repeats
        its first term, which leaves the AND of the terms unchanged."""
        width = np.array([len(ln.fanin) for ln in circuit.lines])[self.lid]
        too_wide = np.flatnonzero(self.pattern >> width)
        if too_wide.size:
            r = too_wide[0]
            raise FaultError(
                f"pattern {self.pattern[r]} too wide for "
                f"{width[r]}-input gate"
            )
        arity = int(width.max(initial=1))
        fanin = np.zeros((len(circuit.lines), arity), dtype=np.intp)
        for lid in dict.fromkeys(self.lid.tolist()):
            gate = circuit.lines[lid].fanin
            fanin[lid, : len(gate)] = gate
        term = np.arange(arity)
        term = np.where(term < width[:, None], term, 0)
        lines = np.take_along_axis(fanin[self.lid], term, axis=1)
        values = self.pattern[:, None] >> (width[:, None] - 1 - term) & 1
        return self.lid, lines, values.astype(bool)


def gate_exhaustive_faults(
    circuit: Circuit, max_arity: int = 6
) -> GateExhaustiveFaults:
    """All input-pattern faults of multi-input gates (2**arity each).

    Gates wider than ``max_arity`` are skipped — their pattern counts
    explode and the model is normally applied after small-fanin mapping.
    """
    lids: list[int] = []
    patterns: list[int] = []
    for line in circuit.multi_input_gate_lines():
        arity = len(line.fanin)
        if arity > max_arity:
            continue
        lids.extend([line.lid] * (1 << arity))
        patterns.extend(range(1 << arity))
    return GateExhaustiveFaults(lids, patterns)


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
        faults.kind, circuit, universe, *faults.flip_terms(circuit)
    )
    return DetectionTable.from_rows(
        circuit, faults, matrix, universe, drop_undetectable
    )
