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

if TYPE_CHECKING:  # import cycle guard: repro.faultsim imports this package
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


def gate_exhaustive_detection_signature(
    circuit: Circuit,
    base_signatures: list[int],
    fault: GateExhaustiveFault,
    mask: int,
    cone_order: list[int] | None = None,
) -> int:
    """``T(g)`` for a gate-exhaustive fault (signature over ``U``)."""
    from repro.simulation.exhaustive import (
        detection_signature,
        resimulate_cone,
    )

    line = circuit.lines[fault.lid]
    arity = len(line.fanin)
    if fault.pattern >= (1 << arity):
        raise FaultError(
            f"pattern {fault.pattern} too wide for {arity}-input gate"
        )
    activated = mask
    for pos, src in enumerate(line.fanin):
        want = (fault.pattern >> (arity - 1 - pos)) & 1
        sig = base_signatures[src]
        activated &= sig if want else ~sig & mask
        if not activated:
            return 0
    forced = {fault.lid: base_signatures[fault.lid] ^ activated}
    changed = resimulate_cone(
        circuit, base_signatures, forced, mask, cone_order=cone_order
    )
    return detection_signature(circuit, base_signatures, changed)


def gate_exhaustive_table(
    circuit: Circuit,
    base_signatures: list[int] | None = None,
    max_arity: int = 6,
    drop_undetectable: bool = True,
) -> DetectionTable:
    """Detection table over the gate-exhaustive universe.

    Returns a :class:`repro.faultsim.detection.DetectionTable`, so the
    result plugs directly into :class:`repro.core.WorstCaseAnalysis` and
    :class:`repro.core.AverageCaseAnalysis`.
    """
    from repro.faultsim.detection import DetectionTable
    from repro.logic.bitops import all_ones_mask
    from repro.simulation.exhaustive import line_signatures

    sigs = base_signatures or line_signatures(circuit)
    mask = all_ones_mask(circuit.num_inputs)
    faults = gate_exhaustive_faults(circuit, max_arity=max_arity)
    cone_cache: dict[int, list[int]] = {}
    table = []
    for g in faults:
        cone = cone_cache.get(g.lid)
        if cone is None:
            cone = circuit.fanout_cone_order(g.lid)
            cone_cache[g.lid] = cone
        table.append(
            gate_exhaustive_detection_signature(
                circuit, sigs, g, mask, cone_order=cone
            )
        )
    return DetectionTable.from_signatures(
        circuit, faults, table, drop_undetectable=drop_undetectable
    )
