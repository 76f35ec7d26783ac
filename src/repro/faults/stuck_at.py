"""Single stuck-at faults and structural collapsing.

A stuck-at fault ``l/a`` fixes line ``l`` to value ``a``.  In normal-form
circuits every fault site is a line (gate inputs are fed by dedicated
lines), so the complete universe is ``2 * |lines|`` faults.

*Equivalence collapsing* merges faults that are indistinguishable by any
test (same faulty function):

* AND gate: s-a-0 on any input ≡ s-a-0 on the output (NAND: ≡ output
  s-a-1), and dually for OR/NOR with s-a-1 inputs;
* NOT/BUF (and single-input AND/OR/...): both input faults map to output
  faults through the gate function;
* a fanout branch is equivalent to its stem only when it is the stem's
  single sink.

Each equivalence class is represented by its member closest to the
primary outputs (maximum logic level, ties broken by maximum lid).  With
declaration order following the paper's line numbering, this reproduces
the collapsed fault list of the paper's Table 1 exactly — including the
fault indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.circuit.gate import GateType
from repro.circuit.netlist import Circuit, LineKind
from repro.errors import FaultError
from repro.faults.arrays import FaultArray

if TYPE_CHECKING:
    from collections.abc import Sequence

    from numpy.typing import NDArray

    from repro.faults.arrays import FlipTerms


@dataclass(frozen=True, slots=True, order=True)
class StuckAtFault:
    """Line ``lid`` stuck at ``value`` (paper notation ``l/a``)."""

    lid: int
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise FaultError(f"stuck value must be 0 or 1, got {self.value!r}")

    def name(self, circuit: Circuit) -> str:
        """Paper-style rendering, e.g. ``9/1``."""
        return f"{circuit.lines[self.lid].name}/{self.value}"


class StuckAtFaults(FaultArray[StuckAtFault]):
    """Stuck-at faults as two columns: ``lid`` and ``value``."""

    element = StuckAtFault
    fields = (("lid", np.intp), ("value", np.int8))
    kind = "stuck_at"

    lid: NDArray[np.intp]
    value: NDArray[np.int8]

    def _check(self, *columns: NDArray[Any]) -> None:
        bad = columns[1][(columns[1] != 0) & (columns[1] != 1)]
        if bad.size:
            raise FaultError(f"stuck value must be 0 or 1, got {bad[0]}")

    @classmethod
    def for_circuit(
        cls, circuit: Circuit, faults: Sequence[StuckAtFault] | None = None
    ) -> StuckAtFaults:
        """``faults`` as arrays; None is the paper's ``F``."""
        if faults is None:
            return collapsed_stuck_at_faults(circuit)
        return cls.of(faults)

    def flip_terms(self, circuit: Circuit) -> FlipTerms:
        """Stuck-at-``v`` flips its site where the site carries ``1 - v``."""
        return self.lid, self.lid[:, None], (self.value == 0)[:, None]


def all_stuck_at_faults(circuit: Circuit) -> StuckAtFaults:
    """The uncollapsed universe: every line stuck at 0 and at 1."""
    lines = len(circuit.lines)
    return StuckAtFaults(
        np.repeat(np.arange(lines), 2), np.tile([0, 1], lines)
    )


class _UnionFind:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _fault_index(lid: int, value: int) -> int:
    return lid * 2 + value


def _gate_output_for_input(gate_type: GateType, input_value: int) -> int | None:
    """Output value of a 1-input gate when its input is ``input_value``."""
    if gate_type in (GateType.BUF, GateType.AND, GateType.OR, GateType.XOR):
        return input_value
    if gate_type in (GateType.NOT, GateType.NAND, GateType.NOR, GateType.XNOR):
        return input_value ^ 1
    return None


def _equivalence_unions(circuit: Circuit, uf: _UnionFind) -> None:
    # A gate-input (or stem) fault is only equivalent to the gate-output
    # fault when the input line is observable *solely* through that gate:
    # a line that is also a primary output is detected directly, so its
    # faults must stay separate (found by property-based testing).
    def observable_only_through_sink(lid: int) -> bool:
        return not circuit.lines[lid].is_output

    for line in circuit.lines:
        if line.kind is LineKind.BRANCH:
            stem = circuit.lines[line.fanin[0]]
            if len(stem.fanout) == 1 and observable_only_through_sink(stem.lid):
                for v in (0, 1):
                    uf.union(
                        _fault_index(stem.lid, v), _fault_index(line.lid, v)
                    )
            continue
        if line.kind is not LineKind.GATE:
            continue
        gt = line.gate_type
        if len(line.fanin) == 1:
            out0 = _gate_output_for_input(gt, 0)
            out1 = _gate_output_for_input(gt, 1)
            src = line.fanin[0]
            if not observable_only_through_sink(src):
                continue
            if out0 is not None:
                uf.union(_fault_index(src, 0), _fault_index(line.lid, out0))
            if out1 is not None:
                uf.union(_fault_index(src, 1), _fault_index(line.lid, out1))
            continue
        c = gt.controlling_value
        if c is None:
            continue  # XOR/XNOR and constants: no structural equivalence
        out = gt.controlled_output
        for src in line.fanin:
            if observable_only_through_sink(src):
                uf.union(_fault_index(src, c), _fault_index(line.lid, out))


def _representative(circuit: Circuit, members: list[int]) -> int:
    """Member closest to the outputs: max level, then max lid."""
    return max(members, key=lambda i: (circuit.level[i >> 1], i >> 1))


def _classes(circuit: Circuit) -> list[list[int]]:
    """Equivalence classes of fault indices ``2 * lid + value``, members
    ascending, ordered by their representative."""
    uf = _UnionFind(2 * len(circuit.lines))
    _equivalence_unions(circuit, uf)
    groups: dict[int, list[int]] = {}
    for index in range(2 * len(circuit.lines)):
        groups.setdefault(uf.find(index), []).append(index)
    return sorted(
        groups.values(), key=lambda ms: _representative(circuit, ms)
    )


def equivalence_classes(circuit: Circuit) -> list[list[StuckAtFault]]:
    """Partition of the full universe into equivalence classes.

    Classes are ordered by their representative fault; members inside a
    class are sorted by ``(lid, value)``.
    """
    return [
        [StuckAtFault(i >> 1, i & 1) for i in members]
        for members in _classes(circuit)
    ]


def collapsed_stuck_at_faults(circuit: Circuit) -> StuckAtFaults:
    """Equivalence-collapsed fault list, sorted by ``(lid, value)``.

    This is the paper's target fault set ``F``; on the Figure 1 example it
    reproduces the published fault indices (``f0 = 1/1``, ``f1 = 2/0``, …,
    ``f14 = 11/0``).
    """
    reps = np.array(
        [_representative(circuit, ms) for ms in _classes(circuit)],
        dtype=np.intp,
    )  # ascending: the classes are ordered by their representative
    return StuckAtFaults(reps >> 1, reps & 1)


def dominance_collapsed_faults(circuit: Circuit) -> StuckAtFaults:
    """Equivalence + gate-level dominance collapsing (ablation extension).

    For an AND gate, any test for an input s-a-1 also detects the output
    s-a-1, so the output fault can be dropped (dually for OR/NAND/NOR).
    Dominance collapsing is *not* used by the paper's analysis — dropping
    dominated faults changes ``F`` and therefore ``nmin`` — it exists for
    the ablation bench.
    """
    collapsed = collapsed_stuck_at_faults(circuit)
    keep = set(
        zip(collapsed.lid.tolist(), collapsed.value.tolist(), strict=True)
    )
    for line in circuit.lines:
        if line.kind is not LineKind.GATE or len(line.fanin) < 2:
            continue
        c = line.gate_type.controlling_value
        if c is None:
            continue
        non_controlled_out = line.gate_type.controlled_output ^ 1
        dominated = (line.lid, non_controlled_out)
        dominators = [(src, c ^ 1) for src in line.fanin]
        if dominated in keep and all(d in keep for d in dominators):
            keep.discard(dominated)
    kept = sorted(keep)
    return StuckAtFaults([lid for lid, _ in kept], [v for _, v in kept])
