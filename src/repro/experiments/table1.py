"""Table 1 — the example-circuit overlap analysis for ``g0 = (9,0,10,1)``.

For every collapsed target fault ``fi`` with ``T(fi) ∩ T(g0) ≠ ∅`` the
table lists ``T(fi)`` and ``nmin(g0, fi)``; the paper's published values
(including the fault indices) are reproduced exactly, and the test suite
pins them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench_suite.example import paper_example
from repro.experiments.common import render_rows
from repro.faults.universe import FaultUniverse


@dataclass
class Table1Row:
    index: int
    fault: str
    vectors: list[int]
    nmin: int


@dataclass
class Table1Result:
    g_name: str
    g_vectors: list[int]
    rows: list[Table1Row]
    nmin_g: int

    def render(self) -> str:
        header = ["i", "fi", "T(fi)", "nmin(g0,fi)"]
        body = [
            [
                str(r.index),
                r.fault,
                " ".join(map(str, r.vectors)),
                str(r.nmin),
            ]
            for r in self.rows
        ]
        table = render_rows(header, body)
        return (
            f"Table 1: faults with test vectors that overlap "
            f"T(g0) = {{{', '.join(map(str, self.g_vectors))}}} "
            f"for g0 = {self.g_name}\n{table}\n"
            f"nmin(g0) = {self.nmin_g}\n"
        )


def run_table1(untargeted_index: int = 0) -> Table1Result:
    """Regenerate Table 1 (``untargeted_index`` selects the g fault)."""
    circuit = paper_example()
    universe = FaultUniverse(circuit)
    targets = universe.target_table
    untargeted = universe.untargeted_table
    overlaps = targets.packed.and_popcount(
        untargeted.packed.row(untargeted_index)
    ).tolist()
    counts = targets.counts()
    rows = []
    for i, overlap in enumerate(overlaps):
        if overlap == 0:
            continue
        rows.append(
            Table1Row(
                index=i,
                fault=targets.fault_name(i),
                vectors=targets.vectors(i),
                nmin=counts[i] - overlap + 1,
            )
        )
    nmin_g = universe.worst_case.nmin_values()[untargeted_index]
    return Table1Result(
        g_name=untargeted.fault_name(untargeted_index),
        g_vectors=untargeted.vectors(untargeted_index),
        rows=rows,
        nmin_g=nmin_g,
    )
