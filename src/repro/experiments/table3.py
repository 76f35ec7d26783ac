"""Table 3 — worst-case numbers of faults needing large ``n``.

Per circuit: the number (and percentage) of untargeted faults with
``nmin(g) >= 100``, ``>= 20`` and ``>= 11``.  Following the paper, only
circuits that have at least one fault with ``nmin >= 11`` appear.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    THRESHOLD_NOT_GUARANTEED,
    get_universe,
    render_rows,
    suite_circuits,
)

THRESHOLDS: tuple[int, ...] = (100, 20, 11)


@dataclass
class Table3Row:
    circuit: str
    num_faults: int
    counts: list[int]  # aligned with THRESHOLDS

    def percentage(self, i: int) -> float:
        if self.num_faults == 0:
            return 0.0
        return 100.0 * self.counts[i] / self.num_faults


@dataclass
class Table3Result:
    rows: list[Table3Row]

    def render(self) -> str:
        header = ["circuit", "faults"] + [f">={t}" for t in THRESHOLDS]
        body = []
        for row in self.rows:
            cells = [row.circuit, str(row.num_faults)]
            for i in range(len(THRESHOLDS)):
                cells.append(f"{row.counts[i]} ({row.percentage(i):.2f})")
            body.append(cells)
        return (
            "Table 3: worst-case numbers of detected faults (large n)\n"
            + render_rows(header, body)
            + "\n"
        )


def run_table3(circuits: list[str] | None = None) -> Table3Result:
    """Regenerate Table 3 (circuits with nmin >= 11 faults only)."""
    names = circuits if circuits is not None else suite_circuits()
    rows = []
    for name in names:
        analysis = get_universe(name).worst_case
        if analysis.count_at_least(THRESHOLD_NOT_GUARANTEED) == 0:
            continue
        rows.append(
            Table3Row(
                circuit=name,
                num_faults=len(analysis),
                counts=[analysis.count_at_least(t) for t in THRESHOLDS],
            )
        )
    return Table3Result(rows)
