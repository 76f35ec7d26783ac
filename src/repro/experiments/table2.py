"""Table 2 — worst-case percentages of detected faults (small ``n``).

Per circuit: the percentage of untargeted faults ``g`` with
``nmin(g) <= n`` for ``n ∈ {1, 2, 3, 4, 5, 10}``.  Following the paper,
once a column reaches 100% the larger-``n`` columns are left blank, and
rows are grouped by the smallest ``n`` achieving 100% coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import (
    get_universe,
    render_rows,
    suite_circuits,
)

N_COLUMNS: tuple[int, ...] = (1, 2, 3, 4, 5, 10)


@dataclass
class Table2Row:
    circuit: str
    num_faults: int
    percentages: list[float]  # aligned with N_COLUMNS

    def full_coverage_n(self) -> int | None:
        """Smallest column n with 100% coverage (None if never)."""
        for n, pct in zip(N_COLUMNS, self.percentages, strict=True):
            if pct >= 100.0 - 1e-9:
                return n
        return None


@dataclass
class Table2Result:
    rows: list[Table2Row]

    def render(self) -> str:
        header = ["circuit", "faults"] + [f"<={n}" for n in N_COLUMNS]
        body = []
        # Paper grouping: circuits reaching 100% at smaller n first.
        def sort_key(row: Table2Row):
            full = row.full_coverage_n()
            return (full if full is not None else 10**9, row.circuit)

        for row in sorted(self.rows, key=sort_key):
            cells = [row.circuit, str(row.num_faults)]
            done = False
            for pct in row.percentages:
                if done:
                    cells.append("")
                    continue
                if pct >= 100.0 - 1e-9:
                    cells.append("100.00")
                    done = True
                else:
                    # Never round a partial percentage up to 100.00 —
                    # that would misreport completeness (e.g. 99.998%).
                    cells.append(f"{min(pct, 99.99):.2f}")
            body.append(cells)
        return (
            "Table 2: worst-case percentages of detected faults (small n)\n"
            + render_rows(header, body)
            + "\n"
        )


def run_table2(circuits: list[str] | None = None) -> Table2Result:
    """Regenerate Table 2 over the suite (or a subset)."""
    names = circuits if circuits is not None else suite_circuits()
    rows = []
    for name in names:
        analysis = get_universe(name).worst_case
        rows.append(
            Table2Row(
                circuit=name,
                num_faults=len(analysis),
                percentages=analysis.coverage_curve(list(N_COLUMNS)),
            )
        )
    return Table2Result(rows)
