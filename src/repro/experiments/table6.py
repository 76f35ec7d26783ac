"""Table 6 — average-case detection under Definition 1 vs Definition 2.

Same rows as Table 5, but each circuit gets two histogram lines: test
sets built by Procedure 1 with standard counting (Definition 1) and with
the sufficiently-different counting of Definition 2.  The paper's claim —
Definition 2 shifts probability mass upward — is checked by the test
suite on the structural level (the Def. 2 histogram dominates at most
thresholds).

The paper uses K = 1000; the default here is K = 200 because every
Definition 2 iteration runs 3-valued ``tij`` fault simulations (batched,
but still the dominant cost).  Override with ``k=...`` or ``REPRO_K``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.average_case import TABLE5_THRESHOLDS, AverageCaseAnalysis
from repro.core.procedure1 import build_random_ndetection_sets
from repro.experiments.common import (
    NMAX_DEFAULT,
    PAPER_TABLE6_CIRCUITS,
    THRESHOLD_NOT_GUARANTEED,
    env_int,
    get_universe,
    render_rows,
    suite_circuits,
)
from repro.experiments.table5 import Table5Row


@dataclass
class Table6Row:
    circuit: str
    num_faults: int
    def1: Table5Row
    def2: Table5Row


@dataclass
class Table6Result:
    n: int
    num_sets: int
    rows: list[Table6Row]

    def render(self) -> str:
        header = ["circuit", "faults", "def"] + [
            f">={t:g}" for t in TABLE5_THRESHOLDS
        ]
        body = []
        for row in self.rows:
            body.append(
                [row.circuit, str(row.num_faults), "1"] + row.def1.cells()
            )
            body.append(["", "", "2"] + row.def2.cells())
        return (
            f"Table 6: average-case probabilities under Definitions 1 and 2 "
            f"(p({self.n},gj), K={self.num_sets})\n"
            + render_rows(header, body)
            + "\n"
        )


def run_table6(
    circuits: list[str] | None = None,
    k: int | None = None,
    n_max: int | None = None,
    seed: int = 2005,
) -> Table6Result:
    """Regenerate Table 6 (Definition 1 vs Definition 2)."""
    num_sets = k if k is not None else env_int("REPRO_K", 200)
    nmax = n_max if n_max is not None else env_int("REPRO_NMAX", NMAX_DEFAULT)
    names = (
        circuits
        if circuits is not None
        else suite_circuits(PAPER_TABLE6_CIRCUITS)
    )
    rows = []
    for name in names:
        universe = get_universe(name)
        hard = universe.worst_case.indices_at_least(THRESHOLD_NOT_GUARANTEED)
        if not hard:
            continue
        row_halves = []
        for counting in ("def1", "def2"):
            family = build_random_ndetection_sets(
                universe.target_table,
                n_max=nmax,
                num_sets=num_sets,
                seed=seed,
                counting=counting,
            )
            avg = AverageCaseAnalysis(
                family, universe.untargeted_table, fault_indices=hard
            )
            probs = avg.probabilities(nmax)
            row_halves.append(
                Table5Row(
                    circuit=name,
                    num_faults=len(hard),
                    histogram=avg.histogram(nmax),
                    min_probability=min(probs),
                )
            )
        rows.append(
            Table6Row(
                circuit=name,
                num_faults=len(hard),
                def1=row_halves[0],
                def2=row_halves[1],
            )
        )
    return Table6Result(n=nmax, num_sets=num_sets, rows=rows)
