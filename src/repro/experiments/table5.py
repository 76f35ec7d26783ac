"""Table 5 — average-case probabilities of detection (Definition 1).

For every circuit that has untargeted faults with ``nmin(g) >= 11``
(faults not guaranteed detected by a 10-detection test set), Procedure 1
builds K random 10-detection test sets and the row reports how many of
those faults have ``p(10, g) >= 1, 0.9, ..., 0.1, 0``.

The paper uses K = 10000; the default here is K = 1000 (override with
``k=...`` or the ``REPRO_K`` environment variable) — at K = 1000 the
estimator's standard error is at most 0.016, far below the 0.1-wide
histogram buckets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.average_case import (
    TABLE5_THRESHOLDS,
    AverageCaseAnalysis,
)
from repro.core.procedure1 import build_random_ndetection_sets
from repro.experiments.common import (
    NMAX_DEFAULT,
    PAPER_TABLE5_CIRCUITS,
    THRESHOLD_NOT_GUARANTEED,
    env_int,
    get_universe,
    render_rows,
    suite_circuits,
)


@dataclass
class Table5Row:
    circuit: str
    num_faults: int          # faults with nmin >= 11
    histogram: list[int]     # counts at TABLE5_THRESHOLDS
    min_probability: float

    def cells(self) -> list[str]:
        """Histogram cells with the paper's blank-after-saturation rule."""
        out: list[str] = []
        saturated = False
        for count in self.histogram:
            if saturated:
                out.append("")
                continue
            out.append(str(count))
            if count >= self.num_faults:
                saturated = True
        return out


@dataclass
class Table5Result:
    n: int
    num_sets: int
    rows: list[Table5Row]

    def render(self) -> str:
        header = ["circuit", "faults"] + [
            f">={t:g}" for t in TABLE5_THRESHOLDS
        ]
        body = [
            [row.circuit, str(row.num_faults)] + row.cells()
            for row in self.rows
        ]
        return (
            f"Table 5: average-case probabilities of detection "
            f"(p({self.n},gj), K={self.num_sets})\n"
            + render_rows(header, body)
            + "\n"
        )


def run_table5(
    circuits: list[str] | None = None,
    k: int | None = None,
    n_max: int | None = None,
    seed: int = 2005,
) -> Table5Result:
    """Regenerate Table 5 (Definition 1 average-case analysis)."""
    num_sets = k if k is not None else env_int("REPRO_K", 1000)
    nmax = n_max if n_max is not None else env_int("REPRO_NMAX", NMAX_DEFAULT)
    names = (
        circuits
        if circuits is not None
        else suite_circuits(PAPER_TABLE5_CIRCUITS)
    )
    rows = []
    for name in names:
        universe = get_universe(name)
        hard = universe.worst_case.indices_at_least(THRESHOLD_NOT_GUARANTEED)
        if not hard:
            continue
        family = build_random_ndetection_sets(
            universe.target_table, n_max=nmax, num_sets=num_sets, seed=seed
        )
        avg = AverageCaseAnalysis(
            family, universe.untargeted_table, fault_indices=hard
        )
        probs = avg.probabilities(nmax)
        rows.append(
            Table5Row(
                circuit=name,
                num_faults=len(hard),
                histogram=avg.histogram(nmax),
                min_probability=min(probs),
            )
        )
    return Table5Result(n=nmax, num_sets=num_sets, rows=rows)
