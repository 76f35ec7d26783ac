"""Figure 2 — the distribution of ``nmin(gj)`` for a heavy-tail circuit.

The paper plots, for ``dvram``, the number of faults at each ``nmin``
value of at least 100.  The experiment produces the ``(nmin, count)``
series and an ASCII rendering; when the chosen circuit has no such
faults the result says so instead of an empty chart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.distribution import nmin_distribution, render_ascii_histogram
from repro.experiments.common import get_universe


@dataclass
class Figure2Result:
    circuit: str
    minimum: int
    series: list[tuple[int, int]]
    unbounded: int  # faults with no finite nmin (no guarantee at any n)

    def render(self) -> str:
        head = (
            f"Figure 2: distribution of nmin(gj) >= {self.minimum} "
            f"for {self.circuit}\n"
        )
        if not self.series and not self.unbounded:
            return head + f"(no faults with nmin >= {self.minimum})\n"
        chart = render_ascii_histogram(self.series)
        tail = (
            f"\n({self.unbounded} faults have no finite nmin)\n"
            if self.unbounded
            else "\n"
        )
        return head + chart + tail


def run_figure2(circuit: str = "dvram", minimum: int = 100) -> Figure2Result:
    """Regenerate Figure 2 for a circuit (default: the paper's dvram)."""
    analysis = get_universe(circuit).worst_case
    values = analysis.nmin_values()
    series = nmin_distribution(values, minimum=minimum)
    unbounded = sum(1 for v in values if v is None)
    return Figure2Result(
        circuit=circuit, minimum=minimum, series=series, unbounded=unbounded
    )
