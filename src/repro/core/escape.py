"""Defect-escape estimation from the analysis results (Section 4).

The paper closes with: "The probabilities of detection given in Tables 5
and 6 can be used to calculate the probability that an untargeted fault
escapes detection."  This module does that calculation:

* the **worst-case escape bound** — the number of untargeted faults an
  adversarial n-detection test set is *allowed* to miss (``nmin(g) > n``);
* the **expected escapes** of an arbitrary n-detection test set —
  ``sum_g (1 - p(n, g))`` over the analyzed faults;
* the **marginal value of raising n** — how much the expectation drops
  per unit of n (the paper's conclusion that raising n quickly stops
  paying is this curve flattening).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.average_case import AverageCaseAnalysis
from repro.core.worst_case import WorstCaseAnalysis
from repro.errors import AnalysisError
from repro.logic.packed import _np


@dataclass(frozen=True)
class EscapeReport:
    """Escape metrics for one circuit at one ``n``."""

    n: int
    analyzed_faults: int
    worst_case_escapes: int
    expected_escapes: float

    @property
    def expected_escape_rate(self) -> float:
        if self.analyzed_faults == 0:
            return 0.0
        return self.expected_escapes / self.analyzed_faults


class EscapeAnalysis:
    """Escape metrics across ``n`` for one circuit.

    Parameters
    ----------
    worst:
        Worst-case analysis (provides ``nmin`` and the fault universe).
    average:
        Average-case analysis built over the same untargeted table.  Its
        ``fault_indices`` selection defines the analyzed population; pass
        one built over *all* faults for whole-universe escape rates.
    """

    def __init__(self, worst: WorstCaseAnalysis, average: AverageCaseAnalysis):
        if worst.untargeted_table is not average.table:
            raise AnalysisError(
                "worst-case and average-case analyses disagree on the "
                "untargeted fault table"
            )
        self.worst = worst
        self.average = average

    def report(self, n: int) -> EscapeReport:
        """Escape metrics at one ``n`` (1 <= n <= family n_max)."""
        indices = self.average.fault_indices
        nmin = self.worst.nmin[indices]
        worst_escapes = int(_np.count_nonzero((nmin == 0) | (nmin > n)))
        probs = self.average.probabilities(n)
        expected = sum(1.0 - p for p in probs)
        return EscapeReport(
            n=n,
            analyzed_faults=len(indices),
            worst_case_escapes=worst_escapes,
            expected_escapes=expected,
        )

    def curve(self, n_values: list[int] | None = None) -> list[EscapeReport]:
        """Escape metrics for each ``n`` (default: 1..family n_max)."""
        if n_values is None:
            n_values = list(range(1, self.average.family.n_max + 1))
        return [self.report(n) for n in n_values]

    def marginal_benefit(self) -> list[float]:
        """Drop in expected escapes per unit increase of ``n``.

        The paper's conclusion — "increasing n is not likely to be an
        effective solution" — corresponds to this sequence approaching
        zero while worst-case escapes stay positive.
        """
        curve = self.curve()
        return [
            curve[i - 1].expected_escapes - curve[i].expected_escapes
            for i in range(1, len(curve))
        ]

    def render(self) -> str:
        lines = [
            f"{'n':>3}  {'worst-case escapes':>19}  {'expected escapes':>17}"
        ]
        for rep in self.curve():
            lines.append(
                f"{rep.n:>3}  {rep.worst_case_escapes:>19}  "
                f"{rep.expected_escapes:>17.2f}"
            )
        return "\n".join(lines)
