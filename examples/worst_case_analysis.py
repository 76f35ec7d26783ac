"""Worst-case analysis across benchmark circuits (Sections 2, Tables 2-3).

For each circuit: the percentage of four-way bridging faults guaranteed
to be detected by *any* n-detection test set, for n = 1..10, plus the
heavy tail (faults needing n >= 11 / 20 / 100) and — for the heaviest
circuit analyzed — the Figure 2 distribution of nmin values.

Run:  python examples/worst_case_analysis.py [circuit ...]
"""

import sys

from repro.bench_suite.registry import get_circuit
from repro.core.distribution import nmin_distribution, render_ascii_histogram
from repro.core.worst_case import WorstCaseAnalysis
from repro.faults.universe import FaultUniverse

DEFAULT_CIRCUITS = ["lion", "bbtas", "modulo12", "beecount", "bbara", "rie"]


def analyze(name: str) -> WorstCaseAnalysis:
    circuit = get_circuit(name)
    universe = FaultUniverse(circuit)
    analysis = universe.worst_case
    curve = analysis.coverage_curve([1, 2, 3, 4, 5, 10])
    cells = " ".join(f"{p:6.2f}" for p in curve)
    print(
        f"{name:>10}  |G|={len(analysis):6d}  "
        f"coverage% @ n=1,2,3,4,5,10: {cells}   "
        f">=11: {analysis.count_at_least(11)}"
    )
    return analysis


def main(argv: list[str]) -> int:
    names = argv or DEFAULT_CIRCUITS
    print("Worst-case guaranteed coverage of four-way bridging faults")
    print("(the Table 2 / Table 3 view of the paper)\n")
    analyses = {name: analyze(name) for name in names}

    # Figure 2 for the circuit with the heaviest tail.
    heaviest = max(analyses, key=lambda n: analyses[n].count_at_least(11))
    analysis = analyses[heaviest]
    if analysis.count_at_least(11):
        series = nmin_distribution(analysis.nmin_values(), minimum=11)
        print(f"\nDistribution of nmin(g) >= 11 for {heaviest} (Figure 2 view):")
        print(render_ascii_histogram(series[:25]))
    else:
        print("\nNo circuit in this run has faults with nmin >= 11.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
