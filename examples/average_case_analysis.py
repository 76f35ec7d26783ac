"""Average-case analysis with Procedure 1 (Section 3, Table 5).

Builds K random n-detection test sets for a circuit, then estimates the
probability p(n, g) that an arbitrary n-detection test set detects each
bridging fault that is *not* guaranteed detection at n = 10
(``nmin(g) >= 11``), and prints the Table 5 histogram row.

Run:  python examples/average_case_analysis.py [circuit] [K]
"""

import sys

from repro.bench_suite.registry import get_circuit
from repro.core.average_case import TABLE5_THRESHOLDS, AverageCaseAnalysis
from repro.core.procedure1 import build_random_ndetection_sets
from repro.faults.universe import FaultUniverse


def main(argv: list[str]) -> int:
    name = argv[0] if argv else "bbara"
    num_sets = int(argv[1]) if len(argv) > 1 else 200
    n_max = 10

    circuit = get_circuit(name)
    universe = FaultUniverse(circuit)
    worst = universe.worst_case
    hard = worst.indices_at_least(n_max + 1)
    print(
        f"{name}: {len(worst)} bridging faults, "
        f"{len(hard)} not guaranteed by a {n_max}-detection test set"
    )
    if not hard:
        print("Nothing to analyze — every fault is guaranteed at n <= 10.")
        return 0

    print(f"Building {num_sets} random {n_max}-detection test sets ...")
    family = build_random_ndetection_sets(
        universe.target_table, n_max=n_max, num_sets=num_sets, seed=2005
    )
    sizes = family.sizes(n_max)
    print(
        f"test-set sizes at n={n_max}: "
        f"min={min(sizes)} avg={sum(sizes) / len(sizes):.1f} max={max(sizes)}"
    )

    avg = AverageCaseAnalysis(
        family, universe.untargeted_table, fault_indices=hard
    )
    # Probabilities for each n show the diminishing return of raising n.
    for n in (1, 2, 5, n_max):
        probs = avg.probabilities(n)
        mean = sum(probs) / len(probs)
        print(f"  mean p({n:2d}, g) over hard faults = {mean:.3f}")

    hist = avg.histogram(n_max)
    print("\nTable 5 row (number of faults with p(10, g) >= threshold):")
    for t, count in zip(TABLE5_THRESHOLDS, hist):
        print(f"  p >= {t:<4g}: {count}")
    p_min, j_min = avg.minimum_probability(n_max)
    print(
        f"\nHardest fault: {universe.untargeted_table.fault_name(j_min)} "
        f"with p({n_max}, g) = {p_min:.3f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
