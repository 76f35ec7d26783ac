"""Extension benches: beyond the paper's published experiments.

1. **Gate-exhaustive untargeted model** — the paper's analysis is
   model-agnostic; re-run the worst case with input-pattern faults as
   ``G`` and compare the coverage shape against the bridging model.
2. **Escape curve** — Section 4 notes the detection probabilities yield
   escape estimates; produce the expected-escapes-vs-n curve and verify
   the paper's conclusion (raising n has fast-diminishing returns while
   a worst-case escape risk remains).
3. **Partitioned analysis** — Section 4's scaling route, timed on a
   suite circuit.
"""

from __future__ import annotations

from repro.core.average_case import AverageCaseAnalysis
from repro.core.escape import EscapeAnalysis
from repro.core.partition import PartitionedAnalysis
from repro.core.procedure1 import build_random_ndetection_sets
from repro.core.worst_case import WorstCaseAnalysis
from repro.experiments.common import get_universe
from repro.faults.cell_aware import gate_exhaustive_table

N_COLUMNS = (1, 2, 3, 4, 5, 10)
CIRCUITS = ("bbtas", "beecount", "bbara")


def test_gate_exhaustive_model(benchmark, save_artifact):
    def run():
        rows = {}
        for name in CIRCUITS:
            universe = get_universe(name)
            bridging_wc = universe.worst_case
            ge_table = gate_exhaustive_table(universe.circuit)
            ge_wc = WorstCaseAnalysis(universe.target_table, ge_table)
            rows[name] = (
                (len(bridging_wc), bridging_wc.coverage_curve(list(N_COLUMNS))),
                (len(ge_wc), ge_wc.coverage_curve(list(N_COLUMNS))),
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Worst-case coverage: bridging vs gate-exhaustive G"]
    for name, (bridging, gate_ex) in rows.items():
        for label, (count, curve) in (
            ("bridging", bridging),
            ("gate-exh", gate_ex),
        ):
            cells = " ".join(f"{p:6.2f}" for p in curve)
            lines.append(f"  {name:>9} {label:>9} |G|={count:6d}  {cells}")
    save_artifact("extension_gate_exhaustive", "\n".join(lines) + "\n")
    for name, (bridging, gate_ex) in rows.items():
        # Both models show the paper's shape: high n=1 coverage, monotone.
        for _count, curve in (bridging, gate_ex):
            assert curve == sorted(curve)
            assert curve[0] > 50.0


def test_escape_curve(benchmark, save_artifact):
    name = "bbara"

    def run():
        universe = get_universe(name)
        family = build_random_ndetection_sets(
            universe.target_table, n_max=10, num_sets=100, seed=2005
        )
        avg = AverageCaseAnalysis(family, universe.untargeted_table)
        return EscapeAnalysis(universe.worst_case, avg)

    escape = benchmark.pedantic(run, rounds=1, iterations=1)
    save_artifact(
        "extension_escape", f"Escape curve for {name}\n" + escape.render() + "\n"
    )
    curve = escape.curve()
    # Expected escapes fall monotonically...
    values = [rep.expected_escapes for rep in curve]
    assert values == sorted(values, reverse=True)
    # ...but the marginal benefit of raising n collapses (the paper's
    # conclusion): the last step buys far less than the first.
    marginal = escape.marginal_benefit()
    assert marginal[-1] <= marginal[0]


def test_partitioned_analysis(benchmark, save_artifact):
    from repro.bench_suite.registry import get_circuit

    circuit = get_circuit("mark1")
    analysis = benchmark.pedantic(
        PartitionedAnalysis, args=(circuit,), kwargs={"max_inputs": 9},
        rounds=1, iterations=1,
    )
    summary = analysis.summary()
    text = "Partitioned analysis of mark1 (max 9 inputs)\n" + "\n".join(
        f"  {key}: {value}" for key, value in summary.items()
    )
    save_artifact("extension_partition", text + "\n")
    assert summary["cones"] >= 1
    assert 0 < summary["site_coverage"] <= 1
