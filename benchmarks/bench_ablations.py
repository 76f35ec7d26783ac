"""Ablation benches for the design choices called out in DESIGN.md.

1. **State encoding** (binary / gray / one-hot): how the assignment
   shifts the worst-case coverage curve and the nmin tail.
2. **Target collapsing** (equivalence vs dominance): dropping dominated
   targets removes constraints, so every nmin can only grow — verified
   fault-by-fault, quantified in the artifact.
3. **Definition 2 counting** (greedy vs exact maximum): how much the
   paper's greedy counting undercounts on real detection sets.
4. **Multilevel sharing** (common-pair extraction on/off): how much of
   the nmin spread comes from shared logic between cones.
"""

from __future__ import annotations

from repro.bench_suite.registry import get_fsm
from repro.core.definitions import (
    count_detections_def2,
    count_detections_def2_exact,
)
from repro.core.worst_case import WorstCaseAnalysis
from repro.faults.stuck_at import dominance_collapsed_faults
from repro.faults.universe import FaultUniverse
from repro.faultsim.detection import DetectionTable
from repro.fsm.synthesis import synthesize_fsm

CIRCUIT = "bbtas"


def _worst_case(circuit):
    universe = FaultUniverse(circuit)
    return WorstCaseAnalysis(universe.target_table, universe.untargeted_table)


def test_encoding_ablation(benchmark, save_artifact):
    fsm = get_fsm(CIRCUIT)

    def run():
        rows = {}
        for strategy in ("binary", "gray", "onehot"):
            circuit = synthesize_fsm(fsm, encoding=strategy)
            wc = _worst_case(circuit)
            rows[strategy] = (
                len(wc),
                wc.coverage_curve([1, 2, 5, 10]),
                wc.guaranteed_n(),
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"Encoding ablation on {CIRCUIT} (|G|, coverage%, guaranteed n)"]
    for strategy, (num_g, curve, g_n) in rows.items():
        cells = " ".join(f"{p:6.2f}" for p in curve)
        lines.append(f"  {strategy:>7}: |G|={num_g:6d}  {cells}  n*={g_n}")
    save_artifact("ablation_encoding", "\n".join(lines) + "\n")
    # One-hot uses more state bits -> a different (usually larger) G.
    assert rows["onehot"][0] != rows["binary"][0]


def test_collapse_ablation(benchmark, save_artifact):
    from repro.bench_suite.registry import get_circuit

    circuit = get_circuit(CIRCUIT)
    universe = FaultUniverse(circuit)

    def run():
        eq_wc = WorstCaseAnalysis(
            universe.target_table, universe.untargeted_table
        )
        dom_faults = dominance_collapsed_faults(circuit)
        dom_table = DetectionTable.for_stuck_at(circuit, faults=dom_faults)
        dom_wc = WorstCaseAnalysis(dom_table, universe.untargeted_table)
        return eq_wc, dom_wc

    eq_wc, dom_wc = benchmark.pedantic(run, rounds=1, iterations=1)
    increased = 0
    for a, b in zip(eq_wc.records, dom_wc.records):
        a_val = a.nmin if a.nmin is not None else 10**9
        b_val = b.nmin if b.nmin is not None else 10**9
        assert b_val >= a_val, "dominance collapse tightened a guarantee?"
        increased += b_val > a_val
    text = (
        f"Collapse ablation on {CIRCUIT}:\n"
        f"  equivalence targets: {len(eq_wc.target_table)}\n"
        f"  dominance targets:   {len(dom_wc.target_table)}\n"
        f"  faults whose nmin grew when dropping dominated targets: "
        f"{increased} / {len(eq_wc)}\n"
        f"  guaranteed n: {eq_wc.guaranteed_n()} -> {dom_wc.guaranteed_n()}\n"
    )
    save_artifact("ablation_collapse", text)


def test_def2_greedy_vs_exact(benchmark, save_artifact):
    from repro.bench_suite.example import paper_example

    circuit = paper_example()
    table = DetectionTable.for_stuck_at(circuit)

    def run():
        gaps = []
        for i, fault in enumerate(table.faults):
            sig = table.packed.row_bigint(i)
            if not sig:
                continue
            vecs = table.vectors(i)
            greedy = count_detections_def2(circuit, fault, sig, vecs)
            exact = count_detections_def2_exact(circuit, fault, sig, vecs)
            gaps.append((table.fault_name(i), greedy, exact))
        return gaps

    gaps = benchmark.pedantic(run, rounds=1, iterations=1)
    undercount = [g for g in gaps if g[1] < g[2]]
    lines = ["Definition 2 greedy vs exact (example circuit)"]
    for name, greedy, exact in gaps:
        marker = "  <-- greedy undercounts" if greedy < exact else ""
        lines.append(f"  {name:>6}: greedy={greedy} exact={exact}{marker}")
    lines.append(f"  undercounted faults: {len(undercount)}/{len(gaps)}")
    save_artifact("ablation_def2_exact", "\n".join(lines) + "\n")
    for _name, greedy, exact in gaps:
        assert greedy <= exact


def test_sharing_ablation(benchmark, save_artifact):
    fsm = get_fsm(CIRCUIT)

    def run():
        rows = {}
        for share in (True, False):
            circuit = synthesize_fsm(fsm, share_logic=share)
            wc = _worst_case(circuit)
            rows[share] = (
                circuit.num_gates,
                len(wc),
                wc.coverage_curve([1, 2, 5, 10]),
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"Multilevel-sharing ablation on {CIRCUIT}"]
    for share, (gates, num_g, curve) in rows.items():
        cells = " ".join(f"{p:6.2f}" for p in curve)
        label = "shared" if share else "flat"
        lines.append(f"  {label:>6}: gates={gates:4d} |G|={num_g:6d}  {cells}")
    save_artifact("ablation_sharing", "\n".join(lines) + "\n")
    # Sharing shrinks the netlist (that is its point).
    assert rows[True][0] <= rows[False][0]
