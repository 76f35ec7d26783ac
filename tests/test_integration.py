"""End-to-end integration: KISS2 source → every analysis → consistency.

Runs the complete pipeline on one hand-written suite circuit (lion) and
asserts the cross-layer relationships that hold only when every stage —
parsing, synthesis, fault building, detection tables, worst case,
Procedure 1, average case, escape — composes correctly.
"""

from __future__ import annotations

import pytest

from repro.bench_suite.mcnc import kiss2_source
from repro.core.average_case import AverageCaseAnalysis
from repro.core.escape import EscapeAnalysis
from repro.core.procedure1 import build_random_ndetection_sets
from repro.core.worst_case import WorstCaseAnalysis
from repro.faults.universe import FaultUniverse
from repro.fsm.simulate import trajectories_match
from repro.fsm.synthesis import synthesize_fsm
from repro.io_formats.bench import parse_bench, write_bench
from repro.io_formats.kiss2 import parse_kiss2
from repro.io_formats.verilog import parse_verilog, write_verilog
from repro.simulation.exhaustive import line_signatures

N_MAX = 6
K = 40


@pytest.fixture(scope="module")
def pipeline():
    fsm = parse_kiss2(kiss2_source("lion"), name="lion")
    circuit = synthesize_fsm(fsm)
    universe = FaultUniverse(circuit)
    worst = WorstCaseAnalysis(universe.target_table, universe.untargeted_table)
    family = build_random_ndetection_sets(
        universe.target_table, n_max=N_MAX, num_sets=K, seed=99
    )
    average = AverageCaseAnalysis(family, universe.untargeted_table)
    return fsm, circuit, universe, worst, family, average


class TestPipeline:
    def test_sequential_equivalence(self, pipeline):
        fsm, circuit, *_ = pipeline
        walk = [v % 4 for v in range(50)]
        assert trajectories_match(fsm, circuit, walk)

    def test_worst_average_consistency(self, pipeline):
        *_, worst, _family, average = pipeline
        for rec in worst.records:
            if rec.nmin is not None and rec.nmin <= N_MAX:
                assert average.detection_probability(
                    rec.nmin, rec.fault_index
                ) == 1.0

    def test_escape_closes_the_loop(self, pipeline):
        *_, worst, _family, average = pipeline
        escape = EscapeAnalysis(worst, average)
        final = escape.report(N_MAX)
        if worst.guaranteed_n() is not None and worst.guaranteed_n() <= N_MAX:
            assert final.worst_case_escapes == 0
            assert final.expected_escapes == pytest.approx(0.0)

    def test_serialization_round_trips_preserve_analysis(self, pipeline):
        """Writing to .bench / Verilog and re-reading yields a circuit
        whose guaranteed n is identical (function-level invariance)."""
        _fsm, circuit, _universe, worst, *_ = pipeline
        for writer, reader in (
            (write_bench, parse_bench),
            (write_verilog, parse_verilog),
        ):
            clone = reader(writer(circuit))
            # Same function on each output.
            orig = line_signatures(circuit)
            new = line_signatures(clone)
            for o1, o2 in zip(circuit.outputs, clone.outputs, strict=True):
                assert orig[o1] == new[o2]
            clone_universe = FaultUniverse(clone)
            clone_worst = WorstCaseAnalysis(
                clone_universe.target_table, clone_universe.untargeted_table
            )
            # Structure is identical (branches collapse and re-expand
            # one-to-one), so the whole analysis must agree.
            assert clone_worst.guaranteed_n() == worst.guaranteed_n()
            assert len(clone_worst) == len(worst)

    def test_greedy_test_set_detects_guaranteed_faults(self, pipeline):
        from repro.atpg.ndetect import greedy_ndetection_set

        _fsm, _circuit, universe, worst, *_ = pipeline
        n = 3
        tests = greedy_ndetection_set(universe.target_table, n)
        sig = sum(1 << t for t in tests)
        for rec in worst.records:
            if rec.nmin is not None and rec.nmin <= n:
                g_sig = universe.untargeted_table.packed.row_bigint(
                    rec.fault_index
                )
                assert sig & g_sig, (
                    "deterministic n-detection set missed a guaranteed fault"
                )
