"""Escape-probability analysis (Section 4's closing calculation)."""

from __future__ import annotations

import pytest

from repro.core.average_case import AverageCaseAnalysis
from repro.core.escape import EscapeAnalysis
from repro.core.procedure1 import build_random_ndetection_sets
from repro.core.worst_case import WorstCaseAnalysis
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def setup(example_universe):
    worst = WorstCaseAnalysis(
        example_universe.target_table, example_universe.untargeted_table
    )
    family = build_random_ndetection_sets(
        example_universe.target_table, n_max=5, num_sets=80, seed=6
    )
    avg = AverageCaseAnalysis(family, example_universe.untargeted_table)
    return EscapeAnalysis(worst, avg)


class TestEscapeReports:
    def test_expected_never_exceeds_population(self, setup):
        for rep in setup.curve():
            assert 0.0 <= rep.expected_escapes <= rep.analyzed_faults

    def test_expected_escapes_decrease_with_n(self, setup):
        values = [rep.expected_escapes for rep in setup.curve()]
        assert values == sorted(values, reverse=True)

    def test_worst_case_bounds_expected_direction(self, setup):
        """Once the worst case guarantees detection (nmin <= n), those
        faults contribute zero expectation, so at the guaranteed n the
        expected escapes hit zero together with the bound."""
        reports = setup.curve()
        for rep in reports:
            if rep.worst_case_escapes == 0:
                assert rep.expected_escapes == pytest.approx(0.0)

    def test_worst_case_counts_match_analysis(self, setup):
        for rep in setup.curve():
            assert rep.worst_case_escapes == setup.worst.count_at_least(
                rep.n + 1
            )

    def test_worst_case_counts_cover_only_analyzed_faults(self, setup):
        worst = setup.worst
        subset = [5, 0, 6, 9]
        escape = EscapeAnalysis(
            worst,
            AverageCaseAnalysis(
                setup.average.family, worst.untargeted_table,
                fault_indices=subset,
            ),
        )
        records = worst.records
        for n in range(1, 6):
            assert escape.report(n).worst_case_escapes == sum(
                1
                for j in subset
                if records[j].nmin is None or records[j].nmin > n
            )

    def test_escape_rate(self, setup):
        rep = setup.report(1)
        assert rep.expected_escape_rate == pytest.approx(
            rep.expected_escapes / rep.analyzed_faults
        )

    def test_marginal_benefit_sums(self, setup):
        curve = setup.curve()
        marginal = setup.marginal_benefit()
        assert len(marginal) == len(curve) - 1
        assert sum(marginal) == pytest.approx(
            curve[0].expected_escapes - curve[-1].expected_escapes
        )

    def test_render(self, setup):
        text = setup.render()
        assert "worst-case escapes" in text
        assert text.count("\n") >= 5


class TestValidation:
    def test_mismatched_tables_rejected(self, example_universe, c17_circuit):
        from repro.faults.universe import FaultUniverse

        worst = WorstCaseAnalysis(
            example_universe.target_table, example_universe.untargeted_table
        )
        other = FaultUniverse(c17_circuit)
        family = build_random_ndetection_sets(
            other.target_table, n_max=2, num_sets=5, seed=1
        )
        avg = AverageCaseAnalysis(family, other.untargeted_table)
        with pytest.raises(AnalysisError, match="disagree"):
            EscapeAnalysis(worst, avg)
