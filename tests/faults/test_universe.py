"""FaultUniverse: lazy building, caching, summary."""

from __future__ import annotations

from repro.faults.universe import FaultUniverse


class TestUniverse:
    def test_tables_cached(self, example_circuit):
        u = FaultUniverse(example_circuit)
        assert u.target_table is u.target_table
        assert u.untargeted_table is u.untargeted_table

    def test_target_faults_are_collapsed(self, example_universe):
        assert len(example_universe.target_faults) == 16

    def test_untargeted_table_detectable_only(self, example_universe):
        table = example_universe.untargeted_table
        assert all(sig for sig in table.packed.to_bigints())

    def test_raw_untargeted_universe(self, example_universe):
        assert len(example_universe.untargeted_faults) == 12

    def test_summary(self, example_universe):
        s = example_universe.summary()
        assert s["target_faults"] == 16
        assert s["untargeted_faults"] == 10
        assert s["inputs"] == 4
        assert s["gates"] == 3

    def test_shared_signatures(self, example_circuit):
        """Both tables' rows share one bit space (one vector universe)."""
        u = FaultUniverse(example_circuit)
        assert u.target_table.universe == u.untargeted_table.universe


class TestWorstCase:
    """The universe owns its Section 2 analysis: one cached value."""

    def test_cached(self, c17_circuit):
        u = FaultUniverse(c17_circuit)
        assert u.worst_case is u.worst_case

    def test_equals_hand_built_analysis(self, c17_circuit):
        from repro.core.worst_case import WorstCaseAnalysis

        u = FaultUniverse(c17_circuit)
        wc = u.worst_case
        assert wc.target_table is u.target_table
        assert wc.untargeted_table is u.untargeted_table
        direct = WorstCaseAnalysis(u.target_table, u.untargeted_table)
        assert wc.records == direct.records
        assert wc.nmin_values() == direct.nmin_values()
        assert wc.guaranteed_n() == direct.guaranteed_n()
