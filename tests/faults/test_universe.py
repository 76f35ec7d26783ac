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
