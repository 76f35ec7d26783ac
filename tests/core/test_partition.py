"""Cone-partitioned analysis (Section 4)."""

from __future__ import annotations

import pytest

from repro.core.partition import PartitionedAnalysis
from repro.core.worst_case import WorstCaseAnalysis
from repro.faults.universe import FaultUniverse


class TestPartitionedExample:
    @pytest.fixture(scope="class")
    def parts(self, example_circuit):
        return PartitionedAnalysis(example_circuit, max_inputs=3)

    def test_cones_built(self, parts):
        # With a 3-input bound, outputs 9 (support 1,2) and 10 (support
        # 2,3) share a cone; single-gate cones have no bridging pairs and
        # are dropped.
        assert len(parts.cones) >= 1
        for cone in parts.cones:
            # A cone is its own analyzed universe.
            assert isinstance(cone, FaultUniverse)
            assert cone.circuit.num_inputs <= 3

    def test_single_gate_cones_skipped(self, example_circuit):
        tight = PartitionedAnalysis(example_circuit, max_inputs=2)
        # Every 2-input cone holds one gate: no bridging sites anywhere.
        assert tight.cones == []
        assert tight.fraction_within(1) == 1.0
        assert tight.guaranteed_n() == 0

    def test_fraction_within_monotone(self, parts):
        values = [parts.fraction_within(n) for n in range(1, 8)]
        assert values == sorted(values)

    def test_guaranteed_n_positive(self, parts):
        g = parts.guaranteed_n()
        assert g is not None and g >= 1
        assert parts.fraction_within(g) == 1.0

    def test_site_coverage_fraction(self, parts):
        assert 0.0 <= parts.coverage_of_fault_sites <= 1.0
        # Bridges between different cones (e.g. 9-11) are not analyzable:
        # coverage is strictly below 1 for the example circuit.
        assert parts.coverage_of_fault_sites < 1.0

    def test_summary_keys(self, parts):
        s = parts.summary()
        assert set(s) == {
            "cones", "analyzed_faults", "site_coverage", "guaranteed_n",
        }


class TestWideConeBackend:
    """Partition × sampled composition: wide cones stop being a wall."""

    def test_wide_output_raises_without_backend(self):
        from repro.bench_suite.registry import get_circuit
        from repro.errors import CircuitError

        with pytest.raises(CircuitError, match="cannot partition"):
            PartitionedAnalysis(get_circuit("wide28"), max_inputs=10)

    def test_wide_suite_circuit_smoke(self):
        from repro.bench_suite.registry import get_circuit
        from repro.faultsim.backends import TableBackend

        parts = PartitionedAnalysis(
            get_circuit("wide28"),
            max_inputs=10,
            backend=TableBackend(samples=64, seed=1),
        )
        wide = [c for c in parts.cones if c.circuit.num_inputs > 10]
        narrow = [c for c in parts.cones if c.circuit.num_inputs <= 10]
        assert wide and narrow
        # Wide cones run on the sampled universe, narrow ones stay exact.
        assert all(not c.worst_case.universe.exact for c in wide)
        assert all(c.target_table.universe.size == 64 for c in wide)
        assert all(c.worst_case.universe.exact for c in narrow)
        assert 0.0 <= parts.coverage_of_fault_sites <= 1.0
        summary = parts.summary()
        assert summary["cones"] == len(parts.cones)
        assert summary["analyzed_faults"] > 0

    def test_narrow_circuit_ignores_backend(self, example_circuit):
        from repro.faultsim.backends import TableBackend

        exact = PartitionedAnalysis(example_circuit, max_inputs=4)
        with_backend = PartitionedAnalysis(
            example_circuit,
            max_inputs=4,
            backend=TableBackend(samples=8, seed=1),
        )
        # No cone exceeds the bound, so the sampled backend never engages
        # and the results are the exact ones.
        assert all(
            c.worst_case.universe.exact for c in with_backend.cones
        )
        assert with_backend.guaranteed_n() == exact.guaranteed_n()

    def test_jobs_threaded_to_cone_builds(self, example_circuit, tmp_path,
                                          monkeypatch):
        from repro.parallel import ParallelBackend, PoolExecutor

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        parts = PartitionedAnalysis(
            example_circuit, max_inputs=3, executor=PoolExecutor(jobs=2)
        )
        assert parts.cones
        assert all(
            isinstance(c.backend, ParallelBackend)
            and c.backend.executor == PoolExecutor(jobs=2)
            for c in parts.cones
        )
        # The executor changes construction speed, never results.
        exact = PartitionedAnalysis(example_circuit, max_inputs=3)
        assert parts.guaranteed_n() == exact.guaranteed_n()

    def test_deterministic(self):
        from repro.bench_suite.registry import get_circuit
        from repro.faultsim.backends import TableBackend

        def build():
            return PartitionedAnalysis(
                get_circuit("wide28"),
                max_inputs=10,
                backend=TableBackend(samples=32, seed=5),
            )

        a, b = build(), build()
        assert [c.worst_case.guaranteed_n() for c in a.cones] == (
            [c.worst_case.guaranteed_n() for c in b.cones]
        )


class TestWholeCircuitPartition:
    def test_single_cone_matches_direct_analysis(self, example_circuit):
        """With a bound covering all inputs, per-cone results must agree
        with the direct analysis on shared faults."""
        parts = PartitionedAnalysis(example_circuit, max_inputs=4)
        assert len(parts.cones) == 1
        cone = parts.cones[0]
        direct_u = FaultUniverse(example_circuit)
        direct = WorstCaseAnalysis(
            direct_u.target_table, direct_u.untargeted_table
        )
        # Same input space, same fault sites -> same guaranteed n.
        assert cone.worst_case.guaranteed_n() == direct.guaranteed_n()

    def test_site_coverage_complete(self, example_circuit):
        parts = PartitionedAnalysis(example_circuit, max_inputs=4)
        assert parts.coverage_of_fault_sites == 1.0
