"""PackedDetectionTable: a drop-in DetectionTable with vectorized queries."""

from __future__ import annotations

import pytest

from repro.bench_suite.randlogic import random_circuit
from repro.errors import AnalysisError, FaultError
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import (
    TableBackend,
    make_backend,
)
from repro.faultsim.detection import DetectionTable
from repro.faultsim.packed_table import PackedDetectionTable
from repro.logic.packed import PackedSignatureMatrix


@pytest.fixture(scope="module")
def circuit():
    return random_circuit(21, num_inputs=6, num_gates=14)


@pytest.fixture(scope="module")
def plain_tables(circuit):
    return (
        DetectionTable.for_stuck_at(circuit),
        DetectionTable.for_bridging(circuit),
    )


@pytest.fixture(scope="module")
def packed_tables(plain_tables):
    plain_f, plain_g = plain_tables
    return (
        PackedDetectionTable.from_table(plain_f),
        PackedDetectionTable.from_table(plain_g),
    )


class TestQuerySurface:
    """Every DetectionTable query must agree with the plain table."""

    def test_identity_fields(self, plain_tables, packed_tables):
        for plain, packed in zip(plain_tables, packed_tables, strict=True):
            assert packed.faults == plain.faults
            assert packed.signatures == plain.signatures
            assert packed.universe == plain.universe
            assert len(packed) == len(plain)

    def test_counts(self, plain_tables, packed_tables):
        for plain, packed in zip(plain_tables, packed_tables, strict=True):
            assert packed.counts() == plain.counts()
            for i in range(len(plain)):
                assert packed.count(i) == plain.count(i)

    def test_detectability(self, plain_tables, packed_tables):
        for plain, packed in zip(plain_tables, packed_tables, strict=True):
            assert packed.num_detectable() == plain.num_detectable()
            assert packed.detectable_indices() == plain.detectable_indices()

    def test_test_set_queries(self, plain_tables, packed_tables):
        test_signature = 0b1011001
        for plain, packed in zip(plain_tables, packed_tables, strict=True):
            assert packed.detected_by(test_signature) == plain.detected_by(
                test_signature
            )
            assert packed.detection_counts(
                test_signature
            ) == plain.detection_counts(test_signature)
            assert packed.coverage(test_signature) == plain.coverage(
                test_signature
            )

    def test_vectors_and_estimates(self, plain_tables, packed_tables):
        plain, packed = plain_tables[0], packed_tables[0]
        for i in (0, 1, len(plain) - 1):
            assert packed.vectors(i) == plain.vectors(i)
            assert packed.detecting_vectors(i) == plain.detecting_vectors(i)
            assert packed.estimated_count(i) == plain.estimated_count(i)

    def test_packed_matrix_consistency(self, packed_tables):
        for packed in packed_tables:
            assert packed.packed.to_bigints() == packed.signatures

    def test_from_table_is_idempotent(self, packed_tables):
        packed = packed_tables[0]
        assert PackedDetectionTable.from_table(packed) is packed


class TestConstruction:
    def test_for_stuck_at_builds_packed(self, circuit):
        table = PackedDetectionTable.for_stuck_at(circuit)
        assert isinstance(table.packed, PackedSignatureMatrix)
        assert table.packed.to_bigints() == table.signatures

    def test_mismatched_packed_rejected(self, circuit, plain_tables):
        plain = plain_tables[0]
        wrong = PackedSignatureMatrix.from_bigints(
            plain.signatures[:-1], plain.universe.size
        )
        with pytest.raises(FaultError, match="length mismatch"):
            PackedDetectionTable(
                circuit, plain.faults, plain.signatures,
                plain.universe, packed=wrong,
            )


class TestPackedBackend:
    def test_exhaustive_equivalence(self, circuit):
        exh = FaultUniverse(circuit, backend=TableBackend())
        pck = FaultUniverse(circuit, backend=TableBackend(packed=True))
        assert pck.target_table.signatures == exh.target_table.signatures
        assert pck.untargeted_table.faults == exh.untargeted_table.faults
        assert pck.target_table.universe == exh.target_table.universe

    def test_sampled_equivalence(self, circuit):
        smp = FaultUniverse(circuit, backend=TableBackend(samples=24, seed=3))
        pck = FaultUniverse(
            circuit, backend=TableBackend(samples=24, seed=3, packed=True)
        )
        assert pck.target_table.signatures == smp.target_table.signatures
        assert pck.target_table.universe == smp.target_table.universe

    def test_make_backend_packed(self):
        assert make_backend("packed") == TableBackend(packed=True)
        assert make_backend(
            "packed", samples=32, seed=2
        ) == TableBackend(samples=32, seed=2, packed=True)

    def test_samples_validated(self):
        with pytest.raises(AnalysisError, match="samples"):
            TableBackend(samples=0, packed=True)

    def test_exhaustive_cap_without_samples(self):
        # One cap check, one message, packed or not.
        wide = random_circuit(2, num_inputs=30, num_gates=20)
        for backend in (TableBackend(packed=True), TableBackend()):
            with pytest.raises(AnalysisError, match="--samples K"):
                backend.line_signatures(wide)

    def test_wide_circuit_with_samples(self):
        wide = random_circuit(3, num_inputs=30, num_gates=24)
        backend = TableBackend(samples=64, seed=1, packed=True)
        table = backend.build_stuck_at(wide)
        assert isinstance(table, PackedDetectionTable)
        assert table.universe.size == 64

    def test_hashable_cache_key(self):
        assert hash(TableBackend(samples=8, seed=1, packed=True)) == hash(
            TableBackend(samples=8, seed=1, packed=True)
        )
        assert TableBackend(samples=8, packed=True) != TableBackend(
            samples=9, packed=True
        )

    def test_exhaustive_packed_canonicalizes_seed(self):
        """Without samples the universe is exhaustive, so seed and
        replacement must not split the experiment-layer cache key."""
        packed = TableBackend(packed=True)
        assert TableBackend(seed=2005, packed=True) == packed
        assert TableBackend(replacement=True, packed=True) == packed
        assert TableBackend(seed=2005) == TableBackend()
        assert TableBackend(samples=8, seed=1, packed=True) != TableBackend(
            samples=8, packed=True
        )

    def test_repeated_single_fault_queries_reuse_scan(self, circuit):
        from repro.core.worst_case import nmin_for_untargeted_fault

        u = FaultUniverse(circuit, backend=TableBackend(packed=True))
        table = PackedDetectionTable.from_table(u.target_table)
        g_sig = u.untargeted_table.signatures[0]
        first = nmin_for_untargeted_fault(table, g_sig)
        scan = table._packed_nmin_scan  # built once, then cached
        assert nmin_for_untargeted_fault(table, g_sig) == first
        assert table._packed_nmin_scan is scan


class TestPickling:
    def test_nmin_scan_cache_stays_out_of_pickles(self):
        """The worst-case scan cached on a packed table is not pickled."""
        import pickle

        from repro.bench_suite.registry import get_circuit
        from repro.core.worst_case import WorstCaseAnalysis

        fu = FaultUniverse(
            get_circuit("ex2"), backend=TableBackend(packed=True)
        )
        target, untargeted = fu.target_table, fu.untargeted_table
        before = pickle.dumps(target)
        records = WorstCaseAnalysis(target, untargeted).records
        assert "_packed_nmin_scan" in target.__dict__
        assert pickle.dumps(target) == before
        restored = pickle.loads(before)
        assert WorstCaseAnalysis(restored, untargeted).records == records

    @pytest.mark.parametrize("packed", [False, True], ids=["plain", "packed"])
    def test_pickle_bytes_ignore_access_history(self, packed):
        """Derived big-ints, built fault elements and vector lists stay
        out of pickles: the bytes do not depend on which queries ran."""
        import pickle

        from repro.bench_suite.registry import get_circuit

        fu = FaultUniverse(
            get_circuit("lion"), backend=TableBackend(packed=packed)
        )
        table = fu.untargeted_table
        assert table.packed is not None  # kernel-built: words kept
        before = pickle.dumps(table)
        signatures = table.signatures
        faults = list(table.faults)
        vectors = table.vectors(0)
        assert pickle.dumps(table) == before
        restored = pickle.loads(before)
        assert restored == table
        assert restored.signatures == signatures
        assert list(restored.faults) == faults
        assert restored.vectors(0) == vectors
