"""Detection tables store packed words: every build path, one representation.

Each table is faults + a :class:`PackedSignatureMatrix` + a universe,
and nothing else.  The queries must agree with their big-int
definitions, and every build path must leave words (and no derived
list) behind.
"""

from __future__ import annotations

import pickle

import pytest

from repro.bench_suite.randlogic import random_circuit
from repro.bench_suite.registry import get_circuit
from repro.errors import AnalysisError, FaultError
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import (
    SerialBackend,
    TableBackend,
    make_backend,
)
from repro.faultsim.detection import DetectionTable
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
    """The same rows, packed from the big-int signatures."""
    return tuple(
        DetectionTable.from_signatures(
            table.circuit, table.faults, table.packed.to_bigints(),
            table.universe,
        )
        for table in plain_tables
    )


class TestQuerySurface:
    """Every query agrees between kernel words and rows packed from
    big-ints, and with its big-int definition."""

    def test_identity_fields(self, plain_tables, packed_tables):
        for plain, packed in zip(plain_tables, packed_tables, strict=True):
            assert packed == plain
            assert packed.faults == plain.faults
            assert packed.packed == plain.packed
            assert packed.universe == plain.universe
            assert len(packed) == len(plain)

    def test_counts(self, plain_tables, packed_tables):
        for plain, packed in zip(plain_tables, packed_tables, strict=True):
            expected = [sig.bit_count() for sig in plain.packed.to_bigints()]
            assert packed.counts() == plain.counts() == expected
            for i in range(len(plain)):
                assert packed.count(i) == plain.count(i) == expected[i]

    def test_detectability(self, plain_tables, packed_tables):
        for plain, packed in zip(plain_tables, packed_tables, strict=True):
            rows = plain.packed.to_bigints()
            expected = [i for i, sig in enumerate(rows) if sig]
            assert packed.num_detectable() == plain.num_detectable()
            assert packed.detectable_indices() == expected
            assert plain.detectable_indices() == expected

    def test_test_set_queries(self, plain_tables, packed_tables):
        test_signature = 0b1011001
        for plain, packed in zip(plain_tables, packed_tables, strict=True):
            assert packed.detected_by(test_signature) == [
                i for i, sig in enumerate(plain.packed.to_bigints())
                if sig & test_signature
            ]
            assert packed.detection_counts(test_signature) == [
                (sig & test_signature).bit_count()
                for sig in plain.packed.to_bigints()
            ]
            assert packed.coverage(test_signature) == plain.coverage(
                test_signature
            )

    def test_vectors_and_estimates(self, plain_tables, packed_tables):
        plain, packed = plain_tables[0], packed_tables[0]
        for i in (0, 1, len(plain) - 1):
            assert packed.vectors(i) == plain.vectors(i)
            assert packed.detecting_vectors(i) == plain.detecting_vectors(i)
        assert packed.estimated_counts() == plain.estimated_counts()

    def test_packed_matrix_consistency(self, plain_tables, packed_tables):
        for plain, packed in zip(plain_tables, packed_tables, strict=True):
            assert packed.packed.to_bigints() == [
                plain.packed.row_bigint(i) for i in range(len(plain))
            ]


class TestConstruction:
    def test_for_stuck_at_builds_packed(self, circuit):
        table = DetectionTable.for_stuck_at(circuit)
        assert isinstance(table.packed, PackedSignatureMatrix)
        assert set(vars(table)) == {"circuit", "faults", "universe", "packed"}

    def test_mismatched_packed_rejected(self, circuit, plain_tables):
        plain = plain_tables[0]
        wrong = PackedSignatureMatrix.from_bigints(
            plain.packed.to_bigints()[:-1], plain.universe.size
        )
        with pytest.raises(FaultError, match="length mismatch"):
            DetectionTable(circuit, plain.faults, wrong, plain.universe)
        narrow = PackedSignatureMatrix.from_bigints([0] * len(plain), 8)
        with pytest.raises(FaultError, match="bit size"):
            DetectionTable(circuit, plain.faults, narrow, plain.universe)

    def test_from_signatures_drops_undetectable_rows(self, plain_tables):
        plain = plain_tables[1]
        signatures = [0, *plain.packed.to_bigints(), 0]
        faults = plain.faults.take([0, *range(len(plain)), 0])
        table = DetectionTable.from_signatures(
            plain.circuit, faults, signatures, plain.universe,
            drop_undetectable=True,
        )
        assert table.packed == plain.packed
        assert table.faults == list(plain.faults)


def _build_paths():
    """``(label, build)``: every way ``src/`` builds a table, as a
    function of the circuit."""

    def kernel(circuit):
        return FaultUniverse(circuit)

    def parallel(circuit):
        from repro.parallel import InlineExecutor

        return FaultUniverse(
            circuit, backend=make_backend(
                "exhaustive", executor=InlineExecutor()
            ),
        )

    def adaptive(circuit):
        return FaultUniverse(
            circuit, backend=make_backend("adaptive", max_samples=1 << 16)
        )

    def serial(circuit):
        return FaultUniverse(circuit, backend=SerialBackend())

    return [
        ("kernel", kernel), ("parallel", parallel),
        ("adaptive", adaptive), ("serial", serial),
    ]


class TestOneRepresentation:
    """Every build path leaves words, no derived big-ints, and the
    kernel's table."""

    @pytest.mark.parametrize(
        "build", [b for _, b in _build_paths()],
        ids=[label for label, _ in _build_paths()],
    )
    def test_build_path_keeps_words_only(
        self, build, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        circuit = random_circuit(5, num_inputs=5, num_gates=12)
        reference = FaultUniverse(circuit)
        universe = build(circuit)
        for mine, theirs in (
            (universe.target_table, reference.target_table),
            (universe.untargeted_table, reference.untargeted_table),
        ):
            assert isinstance(mine.packed, PackedSignatureMatrix)
            assert not hasattr(mine, "signatures")
            assert mine.packed == theirs.packed
            assert list(mine.faults) == list(theirs.faults)
            assert mine.universe == theirs.universe

    def test_cell_aware_table_keeps_words_only(self):
        from repro.faults.cell_aware import gate_exhaustive_table

        circuit = get_circuit("paper_example")
        table = gate_exhaustive_table(circuit)
        assert isinstance(table.packed, PackedSignatureMatrix)
        assert not hasattr(table, "signatures")
        rows = table.packed.to_bigints()
        assert all(rows)  # undetectable rows dropped
        kept = gate_exhaustive_table(circuit, drop_undetectable=False)
        assert [s for s in kept.packed.to_bigints() if s] == rows


@pytest.fixture()
def tcp_broker(tmp_path):
    """A live broker with one drain loop; yields the broker address."""
    import threading

    from repro.parallel.netqueue import BackgroundBroker, TcpWorker

    with BackgroundBroker() as broker:
        worker = TcpWorker(
            broker=broker.address, worker_id="form",
            cache_dir=str(tmp_path / "worker"), use_cache=False,
        )
        thread = threading.Thread(target=worker.serve, daemon=True)
        thread.start()
        yield broker.address
        worker.stop()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestOneFaultForm:
    """Every table's faults are its model's fault array, and a sharded
    build makes no fault object."""

    BUILDERS = ("kernel", "serial", "inline", "pool", "tcp", "adaptive")

    @staticmethod
    def _backend(label, request):
        from repro.parallel import (
            InlineExecutor,
            ParallelBackend,
            PoolExecutor,
        )
        from repro.parallel.netqueue import TcpExecutor

        if label == "tcp":
            return ParallelBackend(
                base=TableBackend(), use_cache=False,
                executor=TcpExecutor(
                    broker=request.getfixturevalue("tcp_broker"),
                    wait_timeout=60.0,
                ),
            )
        return {
            "kernel": TableBackend,
            "serial": SerialBackend,
            "inline": lambda: make_backend(
                "exhaustive", executor=InlineExecutor()
            ),
            "pool": lambda: make_backend(
                "exhaustive", executor=PoolExecutor(jobs=2)
            ),
            "adaptive": lambda: make_backend(
                "adaptive", max_samples=1 << 16
            ),
        }[label]()

    @pytest.mark.parametrize("label", BUILDERS)
    def test_every_builder_makes_fault_arrays(
        self, label, request, monkeypatch, tmp_path
    ):
        from repro.faults.bridging import BridgingFaults
        from repro.faults.stuck_at import StuckAtFaults

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        circuit = random_circuit(5, num_inputs=5, num_gates=12)
        reference = FaultUniverse(circuit)
        universe = FaultUniverse(
            circuit, backend=self._backend(label, request)
        )
        target, untargeted = universe.target_table, universe.untargeted_table
        assert type(target.faults) is StuckAtFaults
        assert type(untargeted.faults) is BridgingFaults
        assert target.faults == reference.target_table.faults
        assert untargeted.faults == reference.untargeted_table.faults

    def test_gate_exhaustive_table_makes_fault_arrays(self):
        from repro.faults.cell_aware import (
            GateExhaustiveFaults,
            gate_exhaustive_table,
        )

        circuit = get_circuit("paper_example")
        for drop in (True, False):
            table = gate_exhaustive_table(circuit, drop_undetectable=drop)
            assert type(table.faults) is GateExhaustiveFaults

    def test_sharded_build_makes_no_fault_object(
        self, monkeypatch, tmp_path
    ):
        """Cold (every shard a miss) and warm (every shard a hit)."""
        from repro.faults.bridging import BridgingFault
        from repro.faults.stuck_at import StuckAtFault
        from repro.parallel import (
            InlineExecutor,
            ParallelBackend,
            cache_stats,
            reset_cache_stats,
        )

        built = []
        for model in (StuckAtFault, BridgingFault):
            monkeypatch.setattr(
                model, "__post_init__", lambda fault: built.append(fault)
            )
        backend = ParallelBackend(
            base=TableBackend(), executor=InlineExecutor(),
            cache_dir=str(tmp_path),
        )
        circuit = get_circuit("lion")
        reset_cache_stats()
        for _ in range(2):
            universe = FaultUniverse(circuit, backend=backend)
            assert len(universe.target_table) and len(
                universe.untargeted_table
            )
        stats = cache_stats()
        assert stats["hits"] == stats["misses"] == stats["stores"] > 0
        assert built == []
        universe.untargeted_table.faults[0]  # the counter does count
        assert len(built) == 1


class TestPackedBackend:
    """``packed`` is no backend name: every table is packed."""

    def test_exhaustive_equivalence(self, circuit):
        exh = FaultUniverse(circuit, backend=TableBackend())
        serial = FaultUniverse(circuit, backend=SerialBackend())
        assert exh.target_table.packed == serial.target_table.packed
        assert exh.untargeted_table.faults == serial.untargeted_table.faults
        assert exh.target_table.universe == serial.target_table.universe

    def test_sampled_equivalence(self, circuit):
        smp = FaultUniverse(circuit, backend=TableBackend(samples=24, seed=3))
        fixed = FaultUniverse(
            circuit,
            backend=TableBackend(
                vectors=tuple(smp.target_table.universe.vectors)
            ),
        )
        assert fixed.target_table.packed == smp.target_table.packed
        assert fixed.target_table.universe == smp.target_table.universe

    def test_make_backend_packed(self, monkeypatch):
        from repro.experiments.common import backend_from_env

        with pytest.raises(AnalysisError, match="unknown backend 'packed'"):
            make_backend("packed")
        with pytest.raises(AnalysisError, match="unknown backend 'packed'"):
            make_backend("packed", samples=32, seed=2)
        monkeypatch.setenv("REPRO_BACKEND", "packed")
        with pytest.raises(AnalysisError, match="unknown backend 'packed'"):
            backend_from_env()

    def test_samples_validated(self):
        with pytest.raises(AnalysisError, match="samples"):
            TableBackend(samples=0)

    def test_exhaustive_cap_without_samples(self):
        wide = random_circuit(2, num_inputs=30, num_gates=20)
        with pytest.raises(AnalysisError, match="--samples K"):
            TableBackend().universe_for(wide)

    def test_wide_circuit_with_samples(self):
        wide = random_circuit(3, num_inputs=30, num_gates=24)
        backend = TableBackend(samples=64, seed=1)
        table = backend.build_stuck_at(wide)
        assert isinstance(table.packed, PackedSignatureMatrix)
        assert table.universe.size == 64

    def test_hashable_cache_key(self):
        assert hash(TableBackend(samples=8, seed=1)) == hash(
            TableBackend(samples=8, seed=1)
        )
        assert TableBackend(samples=8) != TableBackend(samples=9)

    def test_exhaustive_packed_canonicalizes_seed(self):
        """Without samples the universe is exhaustive, so seed and
        replacement must not split the experiment-layer cache key."""
        assert TableBackend(seed=2005) == TableBackend()
        assert TableBackend(replacement=True) == TableBackend()
        assert TableBackend(samples=8, seed=1) != TableBackend(samples=8)


class TestPickling:
    def test_nmin_scan_cache_stays_out_of_pickles(self):
        """The worst-case scan leaves nothing on the tables it reads."""
        from repro.core.worst_case import WorstCaseAnalysis

        fu = FaultUniverse(get_circuit("ex2"))
        target, untargeted = fu.target_table, fu.untargeted_table
        before = pickle.dumps(target)
        records = WorstCaseAnalysis(target, untargeted).records
        assert pickle.dumps(target) == before
        restored = pickle.loads(before)
        assert WorstCaseAnalysis(restored, untargeted).records == records

    @pytest.mark.parametrize("packed", [False, True], ids=["plain", "packed"])
    def test_pickle_bytes_ignore_access_history(self, packed):
        """Built fault elements, vector lists and estimates stay out of
        pickles: the bytes do not depend on which queries ran.
        ``packed`` packs the rows from big-ints (as the sharded merge
        does) instead of keeping the kernel's words."""
        fu = FaultUniverse(get_circuit("lion"))
        table = fu.untargeted_table
        if packed:
            table = DetectionTable.from_signatures(
                table.circuit, table.faults, table.packed.to_bigints(),
                table.universe,
            )
        before = pickle.dumps(table)
        signatures = table.packed.to_bigints()
        faults = list(table.faults)
        vectors = table.vectors(0)
        estimates = table.estimated_counts()
        assert pickle.dumps(table) == before
        restored = pickle.loads(before)
        assert restored == table
        assert restored.packed.to_bigints() == signatures
        assert list(restored.faults) == faults
        assert restored.vectors(0) == vectors
        assert restored.estimated_counts() == estimates

    def test_merged_table_pickles_words_not_bigints(self, tmp_path):
        """A sharded merge packs its rows: its pickle carries the
        table's four fields, and reading the rows adds nothing."""
        from repro.parallel import InlineExecutor, ParallelBackend

        backend = ParallelBackend(
            base=TableBackend(),
            executor=InlineExecutor(),
            cache_dir=str(tmp_path),
        )
        merged = backend.build_bridging(get_circuit("ex2"))
        before = pickle.dumps(merged)
        assert merged.packed.to_bigints()
        assert merged.vectors(0)
        assert set(vars(merged)) == {"circuit", "faults", "universe", "packed"}
        assert pickle.dumps(merged) == before
        restored = pickle.loads(before)
        assert restored.packed == merged.packed
        assert set(vars(restored)) == set(vars(merged))
