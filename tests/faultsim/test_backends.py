"""Backend and sampler statistics: universes, draws, estimators, CIs."""

from __future__ import annotations

import pytest

from repro.bench_suite.randlogic import random_circuit
from repro.errors import AnalysisError
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import (
    BACKEND_NAMES,
    DetectionBackend,
    SerialBackend,
    TableBackend,
    make_backend,
)
from repro.faultsim.sampling import (
    VectorUniverse,
    count_interval,
    draw_universe,
    estimate_count,
    estimate_nmin,
)


class TestVectorUniverse:
    def test_exhaustive_identity_mapping(self):
        u = VectorUniverse(3)
        assert u.exhaustive and u.exact
        assert u.size == u.space == 8
        assert u.scale == 1.0
        assert [u.vector_at(b) for b in range(8)] == list(range(8))
        assert u.bit_of(5) == 5

    def test_sampled_mapping(self):
        u = VectorUniverse(4, vectors=(1, 7, 12))
        assert not u.exact
        assert u.size == 3 and u.space == 16
        assert u.vector_at(1) == 7
        assert u.bit_of(12) == 2
        assert u.bit_of(3) is None  # not sampled
        assert u.signature_vectors(0b101) == [1, 12]

    def test_mask_matches_size(self):
        assert VectorUniverse(2).mask == 0b1111
        assert VectorUniverse(4, vectors=(0, 9)).mask == 0b11

    def test_rejects_out_of_range_vectors(self):
        with pytest.raises(AnalysisError, match="out of range"):
            VectorUniverse(2, vectors=(0, 4))

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(AnalysisError, match="sorted"):
            VectorUniverse(3, vectors=(5, 2))
        with pytest.raises(AnalysisError, match="unique"):
            VectorUniverse(3, vectors=(2, 2))
        # Hand-built replacement universes may still carry duplicates
        # (back-compat for explicitly constructed universes), but
        # draw_universe itself never produces them any more.
        assert VectorUniverse(3, vectors=(2, 2), replacement=True).size == 2

    def test_vector_at_out_of_range(self):
        with pytest.raises(AnalysisError, match="out of range"):
            VectorUniverse(4, vectors=(1, 2)).vector_at(2)


class TestDrawUniverse:
    def test_seeded_reproducibility(self):
        a = draw_universe(8, 40, seed=5)
        b = draw_universe(8, 40, seed=5)
        c = draw_universe(8, 40, seed=6)
        assert a == b
        assert a != c

    def test_without_replacement_unique_sorted(self):
        u = draw_universe(10, 200, seed=1)
        assert len(set(u.vectors)) == 200
        assert list(u.vectors) == sorted(u.vectors)
        assert all(0 <= v < 1024 for v in u.vectors)

    def test_full_draw_canonicalizes_to_exhaustive(self):
        u = draw_universe(5, 32, seed=3)
        assert u.exhaustive
        assert u == VectorUniverse(5)

    def test_oversized_draw_rejected(self):
        with pytest.raises(AnalysisError, match="cannot draw"):
            draw_universe(4, 17, seed=0)

    def test_replacement_draws_are_distinct(self):
        # Regression (adaptive-sampling PR): replacement draws used to
        # let duplicate vectors occupy distinct signature bits, silently
        # double-counting them in every popcount estimator.  The draw is
        # now topped up to K *unique* vectors.
        u = draw_universe(3, 6, seed=3, replacement=True)
        assert u.size == 6 and u.replacement
        assert len(set(u.vectors)) == 6

    def test_replacement_oversized_rejected(self):
        # ...which also means a replacement draw cannot exceed |U|.
        with pytest.raises(AnalysisError, match="cannot draw"):
            draw_universe(2, 10, seed=0, replacement=True)

    def test_draw_beyond_exhaustive_cap(self):
        # The whole point of the sampler: p > 24 draws work fine.
        u = draw_universe(32, 64, seed=2)
        assert u.size == 64
        assert all(0 <= v < (1 << 32) for v in u.vectors)

    def test_invalid_sizes(self):
        with pytest.raises(AnalysisError, match="samples"):
            draw_universe(4, 0)


class TestEstimators:
    def test_exact_universe_is_identity(self):
        u = VectorUniverse(4)
        assert estimate_count(u, 9) == 9.0
        ci = count_interval(u, 9)
        assert ci.low == ci.estimate == ci.high == 9.0

    def test_scaling(self):
        u = VectorUniverse(4, vectors=(0, 1, 2, 3))  # 4 of 16: scale 4
        assert estimate_count(u, 2) == 8.0
        assert estimate_nmin(u, 3) == 4 * 2 + 1
        assert estimate_nmin(u, 1) == 1.0
        assert estimate_nmin(u, None) is None
        assert estimate_nmin(VectorUniverse(4), 3) == 3

    def test_interval_brackets_estimate(self):
        u = draw_universe(10, 100, seed=4)
        ci = count_interval(u, 37, confidence=0.9)
        assert 0.0 <= ci.low <= ci.estimate <= ci.high <= u.space
        assert ci.half_width > 0
        wider = count_interval(u, 37, confidence=0.99)
        assert wider.half_width > ci.half_width

    def test_interval_input_validation(self):
        u = draw_universe(6, 10, seed=0)
        with pytest.raises(AnalysisError, match="out of range"):
            estimate_count(u, 11)
        with pytest.raises(AnalysisError, match="confidence"):
            count_interval(u, 5, confidence=1.5)

    def test_coverage_on_known_count(self):
        """~90% CIs cover the exact N(f) at least ~nominally often.

        The finite-population correction makes the intervals
        conservative, so the observed coverage (calibrated: 40/40 on
        these seeds) sits above the nominal rate.
        """
        circuit = random_circuit(11, num_inputs=6, num_gates=14)
        exact_table = FaultUniverse(circuit).target_table
        # A balanced fault (N(f) near |U|/2) stresses the interval most.
        counts = exact_table.counts()
        fault = max(range(len(counts)), key=lambda i: min(counts[i], 64 - counts[i]))
        hits = 0
        trials = 40
        for seed in range(trials):
            table = FaultUniverse(
                circuit, backend=TableBackend(samples=32, seed=seed)
            ).target_table
            ci = table.count_estimate(fault, confidence=0.90)
            assert ci.half_width > 0  # genuinely an interval
            if ci.covers(counts[fault]):
                hits += 1
        assert hits >= int(0.80 * trials)


class TestBackendObjects:
    def test_protocol_conformance(self):
        for backend in (
            TableBackend(),
            TableBackend(samples=8),
            SerialBackend(),
        ):
            assert isinstance(backend, DetectionBackend)

    def test_make_backend_names(self):
        assert make_backend("exhaustive") == TableBackend()
        assert make_backend("serial") == SerialBackend()
        assert make_backend("sampled", samples=16, seed=3) == TableBackend(
            samples=16, seed=3
        )
        assert set(BACKEND_NAMES) == {
            "exhaustive", "sampled", "serial", "adaptive",
        }

    def test_make_backend_errors(self):
        with pytest.raises(AnalysisError, match="unknown backend"):
            make_backend("turbo")
        with pytest.raises(AnalysisError, match="requires --samples"):
            make_backend("sampled")
        with pytest.raises(AnalysisError, match="samples"):
            TableBackend(samples=0)

    @pytest.mark.parametrize(
        ("name", "options", "message"),
        [
            ("exhaustive", {"samples": 100}, "--samples only applies"),
            ("serial", {"samples": 100, "replacement": True},
             "--samples only applies"),
            ("serial", {"replacement": True}, "--replacement only applies"),
            # The retired numpy-packed engine: every table is packed.
            ("packed", {"replacement": True}, "unknown backend"),
        ],
    )
    def test_make_backend_rejects_ignored_options(
        self, name, options, message
    ):
        with pytest.raises(AnalysisError, match=message):
            make_backend(name, **options)

    def test_name_is_not_a_field(self):
        from dataclasses import fields

        for backend in (TableBackend(), SerialBackend()):
            assert "name" not in {f.name for f in fields(backend)}
            assert "name=" not in repr(backend)
        assert [f.name for f in fields(TableBackend)] == [
            "samples", "seed", "replacement", "vectors",
        ]
        assert TableBackend(vectors=(0, 1)).name == "fixed"
        assert TableBackend(samples=4).name == "sampled"
        assert TableBackend().name == "exhaustive"

    def test_vectors_validated(self):
        with pytest.raises(AnalysisError, match="at least 1 vector"):
            TableBackend(vectors=())
        with pytest.raises(AnalysisError, match="not both"):
            TableBackend(samples=4, vectors=(0, 1))
        circuit = random_circuit(5, num_inputs=3, num_gates=6)
        with pytest.raises(AnalysisError, match="sorted"):
            TableBackend(vectors=(3, 1)).universe_for(circuit)

    def test_backends_are_hashable_cache_keys(self):
        assert hash(TableBackend(samples=8, seed=1)) == hash(
            TableBackend(samples=8, seed=1)
        )
        assert TableBackend(samples=8, seed=1) != TableBackend(
            samples=8, seed=2
        )

    def test_serial_backend_input_cap(self):
        circuit = random_circuit(1, num_inputs=18, num_gates=20)
        with pytest.raises(AnalysisError, match="capped"):
            SerialBackend(max_inputs=16).build_stuck_at(circuit)

    def test_sampled_reproducible_tables(self):
        circuit = random_circuit(3, num_inputs=6, num_gates=12)
        t1 = TableBackend(samples=16, seed=9).build_stuck_at(circuit)
        t2 = TableBackend(samples=16, seed=9).build_stuck_at(circuit)
        t3 = TableBackend(samples=16, seed=10).build_stuck_at(circuit)
        assert t1.packed == t2.packed
        assert t1.universe == t2.universe
        assert t1.universe != t3.universe

    def test_fault_universe_shares_base_signatures(self):
        circuit = random_circuit(4, num_inputs=5, num_gates=10)
        u = FaultUniverse(circuit, backend=TableBackend(samples=8, seed=1))
        assert u.target_table.universe == u.untargeted_table.universe
        assert u.backend.name == "sampled"
