"""AdaptiveBackend behind the DetectionBackend protocol."""

from __future__ import annotations

import pytest

from repro.adaptive import AdaptiveBackend
from repro.bench_suite.randlogic import random_circuit
from repro.core.worst_case import WorstCaseAnalysis
from repro.errors import AnalysisError
from repro.faults.stuck_at import collapsed_stuck_at_faults
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import make_backend
from repro.logic.packed import PackedSignatureMatrix
from repro.parallel import ParallelBackend, PoolExecutor, maybe_parallel
from repro.simulation import ppsfp
from repro.simulation.twoval import simulate_batch


@pytest.fixture(scope="module")
def circuit():
    return random_circuit(5, num_inputs=6, num_gates=12)


@pytest.fixture(scope="module")
def backend():
    return AdaptiveBackend(
        target_halfwidth=0.25,
        initial_samples=8,
        max_samples=48,
        k_smallest=2,
        seed=11,
        use_cache=False,
    )


class TestProtocol:
    def test_fault_universe_integration(self, circuit, backend):
        universe = FaultUniverse(circuit, backend=backend)
        target = universe.target_table
        untargeted = universe.untargeted_table
        assert target.universe == untargeted.universe
        assert all(sig for sig in untargeted.packed.to_bigints())  # dropped
        analysis = WorstCaseAnalysis(target, untargeted)
        assert len(analysis) == len(untargeted)

    def test_controller_runs_once_per_circuit(self, circuit, backend):
        report_a = backend.report_for(circuit)
        report_b = backend.report_for(circuit)
        assert report_a is report_b
        assert backend.universe_for(circuit) is report_a.universe

    def test_drop_undetectable_filters(self, circuit, backend):
        raw = backend.build_bridging(circuit, drop_undetectable=False)
        dropped = backend.build_bridging(circuit, drop_undetectable=True)
        assert len(dropped) == sum(1 for s in raw.packed.to_bigints() if s)
        assert all(s for s in dropped.packed.to_bigints())

    def test_standard_fault_list_accepted(self, circuit, backend):
        faults = collapsed_stuck_at_faults(circuit)
        table = backend.build_stuck_at(circuit, faults=faults)
        assert table.faults == faults

    def test_foreign_fault_list_rejected(self, circuit, backend):
        faults = collapsed_stuck_at_faults(circuit)[:3]
        with pytest.raises(AnalysisError, match="coupled run"):
            backend.build_stuck_at(circuit, faults=faults)

    def test_line_signatures_over_final_universe(self, circuit, backend):
        # The kernel's base words over the run's final universe are the
        # batch simulator's line signatures over the same vectors.
        universe = backend.universe_for(circuit)
        base = ppsfp.packed_line_words(circuit, universe)
        row_of, _ = ppsfp.line_rows(circuit)
        rows = PackedSignatureMatrix(base[row_of], universe.size)
        assert rows.to_bigints() == simulate_batch(circuit, universe.vectors)


class TestConfiguration:
    def test_make_backend_adaptive(self):
        backend = make_backend(
            "adaptive",
            seed=7,
            target_halfwidth=0.1,
            max_samples=256,
            initial_samples=16,
            stratify="bridging",
        )
        assert isinstance(backend, AdaptiveBackend)
        assert backend.rule.target_halfwidth == 0.1
        assert backend.rule.max_samples == 256
        assert backend.rule.initial_samples == 16
        assert backend.stratify == "bridging"

    def test_make_backend_stratify_none_normalizes(self):
        backend = make_backend("adaptive", stratify="none")
        assert backend.stratify is None

    def test_make_backend_rejects_samples(self):
        with pytest.raises(AnalysisError, match="--max-samples"):
            make_backend("adaptive", samples=64)

    def test_make_backend_rejects_replacement(self):
        with pytest.raises(AnalysisError, match="without replacement"):
            make_backend("adaptive", replacement=True)

    def test_adaptive_flags_rejected_elsewhere(self):
        with pytest.raises(AnalysisError, match="--target-halfwidth"):
            make_backend("exhaustive", target_halfwidth=0.05)
        with pytest.raises(AnalysisError, match="--stratify"):
            make_backend("sampled", samples=8, stratify="bridging")

    def test_jobs_injected_not_wrapped(self):
        backend = make_backend("adaptive", executor=PoolExecutor(jobs=2))
        assert isinstance(backend, AdaptiveBackend)
        assert backend.executor == PoolExecutor(jobs=2)
        again = maybe_parallel(AdaptiveBackend(), PoolExecutor(jobs=4))
        assert isinstance(again, AdaptiveBackend)
        assert again.executor == PoolExecutor(jobs=4)

    def test_parallel_wrap_rejected(self):
        with pytest.raises(AnalysisError, match="internally"):
            ParallelBackend(base=AdaptiveBackend(), executor=PoolExecutor())

    def test_jobs_excluded_from_identity(self):
        a = AdaptiveBackend(seed=3)
        b = AdaptiveBackend(seed=3, executor=PoolExecutor(jobs=4))
        assert a == b
        assert hash(a) == hash(b)
        assert AdaptiveBackend(seed=3) != AdaptiveBackend(seed=4)

    def test_rule_validation_propagates(self):
        with pytest.raises(AnalysisError, match="k_smallest"):
            AdaptiveBackend(k_smallest=0)
        with pytest.raises(AnalysisError, match="confidence"):
            AdaptiveBackend(confidence=1.0)

    def test_backend_from_env(self, monkeypatch):
        from repro.experiments.common import backend_from_env

        monkeypatch.setenv("REPRO_BACKEND", "adaptive")
        monkeypatch.setenv("REPRO_TARGET_HALFWIDTH", "0.2")
        monkeypatch.setenv("REPRO_MAX_SAMPLES", "128")
        monkeypatch.setenv("REPRO_STRATIFY", "bridging")
        monkeypatch.setenv("REPRO_SEED", "5")
        backend = backend_from_env()
        assert isinstance(backend, AdaptiveBackend)
        assert backend.rule.target_halfwidth == 0.2
        assert backend.rule.max_samples == 128
        assert backend.stratify == "bridging"
        assert backend.seed == 5
