"""Adaptive sampler: trajectories, stopping, incremental reuse."""

from __future__ import annotations

import pytest

from repro.adaptive import (
    AdaptiveSampler,
    StoppingRule,
    StratifiedVectorUniverse,
)
from repro.bench_suite.randlogic import random_circuit
from repro.errors import AnalysisError
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import TableBackend
from repro.parallel import PoolExecutor


@pytest.fixture(scope="module")
def circuit():
    return random_circuit(3, num_inputs=6, num_gates=14)


RULE = StoppingRule(
    target_halfwidth=0.2, initial_samples=8, max_samples=48, k_smallest=4
)


class TestStoppingRule:
    """Satellite: K=1, k=0, confidence=1.0 must raise, not explode."""

    def test_defaults_valid(self):
        StoppingRule()

    def test_k_smallest_zero_rejected(self):
        with pytest.raises(AnalysisError, match="k_smallest"):
            StoppingRule(k_smallest=0)

    def test_confidence_one_rejected(self):
        with pytest.raises(AnalysisError, match="confidence"):
            StoppingRule(confidence=1.0)
        with pytest.raises(AnalysisError, match="confidence"):
            StoppingRule(confidence=0.0)

    def test_target_halfwidth_bounds(self):
        with pytest.raises(AnalysisError, match="target_halfwidth"):
            StoppingRule(target_halfwidth=0.0)
        with pytest.raises(AnalysisError, match="target_halfwidth"):
            StoppingRule(target_halfwidth=1.5)

    def test_budget_ordering(self):
        with pytest.raises(AnalysisError, match="max_samples"):
            StoppingRule(initial_samples=64, max_samples=32)
        with pytest.raises(AnalysisError, match="initial_samples"):
            StoppingRule(initial_samples=0)
        with pytest.raises(AnalysisError, match="growth"):
            StoppingRule(growth=1)

    def test_k1_initial_draw_is_valid(self, circuit):
        # A one-vector first round is degenerate but legal: the wide
        # K=1 intervals simply force further growth.
        rule = StoppingRule(
            target_halfwidth=1.0, initial_samples=1, max_samples=2,
            k_smallest=1,
        )
        report = AdaptiveSampler(
            circuit, rule=rule, seed=0, use_cache=False,
        ).run()
        assert report.rounds[0].k_total == 1


class TestSamplerValidation:
    def test_unknown_scheme(self, circuit):
        with pytest.raises(AnalysisError, match="stratification scheme"):
            AdaptiveSampler(circuit, stratify="voltage")

    def test_bad_jobs(self, circuit):
        # The worker count is the pool executor's, checked where the
        # pool is made; the sampler takes no count of its own.
        with pytest.raises(TypeError):
            AdaptiveSampler(circuit, jobs=2)
        with pytest.raises(AnalysisError, match="jobs"):
            AdaptiveSampler(circuit, executor=PoolExecutor(jobs=0))


class TestTrajectory:
    def test_geometric_growth_and_reuse(self, circuit):
        report = AdaptiveSampler(
            circuit, rule=RULE, seed=1, use_cache=False,
        ).run()
        ks = [r.k_total for r in report.rounds]
        assert ks[0] == 8
        for prev, cur in zip(ks, ks[1:], strict=False):
            assert cur == min(prev * 2, 48, 64)
        # Incremental: total simulated vectors == final K, and the
        # round deltas sum to it exactly (nothing resimulated).
        assert report.total_vectors == ks[-1]
        assert sum(r.k_new for r in report.rounds) == ks[-1]
        assert len(report.trajectory_lines()) == len(report.rounds) + 1

    def test_universe_matches_tables(self, circuit):
        report = AdaptiveSampler(
            circuit, rule=RULE, seed=2, use_cache=False,
        ).run()
        assert report.target_table.universe == report.universe
        assert report.untargeted_table.universe == report.universe
        k = report.universe.size
        for sig in report.target_table.packed.to_bigints():
            assert sig >> k == 0

    def test_met_target_stops_before_budget(self, circuit):
        # Stratified importance sampling certifies the rare covered
        # faults well before the budget: the run stops mid-schedule.
        report = AdaptiveSampler(
            circuit, rule=RULE, seed=1, stratify="bridging",
            use_cache=False,
        ).run()
        assert report.met
        assert report.reason == "target met"
        assert report.total_vectors < RULE.max_samples

    def test_budget_exhaustion_reported(self, circuit):
        rule = StoppingRule(
            target_halfwidth=0.01, initial_samples=8, max_samples=32,
            k_smallest=4,
        )
        report = AdaptiveSampler(
            circuit, rule=rule, seed=1, use_cache=False,
        ).run()
        assert not report.met
        assert report.reason == "sample budget exhausted"
        assert report.total_vectors == 32


class TestExhaustiveDegeneration:
    """Full-budget runs canonicalize to the exact exhaustive result."""

    @pytest.mark.parametrize("stratify", [None, "bridging"])
    def test_full_budget_equals_exhaustive(self, circuit, stratify):
        rule = StoppingRule(
            target_halfwidth=0.0001, initial_samples=8, max_samples=64,
            k_smallest=2,
        )
        report = AdaptiveSampler(
            circuit, rule=rule, seed=9, stratify=stratify,
            use_cache=False,
        ).run()
        assert report.met
        assert report.reason == "exact (universe exhausted)"
        assert report.universe.exact
        exhaustive = FaultUniverse(circuit, backend=TableBackend())
        assert (
            report.target_table.packed.to_bigints()
            == exhaustive.target_table.packed.to_bigints()
        )
        # The report keeps the raw (undropped) bridging table; dropping
        # the undetectable rows recovers the paper's G exactly.
        raw = [s for s in report.untargeted_table.packed.to_bigints() if s]
        assert raw == exhaustive.untargeted_table.packed.to_bigints()


class TestRepresentations:
    def test_packed_table_type(self, circuit):
        from repro.faultsim.detection import DetectionTable
        from repro.logic.packed import PackedSignatureMatrix

        report = AdaptiveSampler(
            circuit, rule=RULE, seed=4, use_cache=False,
        ).run()
        for table in (report.target_table, report.untargeted_table):
            assert type(table) is DetectionTable
            assert isinstance(table.packed, PackedSignatureMatrix)
            assert "signatures" not in table.__dict__
            assert table.packed == table.packed


class TestStratifiedController:
    def test_stratified_universe_and_allocations(self, circuit):
        report = AdaptiveSampler(
            circuit, rule=RULE, seed=1, stratify="bridging",
            use_cache=False,
        ).run()
        assert report.stratified
        if not report.universe.exact:
            assert isinstance(report.universe, StratifiedVectorUniverse)
        for r in report.rounds:
            assert r.allocation is not None
            assert sum(r.allocation) == r.k_new
        # Draw counts per stratum never exceed the populations.
        plan = report.plan
        if not report.universe.exact:
            for drawn, stratum in zip(
                report.universe.draws_per_stratum, plan.strata, strict=True
            ):
                assert drawn <= stratum.population

    def test_stratified_beats_uniform_on_rare_focus(self, circuit):
        # The whole point of the strata: certifying the rare covered
        # faults to a relative precision needs no more vectors than
        # uniform growth — strictly fewer on any interesting circuit.
        rule = StoppingRule(
            target_halfwidth=0.25, initial_samples=8, max_samples=64,
            k_smallest=2,
        )
        strat = AdaptiveSampler(
            circuit, rule=rule, seed=3, stratify="bridging",
            use_cache=False,
        ).run()
        uniform = AdaptiveSampler(
            circuit, rule=rule, seed=3, use_cache=False,
        ).run()
        assert strat.total_vectors <= uniform.total_vectors

    def test_fallback_without_rare_sites(self):
        from repro.bench_suite.example import xor_tree

        report = AdaptiveSampler(
            xor_tree(),
            rule=StoppingRule(
                target_halfwidth=0.5, initial_samples=4, max_samples=8,
                k_smallest=1,
            ),
            seed=0,
            stratify="bridging",
            use_cache=False,
        ).run()
        # Plan degenerates to bulk-only: the run is plain uniform growth.
        assert report.plan is not None
        assert report.plan.num_strata == 1
        assert not report.stratified
        for r in report.rounds:
            assert r.allocation is None


class TestRoundSpans:
    def test_splice_and_evaluate_nest_under_each_round(self, circuit):
        from repro import obs
        from repro.obs.tracer import ListTraceWriter, Tracer

        writer = ListTraceWriter()
        previous = obs.activate(Tracer(writer, trace_id="T"))
        try:
            report = AdaptiveSampler(
                circuit, rule=RULE, seed=1, stratify="bridging",
                use_cache=False,
            ).run()
        finally:
            obs.reset(previous)
        rows = len(report.target_table) + len(report.untargeted_table)
        rounds = {
            r["span"]: r for r in writer.records
            if r["name"] == "adaptive_round"
        }
        assert len(rounds) == len(report.rounds)
        for name in ("adaptive_splice", "adaptive_evaluate"):
            children = [r for r in writer.records if r["name"] == name]
            assert [
                rounds[c["parent"]]["attrs"]["index"] for c in children
            ] == list(range(len(report.rounds)))
            assert [c["attrs"] for c in children] == [
                {"rows": rows, "k_total": r.k_total} for r in report.rounds
            ]
