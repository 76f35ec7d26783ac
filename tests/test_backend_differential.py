"""Differential cross-validation of the detection-table backends.

The tentpole guarantee of the multi-backend architecture: the three
engines agree wherever their domains overlap.

* exhaustive vs serial — two engines sharing no signature machinery
  must produce *identical* detection tables;
* full-sample sampled-U (``K = 2**p``, without replacement) — the
  Monte-Carlo engine degenerates to the exact exhaustive result, bit for
  bit (its universe canonicalizes to the exhaustive mapping);
* sampled-U with ``K < 2**p`` — popcount estimates land near the exact
  ``N(f)`` / ``nmin`` values, averaged over seeds;
* sharded multiprocessing (``ParallelBackend(base,
  executor=PoolExecutor(jobs=2))``) over any base engine — signatures,
  counts, ``nmin`` records, and ``guaranteed_n`` are *bit-identical*
  to the single-process build, on random and suite
  circuits alike (``REPRO_DIFF_SUITE=full`` sweeps every suite
  circuit, as the CI workflow does);
* the adaptive controller — same seed implies a bit-identical
  trajectory (round sizes, allocations, universes, tables) in-process
  and on a pool of two, uniform and stratified alike; its spliced
  signatures equal a one-shot build over its final vectors; and a
  budget covering ``2**p`` canonicalizes to the exact exhaustive
  result, like the full-sample sampled draw does.

The numpy-packed engine's differential suite lives in
``tests/test_packed_differential.py``.
"""

from __future__ import annotations

import os
import statistics

import pytest

from repro.bench_suite.randlogic import random_circuit
from repro.bench_suite.registry import suite_table_groups
from repro.core.average_case import AverageCaseAnalysis
from repro.core.escape import EscapeAnalysis
from repro.core.procedure1 import build_random_ndetection_sets
from repro.core.worst_case import WorstCaseAnalysis
from repro.errors import AnalysisError
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import (
    SerialBackend,
    TableBackend,
)
from repro.faultsim.detection import DetectionTable
from repro.parallel import ParallelBackend, PoolExecutor

#: Representative tier-1 subset; REPRO_DIFF_SUITE=full sweeps them all.
_SUITE_SUBSET = ("lion", "train4", "mc", "s8", "beecount")


def _suite_circuits() -> list[str]:
    if os.environ.get("REPRO_DIFF_SUITE") == "full":
        return list(suite_table_groups())
    return list(_SUITE_SUBSET)


def _tables(circuit, backend):
    u = FaultUniverse(circuit, backend=backend)
    return u.target_table, u.untargeted_table


def _assert_identical(a, b):
    assert a.faults == b.faults
    assert a.packed == b.packed
    assert a.universe == b.universe


class TestExactEnginesAgree:
    """Exhaustive, serial, and full-sample sampled-U are the same table."""

    @pytest.mark.parametrize(
        "seed,p,gates",
        [(1, 4, 10), (2, 5, 12), (3, 5, 14), (4, 6, 14), (5, 6, 12)],
    )
    def test_three_way_differential(self, seed, p, gates):
        circuit = random_circuit(seed, num_inputs=p, num_gates=gates)
        exh_f, exh_g = _tables(circuit, TableBackend())
        ser_f, ser_g = _tables(circuit, SerialBackend())
        ful_f, ful_g = _tables(
            circuit, TableBackend(samples=1 << p, seed=seed + 100)
        )
        _assert_identical(exh_f, ser_f)
        _assert_identical(exh_g, ser_g)
        _assert_identical(exh_f, ful_f)
        _assert_identical(exh_g, ful_g)

    @pytest.mark.parametrize("seed,p,gates", [(6, 8, 16), (7, 10, 18)])
    def test_full_sample_degenerates_to_exhaustive(self, seed, p, gates):
        # Larger p: the serial engine is too slow, but the full-coverage
        # sampled draw must still match the exhaustive engine exactly.
        circuit = random_circuit(seed, num_inputs=p, num_gates=gates)
        exh_f, exh_g = _tables(circuit, TableBackend())
        ful_f, ful_g = _tables(
            circuit, TableBackend(samples=1 << p, seed=seed)
        )
        assert ful_f.universe.exhaustive  # canonicalized full draw
        _assert_identical(exh_f, ful_f)
        _assert_identical(exh_g, ful_g)

    def test_full_sample_worst_case_matches(self):
        circuit = random_circuit(8, num_inputs=6, num_gates=14)
        exh_f, exh_g = _tables(circuit, TableBackend())
        ful_f, ful_g = _tables(circuit, TableBackend(samples=64, seed=9))
        exact = WorstCaseAnalysis(exh_f, exh_g)
        full = WorstCaseAnalysis(ful_f, ful_g)
        assert exact.nmin_values() == full.nmin_values()
        assert full.estimated_nmin_values() == full.nmin_values()


class TestParallelDifferential:
    """A pool of two (``PoolExecutor(jobs=2)``) ≡ the single-process
    build, bit for bit.

    Sweeps every base engine; the shard cache is disabled so each case
    measures a real sharded construction, not a replay.
    """

    @staticmethod
    def _parallel(base):
        return ParallelBackend(
            base=base, executor=PoolExecutor(jobs=2), use_cache=False
        )

    def _assert_equivalent(self, circuit, base):
        single = FaultUniverse(circuit, backend=base)
        parallel = FaultUniverse(circuit, backend=self._parallel(base))
        for mine, theirs in (
            (parallel.target_table, single.target_table),
            (parallel.untargeted_table, single.untargeted_table),
        ):
            assert mine.faults == theirs.faults
            assert mine.packed == theirs.packed
            assert mine.universe == theirs.universe
            assert mine.counts() == theirs.counts()
        single_analysis = WorstCaseAnalysis(
            single.target_table, single.untargeted_table
        )
        parallel_analysis = WorstCaseAnalysis(
            parallel.target_table, parallel.untargeted_table
        )
        assert parallel_analysis.records == single_analysis.records
        assert parallel_analysis.guaranteed_n() == (
            single_analysis.guaranteed_n()
        )

    @pytest.mark.parametrize("seed,p,gates", [(21, 5, 12), (22, 6, 14)])
    def test_exhaustive_base_random(self, seed, p, gates):
        circuit = random_circuit(seed, num_inputs=p, num_gates=gates)
        self._assert_equivalent(circuit, TableBackend())

    @pytest.mark.parametrize("seed,p,gates", [(23, 6, 14), (24, 7, 16)])
    def test_sampled_base_random(self, seed, p, gates):
        circuit = random_circuit(seed, num_inputs=p, num_gates=gates)
        self._assert_equivalent(
            circuit, TableBackend(samples=24, seed=seed)
        )

    def test_serial_base_random(self):
        circuit = random_circuit(26, num_inputs=5, num_gates=12)
        self._assert_equivalent(circuit, SerialBackend())

    @pytest.mark.parametrize("name", _suite_circuits())
    def test_suite_circuit(self, name):
        from repro.bench_suite.registry import get_circuit

        self._assert_equivalent(get_circuit(name), TableBackend())


class TestTcpExecutorDifferential:
    """TCP-broker builds ≡ inline builds, bit for bit.

    Every case submits its shards to a live in-process broker and lets
    real :class:`~repro.parallel.netqueue.TcpWorker` drain loops (two
    of them, served push-style off the same broker) produce the
    results — the exact machinery behind ``repro broker`` + ``repro
    worker --broker``, minus the process boundary that the netqueue
    tests and the CI fleet-smoke job cover.  The local shard cache is
    disabled so each case measures a real distributed construction,
    not a replay.
    """

    @pytest.fixture()
    def broker(self):
        from repro.parallel.netqueue import BackgroundBroker

        self._fleet = []
        with BackgroundBroker() as running:
            yield running
            # Stop this case's workers with it: a drain loop left to
            # wait out an idle deadline keeps reconnecting, and can
            # attach to a later test's broker on a reused port.
            for worker, thread in self._fleet:
                worker.stop()
                thread.join(timeout=30)
                assert not thread.is_alive()

    @staticmethod
    def _tcp_backend(base, broker):
        from repro.parallel.netqueue import TcpExecutor

        return ParallelBackend(
            base=base,
            use_cache=False,
            executor=TcpExecutor(
                broker=broker.address, wait_timeout=300.0
            ),
        )

    def _workers(self, broker, tmp_path, count=2):
        import threading

        from repro.parallel.netqueue import TcpWorker

        for index in range(count):
            worker = TcpWorker(
                broker=broker.address,
                worker_id=f"diff-{index}",
                cache_dir=str(tmp_path / f"cache-{index}"),
                use_cache=False,
            )
            thread = threading.Thread(target=worker.serve, daemon=True)
            thread.start()
            self._fleet.append((worker, thread))

    def _assert_equivalent(self, circuit, base, broker, tmp_path):
        self._workers(broker, tmp_path)
        inline = FaultUniverse(circuit, backend=base)
        networked = FaultUniverse(
            circuit, backend=self._tcp_backend(base, broker)
        )
        for mine, theirs in (
            (networked.target_table, inline.target_table),
            (networked.untargeted_table, inline.untargeted_table),
        ):
            assert type(mine.faults) is type(theirs.faults)
            assert mine.faults == theirs.faults
            assert mine.packed == theirs.packed
            assert mine.universe == theirs.universe
        tcp_analysis = WorstCaseAnalysis(
            networked.target_table, networked.untargeted_table
        )
        inline_analysis = WorstCaseAnalysis(
            inline.target_table, inline.untargeted_table
        )
        assert tcp_analysis.records == inline_analysis.records
        assert tcp_analysis.guaranteed_n() == (
            inline_analysis.guaranteed_n()
        )

    def test_exhaustive_base(self, broker, tmp_path):
        circuit = random_circuit(51, num_inputs=5, num_gates=12)
        self._assert_equivalent(
            circuit, TableBackend(), broker, tmp_path
        )

    def test_sampled_base(self, broker, tmp_path):
        circuit = random_circuit(52, num_inputs=7, num_gates=16)
        self._assert_equivalent(
            circuit, TableBackend(samples=24, seed=52), broker, tmp_path
        )

    def test_packed_base(self, broker, tmp_path):
        """The adaptive rounds' explicit-vector engine, over tcp."""
        circuit = random_circuit(53, num_inputs=6, num_gates=14)
        self._assert_equivalent(
            circuit,
            TableBackend(vectors=(0, 3, 9, 17, 30, 42, 51, 63)),
            broker,
            tmp_path,
        )

    def test_serial_base(self, broker, tmp_path):
        circuit = random_circuit(54, num_inputs=5, num_gates=12)
        self._assert_equivalent(
            circuit, SerialBackend(), broker, tmp_path
        )

    @pytest.mark.parametrize("name", _suite_circuits()[:2])
    def test_suite_circuit(self, name, broker, tmp_path):
        from repro.bench_suite.registry import get_circuit

        self._assert_equivalent(
            get_circuit(name), TableBackend(), broker, tmp_path
        )

    def test_adaptive_rounds_distribute(self, broker, tmp_path):
        """Per-round adaptive delta builds through the broker: the
        trajectory is bit-identical to the single-process run."""
        from repro.adaptive import AdaptiveSampler, StoppingRule
        from repro.parallel.netqueue import TcpExecutor

        circuit = random_circuit(55, num_inputs=6, num_gates=14)
        rule = StoppingRule(
            target_halfwidth=0.2, initial_samples=8, max_samples=48,
            k_smallest=4,
        )

        def run(executor=None):
            return AdaptiveSampler(
                circuit, rule=rule, seed=5, executor=executor,
                use_cache=False,
            ).run()

        self._workers(broker, tmp_path)
        networked = run(
            TcpExecutor(broker=broker.address, wait_timeout=300.0)
        )
        plain = run()
        assert [
            (r.k_total, r.k_new, r.met) for r in plain.rounds
        ] == [(r.k_total, r.k_new, r.met) for r in networked.rounds]
        assert plain.universe == networked.universe
        assert (
            plain.target_table.packed.to_bigints()
            == networked.target_table.packed.to_bigints()
        )
        assert (
            plain.untargeted_table.packed.to_bigints()
            == networked.untargeted_table.packed.to_bigints()
        )

    def test_stolen_build_is_bit_identical(self):
        """Equality must also hold when a shard is actually stolen:
        a straggler sits on its lease while a fast thief finishes."""
        import threading

        from repro.parallel.netqueue import (
            BackgroundBroker,
            Broker,
            TcpExecutor,
            TcpWorker,
        )

        circuit = random_circuit(56, num_inputs=5, num_gates=12)
        base = TableBackend()
        inline = FaultUniverse(circuit, backend=base)
        with BackgroundBroker(Broker(steal_after=0.1)) as running:
            slow = TcpWorker(
                broker=running.address, worker_id="a-slow",
                build_delay=2.0, use_cache=False,
            )
            fast = TcpWorker(
                broker=running.address, worker_id="b-fast",
                use_cache=False,
            )
            threads = [
                threading.Thread(target=worker.serve, daemon=True)
                for worker in (slow, fast)
            ]
            for thread in threads:
                thread.start()
            networked = FaultUniverse(
                circuit,
                backend=ParallelBackend(
                    base=base,
                    use_cache=False,
                    executor=TcpExecutor(
                        broker=running.address, wait_timeout=300.0
                    ),
                ),
            )
            # The tables are lazy; force both builds while the broker
            # (and the straggler) are still alive.
            assert (
                networked.target_table.packed.to_bigints()
                == inline.target_table.packed.to_bigints()
            )
            assert (
                networked.untargeted_table.packed.to_bigints()
                == inline.untargeted_table.packed.to_bigints()
            )
            counters = running.stats()["counters"]
            for worker, thread in zip((slow, fast), threads, strict=True):
                worker.stop()
                thread.join(timeout=30)
                assert not thread.is_alive()
        assert counters["steals"] >= 1


class TestAdaptiveDifferential:
    """Adaptive trajectories are seed-deterministic and executor-invariant
    (in-process vs a pool of two)."""

    RULE_KWARGS = dict(
        target_halfwidth=0.2,
        initial_samples=8,
        max_samples=48,
        k_smallest=4,
    )

    def _run(self, circuit, seed, executor=None, stratify=None, **overrides):
        from repro.adaptive import AdaptiveSampler, StoppingRule

        kwargs = {**self.RULE_KWARGS, **overrides}
        return AdaptiveSampler(
            circuit,
            rule=StoppingRule(**kwargs),
            seed=seed,
            stratify=stratify,
            executor=executor,
            use_cache=False,
        ).run()

    @staticmethod
    def _assert_same_trajectory(a, b):
        assert [
            (r.k_total, r.k_new, r.met, r.allocation) for r in a.rounds
        ] == [(r.k_total, r.k_new, r.met, r.allocation) for r in b.rounds]
        assert a.universe == b.universe
        assert a.target_table.packed == b.target_table.packed
        assert (
            a.untargeted_table.packed == b.untargeted_table.packed
        )
        assert a.met == b.met and a.reason == b.reason
        worst_a = WorstCaseAnalysis(a.target_table, _dropped(a))
        worst_b = WorstCaseAnalysis(b.target_table, _dropped(b))
        assert worst_a.records == worst_b.records
        assert worst_a.guaranteed_n() == worst_b.guaranteed_n()

    @pytest.mark.parametrize("stratify", [None, "bridging"])
    @pytest.mark.parametrize("seed,p,gates", [(31, 6, 14), (32, 7, 16)])
    def test_jobs_invariant_random(self, seed, p, gates, stratify):
        circuit = random_circuit(seed, num_inputs=p, num_gates=gates)
        single = self._run(circuit, seed=seed, stratify=stratify)
        sharded = self._run(
            circuit, seed=seed, executor=PoolExecutor(), stratify=stratify
        )
        self._assert_same_trajectory(single, sharded)

    @pytest.mark.parametrize("name", _suite_circuits()[:2])
    def test_jobs_invariant_suite(self, name):
        from repro.bench_suite.registry import get_circuit

        circuit = get_circuit(name)
        single = self._run(circuit, seed=1, stratify="bridging")
        sharded = self._run(
            circuit, seed=1, executor=PoolExecutor(), stratify="bridging"
        )
        self._assert_same_trajectory(single, sharded)

    @pytest.mark.parametrize("stratify", [None, "bridging"])
    def test_representation_invariant(self, stratify):
        """Round-by-round column splicing ≡ one build over all vectors."""
        circuit = random_circuit(33, num_inputs=6, num_gates=14)
        report = self._run(circuit, seed=2, stratify=stratify)
        assert len(report.rounds) > 1
        assert report.universe.size < 1 << circuit.num_inputs
        one_shot = TableBackend(vectors=tuple(report.universe.vectors))
        target = one_shot.build_stuck_at(circuit)
        untargeted = one_shot.build_bridging(
            circuit, drop_undetectable=False
        )
        assert report.target_table.faults == target.faults
        assert report.target_table.packed == target.packed
        assert report.untargeted_table.faults == untargeted.faults
        assert report.untargeted_table.packed == untargeted.packed

    @pytest.mark.parametrize("stratify", [None, "bridging"])
    def test_full_budget_canonicalizes_to_exhaustive(self, stratify):
        # Degenerate full-budget run == the exact exhaustive analysis,
        # exactly like the full-coverage sampled draw.
        circuit = random_circuit(34, num_inputs=6, num_gates=14)
        report = self._run(
            circuit, seed=3, stratify=stratify,
            target_halfwidth=0.0001, max_samples=1 << 6,
        )
        assert report.universe.exhaustive
        exh_f, exh_g = _tables(circuit, TableBackend())
        assert report.target_table.packed == exh_f.packed
        dropped = _dropped(report)
        assert dropped.faults == exh_g.faults
        assert dropped.packed == exh_g.packed
        exact = WorstCaseAnalysis(exh_f, exh_g)
        adaptive = WorstCaseAnalysis(report.target_table, dropped)
        assert adaptive.records == exact.records

    def test_seed_changes_trajectory(self):
        circuit = random_circuit(35, num_inputs=6, num_gates=14)
        a = self._run(circuit, seed=1)
        b = self._run(circuit, seed=2)
        assert a.universe != b.universe


def _dropped(report):
    """The paper's G from a report's raw bridging table."""
    table = report.untargeted_table
    kept = [
        (f, s)
        for f, s in zip(table.faults, table.packed.to_bigints(), strict=True)
        if s
    ]
    return DetectionTable.from_signatures(
        table.circuit,
        [f for f, _ in kept],
        [s for _, s in kept],
        table.universe,
    )


class TestSampledEstimates:
    """Sub-sample popcounts estimate the exact quantities."""

    SEEDS = range(40)
    K = 32  # half of the 2**6 universe

    @pytest.fixture(scope="class")
    def circuit(self):
        return random_circuit(11, num_inputs=6, num_gates=14)

    @pytest.fixture(scope="class")
    def exact_universe(self, circuit):
        return FaultUniverse(circuit)

    @pytest.fixture(scope="class")
    def sampled_tables(self, circuit):
        return [
            FaultUniverse(
                circuit, backend=TableBackend(samples=self.K, seed=s)
            ).target_table
            for s in self.SEEDS
        ]

    def test_count_estimates_unbiased(self, exact_universe, sampled_tables):
        exact = exact_universe.target_table.counts()
        num_faults = len(exact)
        sums = [0.0] * num_faults
        for table in sampled_tables:
            for i, est in enumerate(table.estimated_counts()):
                sums[i] += est
        # Calibrated: the worst per-fault |mean - exact| over these seeds
        # is ~0.85 on a 64-vector universe; 3.0 leaves generous slack.
        for i in range(num_faults):
            assert abs(sums[i] / len(sampled_tables) - exact[i]) < 3.0

    def test_estimates_bounded_by_universe(self, sampled_tables):
        for table in sampled_tables[:5]:
            space = table.universe.space
            for est in table.estimated_counts():
                assert 0.0 <= est <= space

    def test_nmin_estimates_near_exact(self, circuit, exact_universe):
        exact = WorstCaseAnalysis(
            exact_universe.target_table, exact_universe.untargeted_table
        )
        exact_n = exact.guaranteed_n()
        assert exact_n is not None
        estimates = []
        for s in range(30):
            u = FaultUniverse(
                circuit, backend=TableBackend(samples=self.K, seed=s)
            )
            w = WorstCaseAnalysis(u.target_table, u.untargeted_table)
            est = w.estimated_guaranteed_n()
            if est is not None:
                estimates.append(est)
        assert len(estimates) >= 20
        # Calibrated: mean over these seeds is ~5.3 vs exact 5; the min
        # of noisy per-fault estimates biases slightly, hence the slack.
        assert abs(statistics.mean(estimates) - exact_n) < 2.5

    def test_sampled_tables_internally_consistent(self, sampled_tables):
        for table in sampled_tables[:5]:
            assert table.universe.size == self.K
            for sig in table.packed.to_bigints():
                assert sig >> self.K == 0  # no bits beyond the universe


class TestSampledPipeline:
    """The whole analysis stack runs coherently on a sampled universe."""

    @pytest.fixture(scope="class")
    def universe(self):
        circuit = random_circuit(12, num_inputs=6, num_gates=14)
        return FaultUniverse(circuit, backend=TableBackend(samples=24, seed=5))

    def test_procedure1_average_case_escape(self, universe):
        family = build_random_ndetection_sets(
            universe.target_table, n_max=3, num_sets=10, seed=1
        )
        assert family.universe == universe.target_table.universe
        # test_vectors maps sample bits back to real drawn vectors.
        vectors = family.test_vectors(3, 0)
        assert set(vectors) <= set(universe.target_table.universe.vectors)
        worst = WorstCaseAnalysis(
            universe.target_table, universe.untargeted_table
        )
        average = AverageCaseAnalysis(family, universe.untargeted_table)
        assert all(0.0 <= p <= 1.0 for p in average.probabilities(3))
        reports = EscapeAnalysis(worst, average).curve()
        assert len(reports) == 3
        assert all(r.expected_escapes >= 0 for r in reports)

    def test_def2_counting_translates_vectors(self, universe):
        # Definition 2 simulates tij cubes of *decimal* vectors; on a
        # sampled universe the bit indices must be translated first.
        fam_a = build_random_ndetection_sets(
            universe.target_table, n_max=2, num_sets=4, seed=2,
            counting="def2",
        )
        fam_b = build_random_ndetection_sets(
            universe.target_table, n_max=2, num_sets=4, seed=2,
            counting="def2",
        )
        assert fam_a.snapshots == fam_b.snapshots  # deterministic
        k_universe = universe.target_table.universe.size
        for snap in fam_a.snapshots[-1]:
            assert snap >> k_universe == 0

    def test_worst_case_rejects_mixed_universes(self, universe):
        exhaustive = FaultUniverse(
            universe.circuit, backend=TableBackend()
        )
        with pytest.raises(AnalysisError, match="universe"):
            WorstCaseAnalysis(
                exhaustive.target_table, universe.untargeted_table
            )

    def test_average_case_rejects_mixed_universes(self, universe):
        exhaustive = FaultUniverse(
            universe.circuit, backend=TableBackend()
        )
        family = build_random_ndetection_sets(
            exhaustive.target_table, n_max=2, num_sets=4, seed=1
        )
        with pytest.raises(AnalysisError, match="universe"):
            AverageCaseAnalysis(family, universe.untargeted_table)
