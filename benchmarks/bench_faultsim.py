"""Performance benchmarks for the analysis substrate.

Microbenchmarks (real timing statistics, multiple rounds) for the hot
paths behind every table: exhaustive signatures, detection-table
construction for both fault models (exhaustive and sampled-U backends),
the worst-case nmin scan, and Procedure 1 throughput.
``test_packed_nmin_scan_speedup`` is the acceptance benchmark of the
packed nmin scan: it times the scalar big-int scan and the array scan
over packed words on the wide sampled circuits, prints the comparison,
and asserts a minimum aggregate speedup.

``REPRO_BENCH_CIRCUIT`` overrides the benchmark circuit (CI smoke runs
use a small one); ``REPRO_BENCH_SAMPLES`` sizes the sampled backend's
draw.  The packed-speedup comparison has its own knobs:
``REPRO_BENCH_WIDE_CIRCUITS`` (default ``wide28,wide32,wide40``),
``REPRO_BENCH_WIDE_SAMPLES`` (default 128), and
``REPRO_BENCH_MIN_SPEEDUP`` (default 5.0; CI smoke on shared runners
lowers it to avoid timing flakes while still recording the numbers).

``test_parallel_build_speedup`` is the acceptance benchmark of the
sharded multiprocessing subsystem: it times single-process vs
``jobs=2`` / ``jobs=4`` detection-table builds (shard cache disabled,
so real construction is measured) on the wide sampled circuits, proves
the tables bit-identical, records the numbers into the
``BENCH_faultsim.json`` trajectory, and asserts the aggregate speedup
at the highest jobs value clears ``REPRO_BENCH_MIN_PARALLEL_SPEEDUP``
(default 1.5; auto-waived — but still recorded — on single-core
machines, where a process pool cannot physically speed anything up).
``REPRO_BENCH_PARALLEL_SAMPLES`` (default 512) sizes the builds,
``REPRO_BENCH_PARALLEL_JOBS`` (default ``2,4``) the pool sweep.

``test_tcp_executor_build_speedup`` is the acceptance benchmark of
the distributed tcp executor: it starts an in-process broker, launches
two real ``repro worker --broker`` subprocesses against it, and times
the wide-circuit table builds single-process vs local pool vs tcp,
proving the tables bit-identical and recording all three wall times
into ``BENCH_faultsim.json``.  The aggregate tcp-vs-single floor is
``REPRO_BENCH_MIN_TCP_SPEEDUP`` (default: the parallel floor),
waived — but still recorded — on single-core machines;
``REPRO_BENCH_QUEUE_WORKERS`` (default 2) sizes the worker fleet.

``test_adaptive_sample_efficiency`` is the acceptance benchmark of the
adaptive sampling controller: on each wide circuit (bridging-heavy
universes — thousands of four-way bridging faults against hundreds of
stuck-at targets) it runs the stratified adaptive controller to a fixed
relative half-width target and records how many vectors it simulated,
against two fixed-``K`` baselines: the restart-based geometric search
under the same stratified rule (what a non-incremental driver pays:
``K0 + 2 K0 + 4 K0 + …``, measured) and the uniform draw certifying
the *same focus faults* to the same half-width (analytic:
``K ≈ z²(1-p)/(p·target²)`` from the certified estimates — for
rare-activation faults orders of magnitude beyond any practical draw).
A uniform-growth sweep under the uniform-mode rule is also recorded
for context.  It asserts the adaptive run met the target and strictly
beat both baselines.  ``REPRO_BENCH_ADAPTIVE_TARGET`` (default 0.1)
sets the target, ``REPRO_BENCH_ADAPTIVE_BUDGET`` (default 32768) the
adaptive budget, ``REPRO_BENCH_ADAPTIVE_UNIFORM_CAP`` (default 4096)
the context sweep cap.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.bench_suite.registry import get_circuit
from repro.core.procedure1 import build_random_ndetection_sets
from repro.core.worst_case import (
    NminRecord,
    WorstCaseAnalysis,
    nmin_for_untargeted_fault,
)
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import TableBackend
from repro.faultsim.detection import DetectionTable
from repro.parallel import ParallelBackend, PoolExecutor
from repro.simulation.exhaustive import line_signatures

# mid-size default: 60 gates, 6 inputs
CIRCUIT = os.environ.get("REPRO_BENCH_CIRCUIT", "beecount")
SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "1024"))
WIDE_CIRCUITS = [
    name.strip()
    for name in os.environ.get(
        "REPRO_BENCH_WIDE_CIRCUITS", "wide28,wide32,wide40"
    ).split(",")
    if name.strip()
]
WIDE_SAMPLES = int(os.environ.get("REPRO_BENCH_WIDE_SAMPLES", "128"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))
#: Per-circuit floor: by default packed must never be slower; CI smoke on
#: shared runners can relax it below 1.0 alongside MIN_SPEEDUP.
MIN_CIRCUIT_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_CIRCUIT_SPEEDUP", "1.0")
)
#: Parallel-build acceptance knobs (see module docstring).
PARALLEL_SAMPLES = int(
    os.environ.get("REPRO_BENCH_PARALLEL_SAMPLES", "512")
)
PARALLEL_JOBS = [
    int(j)
    for j in os.environ.get("REPRO_BENCH_PARALLEL_JOBS", "2,4").split(",")
    if j.strip()
]
MIN_PARALLEL_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_PARALLEL_SPEEDUP", "1.5")
)
#: Tcp-executor acceptance floor (tcp vs single-process, 2 local
#: workers); defaults to the pool floor, waived on single-core runners
#: exactly like it.  CI on shared runners relaxes it independently —
#: the broker round trips add pickling and socket latency a loaded
#: runner can amplify — while the measured numbers still land in the
#: trajectory.
MIN_TCP_SPEEDUP = float(
    os.environ.get(
        "REPRO_BENCH_MIN_TCP_SPEEDUP",
        os.environ.get("REPRO_BENCH_MIN_PARALLEL_SPEEDUP", "1.5"),
    )
)
QUEUE_WORKERS = int(os.environ.get("REPRO_BENCH_QUEUE_WORKERS", "2"))
#: Adaptive sample-efficiency knobs (see module docstring).
ADAPTIVE_TARGET = float(
    os.environ.get("REPRO_BENCH_ADAPTIVE_TARGET", "0.1")
)
ADAPTIVE_BUDGET = int(
    os.environ.get("REPRO_BENCH_ADAPTIVE_BUDGET", str(1 << 15))
)
#: The uniform baseline sweep stops here; for rare-activation faults it
#: cannot meet the relative target at any practical K, so the recorded
#: requirement is extrapolated from the achieved half-width.
ADAPTIVE_UNIFORM_CAP = int(
    os.environ.get("REPRO_BENCH_ADAPTIVE_UNIFORM_CAP", str(1 << 12))
)


@pytest.fixture(scope="module")
def circuit():
    return get_circuit(CIRCUIT)


@pytest.fixture(scope="module")
def tables(circuit):
    targets = DetectionTable.for_stuck_at(circuit)
    untargeted = DetectionTable.for_bridging(circuit)
    return targets, untargeted


def test_line_signatures(benchmark, circuit):
    sigs = benchmark(line_signatures, circuit)
    assert len(sigs) == len(circuit.lines)


def test_stuck_at_table(benchmark, circuit):
    table = benchmark(DetectionTable.for_stuck_at, circuit)
    assert len(table) > 0


def test_bridging_table(benchmark, circuit):
    table = benchmark(DetectionTable.for_bridging, circuit)
    assert len(table) > 0


@pytest.fixture(scope="module")
def sampled_backend(circuit):
    # Full-coverage draws canonicalize to exhaustive; stay strictly below.
    k = min(SAMPLES, (1 << circuit.num_inputs) // 2)
    return TableBackend(samples=max(1, k), seed=1)


def test_sampled_stuck_at_table(benchmark, circuit, sampled_backend):
    table = benchmark(sampled_backend.build_stuck_at, circuit)
    assert len(table) > 0


def test_sampled_bridging_table(benchmark, circuit, sampled_backend):
    table = benchmark(sampled_backend.build_bridging, circuit)
    assert table.universe.size == sampled_backend.samples


def test_worst_case_scan(benchmark, tables):
    targets, untargeted = tables
    analysis = benchmark(WorstCaseAnalysis, targets, untargeted)
    assert len(analysis) == len(untargeted)


def _best_of(builder, rounds=3):
    times = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = builder()
        times.append(time.perf_counter() - start)
    return min(times), result


def test_packed_nmin_scan_speedup(record_speedup):
    """Acceptance: packed nmin scan vs big-int scan on wide circuits.

    Builds one pair of tables over a sampled universe.  The big-int
    side times the per-fault scalar scan (``nmin_for_untargeted_fault``
    over the big-int signatures, fault by fault); the packed side times
    ``WorstCaseAnalysis``, the deduplicated vectorized scan over the
    words.  It proves the records identical and asserts the aggregate
    speedup across the wide suite clears ``REPRO_BENCH_MIN_SPEEDUP``.
    """
    total_big = total_packed = 0.0
    lines = []
    for name in WIDE_CIRCUITS:
        circuit = get_circuit(name)
        samples = min(WIDE_SAMPLES, (1 << circuit.num_inputs) // 2)
        universe = FaultUniverse(
            circuit, backend=TableBackend(samples=samples, seed=7)
        )
        big_t, big_g = universe.target_table, universe.untargeted_table
        rows = big_t.packed.to_bigints()

        def packed_cold():
            # Each analysis pays the full one-time setup (sorted matrix,
            # dedup, bit unpack) a cold `repro analyze` run would pay.
            return WorstCaseAnalysis(big_t, big_g)

        def big_scalar():
            counts = big_t.counts()
            order = sorted(range(len(counts)), key=counts.__getitem__)
            return [
                NminRecord(
                    j,
                    *nmin_for_untargeted_fault(
                        rows, g_sig, target_counts=counts, sorted_order=order
                    ),
                )
                for j, g_sig in enumerate(big_g.packed.to_bigints())
            ]

        big_time, big_records = _best_of(big_scalar)
        packed_time, packed_analysis = _best_of(packed_cold)
        assert big_records == packed_analysis.records
        total_big += big_time
        total_packed += packed_time
        record_speedup(
            {
                "name": "packed_nmin_scan",
                "circuit": name,
                "samples": samples,
                "bigint_s": big_time,
                "packed_s": packed_time,
                "speedup": big_time / packed_time,
            }
        )
        lines.append(
            f"  {name}: big-int {big_time * 1e3:8.1f} ms   "
            f"packed {packed_time * 1e3:8.1f} ms   "
            f"speedup {big_time / packed_time:5.1f}x"
        )
        assert big_time / packed_time >= MIN_CIRCUIT_SPEEDUP, (
            f"{name}: packed/big-int speedup "
            f"{big_time / packed_time:.2f}x below the per-circuit floor "
            f"{MIN_CIRCUIT_SPEEDUP:.2f}x"
        )
    aggregate = total_big / total_packed
    report = (
        f"\npacked nmin scan vs big-int (K={WIDE_SAMPLES}):\n"
        + "\n".join(lines)
        + f"\n  aggregate speedup: {aggregate:.1f}x"
        + f" (required >= {MIN_SPEEDUP:.1f}x)\n"
    )
    print(report, end="")
    assert aggregate >= MIN_SPEEDUP, report


def test_parallel_build_speedup(record_speedup):
    """Acceptance: sharded multiprocessing table builds on wide circuits.

    For every wide sampled circuit, times the full detection-table
    construction (both fault models, shard cache disabled) single-
    process and at each ``PARALLEL_JOBS`` value, proves the parallel
    tables bit-identical to the single-process ones, records every
    timing into the ``BENCH_faultsim.json`` trajectory, and asserts the
    aggregate speedup at the highest jobs value clears
    ``MIN_PARALLEL_SPEEDUP``.  On a single-core machine the assertion
    is waived (a process pool cannot beat the GIL-free single process
    there) but the numbers are still recorded.
    """

    def build(circuit, backend):
        universe = FaultUniverse(circuit, backend=backend)
        return universe.target_table, universe.untargeted_table

    totals = {0: 0.0, **{j: 0.0 for j in PARALLEL_JOBS}}
    lines = []
    for name in WIDE_CIRCUITS:
        circuit = get_circuit(name)
        samples = min(PARALLEL_SAMPLES, (1 << circuit.num_inputs) // 2)
        base = TableBackend(samples=samples, seed=7)
        single_time, (single_f, single_g) = _best_of(
            lambda: build(circuit, base), rounds=2
        )
        totals[0] += single_time
        row = [f"  {name}: single {single_time * 1e3:8.1f} ms"]
        entry = {
            "name": "parallel_table_build",
            "circuit": name,
            "samples": samples,
            "single_s": single_time,
        }
        for jobs in PARALLEL_JOBS:
            backend = ParallelBackend(
                base=base, executor=PoolExecutor(jobs=jobs), use_cache=False
            )
            par_time, (par_f, par_g) = _best_of(
                lambda: build(circuit, backend), rounds=2
            )
            assert par_f.packed == single_f.packed
            assert par_g.packed == single_g.packed
            assert par_g.faults == single_g.faults
            totals[jobs] += par_time
            entry[f"jobs{jobs}_s"] = par_time
            entry[f"jobs{jobs}_speedup"] = single_time / par_time
            row.append(
                f"jobs={jobs} {par_time * 1e3:8.1f} ms "
                f"({single_time / par_time:4.2f}x)"
            )
        record_speedup(entry)
        lines.append("   ".join(row))
    top_jobs = max(PARALLEL_JOBS)
    aggregate = totals[0] / totals[top_jobs]
    record_speedup(
        {
            "name": "parallel_table_build_aggregate",
            "samples": PARALLEL_SAMPLES,
            "jobs": top_jobs,
            "single_s": totals[0],
            "parallel_s": totals[top_jobs],
            "speedup": aggregate,
            "cpu_count": os.cpu_count(),
        }
    )
    cpus = os.cpu_count() or 1
    report = (
        f"\nparallel table build vs single-process "
        f"(K={PARALLEL_SAMPLES}, {cpus} cpus):\n"
        + "\n".join(lines)
        + f"\n  aggregate speedup at jobs={top_jobs}: {aggregate:.2f}x"
        + f" (required >= {MIN_PARALLEL_SPEEDUP:.1f}x"
        + (", waived: single-core machine" if cpus < 2 else "")
        + ")\n"
    )
    print(report, end="")
    if cpus >= 2:
        assert aggregate >= MIN_PARALLEL_SPEEDUP, report


def test_tcp_executor_build_speedup(record_speedup, tmp_path):
    """Acceptance: distributed tcp-executor builds on wide circuits.

    Starts an in-process broker, launches ``QUEUE_WORKERS`` real
    ``repro worker --broker`` subprocesses against it, then times the
    full detection-table construction (both fault models) on every
    wide sampled circuit three ways: single-process,
    ``ParallelBackend`` on a local pool (jobs=``QUEUE_WORKERS``), and
    the tcp executor drained by the workers.  All tables are proven
    bit-identical, every wall time lands in the ``BENCH_faultsim.json``
    trajectory, and the aggregate tcp-vs-single speedup must clear
    ``MIN_TCP_SPEEDUP`` — waived (but still recorded) on single-core
    machines, where no executor can physically beat the single
    process.
    """
    import subprocess
    import sys
    from pathlib import Path

    from repro.parallel.netqueue import BackgroundBroker, TcpExecutor

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[1] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    # Workers write through a private shard cache: a warm one would
    # replay results instead of building anything.
    env["REPRO_CACHE_DIR"] = str(tmp_path / "worker-cache")
    env.pop("REPRO_QUEUE_CRASH_AFTER_CLAIM", None)
    env.pop("REPRO_STEAL_DELAY", None)

    def build(circuit, backend):
        universe = FaultUniverse(circuit, backend=backend)
        return universe.target_table, universe.untargeted_table

    totals = {"single": 0.0, "pool": 0.0, "tcp": 0.0}
    lines = []
    with BackgroundBroker() as broker:
        workers = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--broker", broker.address,
                    "--idle-exit", "600",
                ],
                env=env,
            )
            for _ in range(QUEUE_WORKERS)
        ]
        try:
            for name in WIDE_CIRCUITS:
                circuit = get_circuit(name)
                samples = min(
                    PARALLEL_SAMPLES, (1 << circuit.num_inputs) // 2
                )
                base = TableBackend(samples=samples, seed=7)
                single_time, (single_f, single_g) = _best_of(
                    lambda: build(circuit, base), rounds=2
                )
                pool = ParallelBackend(
                    base=base,
                    executor=PoolExecutor(jobs=QUEUE_WORKERS),
                    use_cache=False,
                )
                pool_time, (pool_f, pool_g) = _best_of(
                    lambda: build(circuit, pool), rounds=2
                )
                networked = ParallelBackend(
                    base=base,
                    use_cache=False,
                    executor=TcpExecutor(
                        broker=broker.address, wait_timeout=600.0
                    ),
                )
                # One cold round: a repeat would replay the broker's
                # content-addressed results instead of building anything.
                tcp_time, (tcp_f, tcp_g) = _best_of(
                    lambda: build(circuit, networked), rounds=1
                )
                for mine in (pool_f, tcp_f):
                    assert mine.packed == single_f.packed
                for mine in (pool_g, tcp_g):
                    assert mine.packed == single_g.packed
                    assert mine.faults == single_g.faults
                totals["single"] += single_time
                totals["pool"] += pool_time
                totals["tcp"] += tcp_time
                record_speedup(
                    {
                        "name": "tcp_executor_build",
                        "circuit": name,
                        "samples": samples,
                        "workers": QUEUE_WORKERS,
                        "single_s": single_time,
                        "pool_s": pool_time,
                        "tcp_s": tcp_time,
                        "tcp_speedup": single_time / tcp_time,
                    }
                )
                lines.append(
                    f"  {name}: single {single_time * 1e3:8.1f} ms   "
                    f"pool {pool_time * 1e3:8.1f} ms "
                    f"({single_time / pool_time:4.2f}x)   "
                    f"tcp {tcp_time * 1e3:8.1f} ms "
                    f"({single_time / tcp_time:4.2f}x)"
                )
        finally:
            for proc in workers:
                proc.terminate()
            for proc in workers:
                proc.wait(timeout=30)
    aggregate = totals["single"] / totals["tcp"]
    cpus = os.cpu_count() or 1
    record_speedup(
        {
            "name": "tcp_executor_build_aggregate",
            "samples": PARALLEL_SAMPLES,
            "workers": QUEUE_WORKERS,
            "single_s": totals["single"],
            "pool_s": totals["pool"],
            "tcp_s": totals["tcp"],
            "speedup": aggregate,
            "cpu_count": cpus,
        }
    )
    report = (
        f"\ntcp-executor build ({QUEUE_WORKERS} local workers) vs "
        f"pool vs single-process (K={PARALLEL_SAMPLES}, {cpus} cpus):\n"
        + "\n".join(lines)
        + f"\n  aggregate tcp speedup: {aggregate:.2f}x"
        + f" (required >= {MIN_TCP_SPEEDUP:.1f}x"
        + (", waived: single-core machine" if cpus < 2 else "")
        + ")\n"
    )
    print(report, end="")
    if cpus >= 2:
        assert aggregate >= MIN_TCP_SPEEDUP, report


def test_adaptive_sample_efficiency(record_speedup):
    """Acceptance: adaptive+stratified vs fixed-K sample cost.

    For every wide circuit, runs the stratified adaptive controller to
    the relative half-width target and compares the vectors it
    simulated against two fixed-``K`` baselines:

    (a) the restart-based geometric search — the *same* stratified
        stopping rule without incremental signature reuse, which pays
        the sum of the grid sizes (directly measured from the
        trajectory); and
    (b) the uniform draw certifying the *same focus faults* to the same
        relative half-width: a Wilson interval on a fault with
        detection probability ``p`` needs ``K ≈ z²(1-p)/(p·target²)``
        uniform vectors, computed analytically from the stratified
        run's own certified estimates (rare-activation faults make
        this astronomically larger than any practical draw).

    For context it also sweeps a uniform-growth run under the
    uniform-mode rule (focus pool = all faults) to
    ``ADAPTIVE_UNIFORM_CAP``, recording whether that criterion was met
    and its achieved half-width — note that pool differs from the
    stratified run's covered-fault pool, so it is recorded, not
    asserted against.  Asserts the adaptive run met the target and
    strictly undercut both (a) and (b).
    """
    from repro.adaptive import AdaptiveSampler, StoppingRule
    from repro.faultsim.sampling import confidence_z

    lines = []
    for name in WIDE_CIRCUITS:
        circuit = get_circuit(name)
        budget = min(ADAPTIVE_BUDGET, (1 << circuit.num_inputs) // 2)
        rule = StoppingRule(
            target_halfwidth=ADAPTIVE_TARGET,
            initial_samples=64,
            max_samples=budget,
            k_smallest=8,
        )
        start = time.perf_counter()
        adaptive = AdaptiveSampler(
            circuit, rule=rule, seed=7, stratify="bridging",
            use_cache=False,
        ).run()
        adaptive_s = time.perf_counter() - start
        assert adaptive.met, (
            f"{name}: stratified adaptive run missed the "
            f"{ADAPTIVE_TARGET} target within {budget} vectors "
            f"({adaptive.reason})"
        )
        adaptive_vectors = adaptive.total_vectors
        # (a) The non-incremental search pays every grid size again.
        restart_vectors = sum(r.k_total for r in adaptive.rounds)
        # (b) Analytic uniform requirement for the same focus faults.
        z = confidence_z(rule.confidence)
        space = 1 << circuit.num_inputs
        uniform_same_focus = 0
        for fe in adaptive.focus:
            p = fe.estimate.estimate / space
            if p <= 0.0:
                continue
            required = int(
                z * z * (1.0 - p) / (p * ADAPTIVE_TARGET**2)
            )
            uniform_same_focus = max(uniform_same_focus, required)
        # Context: uniform growth under the uniform-mode rule (its
        # focus pool is the k smallest over *all* faults — a different
        # criterion, so recorded but not asserted against).
        uniform_cap = min(ADAPTIVE_UNIFORM_CAP, budget)
        uniform = AdaptiveSampler(
            circuit,
            rule=StoppingRule(
                target_halfwidth=ADAPTIVE_TARGET,
                initial_samples=64,
                max_samples=uniform_cap,
                k_smallest=8,
            ),
            seed=7,
            use_cache=False,
        ).run()
        entry = {
            "name": "adaptive_sample_efficiency",
            "circuit": name,
            "target_halfwidth": ADAPTIVE_TARGET,
            "budget": budget,
            "adaptive_vectors": adaptive_vectors,
            "adaptive_rounds": len(adaptive.rounds),
            "adaptive_s": adaptive_s,
            "restart_fixed_k_vectors": restart_vectors,
            "uniform_same_focus_vectors": uniform_same_focus,
            "uniform_rule_cap": uniform_cap,
            "uniform_rule_met": uniform.met,
            "uniform_rule_achieved_halfwidth": (
                uniform.rounds[-1].relative_worst
            ),
            "strata": adaptive.plan.num_strata,
        }
        record_speedup(entry)
        lines.append(
            f"  {name}: adaptive {adaptive_vectors} vectors "
            f"({len(adaptive.rounds)} rounds, {adaptive_s:.1f}s)   "
            f"restart fixed-K {restart_vectors}   "
            f"uniform same-focus ~{uniform_same_focus}"
        )
        assert adaptive_vectors < restart_vectors, (
            f"{name}: incremental reuse saved nothing"
        )
        assert uniform_same_focus > 0, (
            f"{name}: no certified focus fault to compare against"
        )
        assert adaptive_vectors < uniform_same_focus, (
            f"{name}: stratification did not beat the uniform draw"
        )
    report = (
        f"\nadaptive vs fixed-K sample cost "
        f"(target half-width {ADAPTIVE_TARGET}, ~ = analytic):\n"
        + "\n".join(lines)
        + "\n"
    )
    print(report, end="")


def test_procedure1_def1(benchmark, tables):
    targets, _ = tables
    family = benchmark.pedantic(
        build_random_ndetection_sets,
        args=(targets,),
        kwargs={"n_max": 5, "num_sets": 50, "seed": 1},
        rounds=3,
        iterations=1,
    )
    assert family.num_sets == 50


def test_procedure1_def2(benchmark, tables):
    targets, _ = tables
    family = benchmark.pedantic(
        build_random_ndetection_sets,
        args=(targets,),
        kwargs={"n_max": 3, "num_sets": 10, "seed": 1, "counting": "def2"},
        rounds=1,
        iterations=1,
    )
    assert family.num_sets == 10
