"""Sharded parallel detection-table construction on a wide circuit.

Building the fault × vector detection table dominates every analysis
and is embarrassingly parallel over faults.  This example analyzes a
>24-input suite circuit with the sampled backend, then
repeats the build through ``ParallelBackend(base, executor=...)`` —
fault shards executed on a process pool, merged into a bit-identical
table — and finally replays it against the warm persistent shard cache.

The executor is the one execution setting: the option table resolves
``--jobs``/``--executor`` (and ``REPRO_JOBS``/``REPRO_EXECUTOR``) into
it once, exactly as the CLI does here, and every layer below takes it.

Equivalent CLI invocations:

    repro analyze wide32 --backend sampled --samples 1024 --seed 7 --jobs 4
    repro cache info

Run:  python examples/parallel_analysis.py
"""

import os
import tempfile
import time

from repro.bench_suite.registry import get_circuit
from repro.core.worst_case import WorstCaseAnalysis
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import TableBackend
from repro.options import executor_from_options
from repro.parallel import ParallelBackend, ShardCache, cache_stats

CIRCUIT = "wide32"
SAMPLES = 1024
JOBS = 4


def build(circuit, backend):
    start = time.perf_counter()
    universe = FaultUniverse(circuit, backend=backend)
    tables = universe.target_table, universe.untargeted_table
    return time.perf_counter() - start, tables


def main() -> int:
    circuit = get_circuit(CIRCUIT)
    print(
        f"{CIRCUIT}: {circuit.num_inputs} inputs "
        f"(|U| = 2**{circuit.num_inputs}, far beyond the exhaustive cap), "
        f"sampling K={SAMPLES} vectors"
    )

    base = TableBackend(samples=SAMPLES, seed=7)
    executor = executor_from_options({"jobs": JOBS})  # PoolExecutor(4)
    single_time, (single_f, single_g) = build(circuit, base)
    print(f"\nsingle-process build: {single_time * 1e3:7.1f} ms")

    # A throwaway cache directory so the example is self-contained; drop
    # cache_dir= to use the persistent default (REPRO_CACHE_DIR or the
    # user cache dir), which `repro cache info` inspects.
    with tempfile.TemporaryDirectory() as cache_dir:
        parallel = ParallelBackend(
            base, executor=executor, cache_dir=cache_dir
        )
        cold_time, (par_f, par_g) = build(circuit, parallel)
        assert par_f.packed == single_f.packed
        assert par_g.packed == single_g.packed
        print(
            f"{executor.describe()} cold build:  {cold_time * 1e3:7.1f} ms "
            f"(bit-identical table, {os.cpu_count()} cpus)"
        )

        warm_time, (warm_f, _) = build(circuit, parallel)
        assert warm_f.packed == single_f.packed
        stats = cache_stats()
        print(
            f"{executor.describe()} warm build:  {warm_time * 1e3:7.1f} ms "
            f"(shard cache: {stats['hits']} hits)"
        )
        cache = ShardCache(cache_dir)
        print(
            f"shard cache: {len(cache.entries())} entries, "
            f"{cache.total_bytes()} bytes"
        )

    worst = WorstCaseAnalysis(single_f, single_g)
    guaranteed = worst.guaranteed_n()
    print(
        f"\nworst-case analysis over the sampled universe: "
        f"|G| = {len(worst)}, guaranteed n (sample space) = {guaranteed}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
