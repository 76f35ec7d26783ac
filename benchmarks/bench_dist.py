"""Straggler benchmark for the TCP queue transport.

``test_steal_rescues_straggler`` is the acceptance benchmark of the
work-stealing scheduler: it simulates a heterogeneous fleet — one
straggler worker whose every build is slowed by
``REPRO_BENCH_DIST_DELAY`` seconds (the ``REPRO_STEAL_DELAY`` hook,
driven here through ``TcpWorker(build_delay=...)``) next to a healthy
worker — and measures the makespan of the same sharded table build
twice against a live broker:

1. ``steal=off`` — the run can finish no sooner than the straggler
   releases its last shard; the makespan absorbs the full delay;
2. ``steal=on`` — once the straggler's lease goes stale the broker
   duplicates its shard to the idle healthy worker, whose completion
   wins; the makespan collapses to roughly the healthy build time.

Both runs must be bit-identical to the inline build (work stealing is
an idempotent duplication, not a fork), the steal run must record at
least one steal, and the off/on makespan ratio must clear
``REPRO_BENCH_MIN_STEAL_SPEEDUP`` (default 1.3; waived on single-core
runners, where wall-clock ratios are noise).  The numbers land in
``benchmarks/out/BENCH_dist.json`` so CI accumulates a distributed-
performance trajectory alongside ``BENCH_faultsim.json``.

Environment knobs (CI smoke uses the defaults):
``REPRO_BENCH_DIST_SHARDS`` (default 6) shards per table,
``REPRO_BENCH_DIST_DELAY`` (default 1.0) straggler seconds per build,
``REPRO_BENCH_MIN_STEAL_SPEEDUP`` (default 1.3) the soft floor.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from pathlib import Path

from conftest import env_int

OUT_PATH = Path(__file__).parent / "out" / "BENCH_dist.json"

SHARDS = env_int("REPRO_BENCH_DIST_SHARDS", 6)
DELAY = float(os.environ.get("REPRO_BENCH_DIST_DELAY") or 1.0)
MIN_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_STEAL_SPEEDUP") or 1.3
)


def _fleet_build(circuit, base, *, steal: bool) -> dict:
    """One sharded build against a fresh broker + two-worker fleet."""
    from repro.parallel import ParallelBackend
    from repro.parallel.netqueue import (
        BackgroundBroker,
        Broker,
        TcpExecutor,
        TcpWorker,
    )

    with BackgroundBroker(Broker(steal=steal, steal_after=0.1)) as broker:
        # Worker ids sort straggler-first so the broker's deterministic
        # idle ordering hands it the first shard of every submit.
        straggler = TcpWorker(
            broker=broker.address,
            worker_id="a-straggler",
            build_delay=DELAY,
            use_cache=False,
        )
        healthy = TcpWorker(
            broker=broker.address,
            worker_id="b-healthy",
            use_cache=False,
        )
        workers = [straggler, healthy]
        fleet_stats: dict[str, dict] = {}
        threads = [
            threading.Thread(
                target=lambda w=w: fleet_stats.update(
                    {w.worker_id: w.serve(idle_exit=10.0)}
                ),
                daemon=True,
            )
            for w in workers
        ]
        for thread in threads:
            thread.start()
        backend = ParallelBackend(
            base=base,
            shards=SHARDS,
            use_cache=False,
            executor=TcpExecutor(
                broker=broker.address, wait_timeout=600.0
            ),
        )
        from repro.faults.universe import FaultUniverse

        t0 = time.perf_counter()
        universe = FaultUniverse(circuit, backend=backend)
        packed = (
            universe.target_table.packed,
            universe.untargeted_table.packed,
        )
        makespan = time.perf_counter() - t0
        counters = broker.stats()["counters"]
        for worker in workers:
            worker.stop()
        for thread in threads:
            thread.join(timeout=30)
    return {
        "steal": steal,
        "makespan_s": makespan,
        "packed": packed,
        "counters": counters,
        "workers": fleet_stats,
    }


def test_steal_rescues_straggler(record_speedup):
    from repro.bench_suite.randlogic import random_circuit
    from repro.faults.universe import FaultUniverse
    from repro.faultsim.backends import TableBackend

    circuit = random_circuit(61, num_inputs=6, num_gates=14)
    base = TableBackend()
    inline = FaultUniverse(circuit, backend=base)
    expected = (
        inline.target_table.packed,
        inline.untargeted_table.packed,
    )

    off = _fleet_build(circuit, base, steal=False)
    on = _fleet_build(circuit, base, steal=True)

    # Correctness first: stealing duplicates work, it never forks it.
    assert off["packed"] == expected, (
        "steal=off fleet build diverged from the inline build"
    )
    assert on["packed"] == expected, (
        "steal=on fleet build diverged from the inline build"
    )
    assert off["counters"]["steals"] == 0
    assert on["counters"]["steals"] >= 1, (
        "the straggler was never stolen from "
        f"(counters: {on['counters']})"
    )

    speedup = off["makespan_s"] / on["makespan_s"]
    single_core = (os.cpu_count() or 1) < 2
    if not single_core:
        assert speedup >= MIN_SPEEDUP, (
            f"steal speedup {speedup:.2f}x is below the "
            f"{MIN_SPEEDUP}x floor (off {off['makespan_s']:.2f}s, "
            f"on {on['makespan_s']:.2f}s)"
        )

    entry = {
        "name": "dist_steal",
        "circuit": circuit.name,
        "shards_per_table": SHARDS,
        "straggler_delay_s": DELAY,
        "makespan_off_s": off["makespan_s"],
        "makespan_on_s": on["makespan_s"],
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "floor_waived_single_core": single_core,
        "steals": on["counters"]["steals"],
        "steal_completions": on["counters"]["steal_completions"],
        "duplicates": on["counters"]["duplicates"],
    }
    record_speedup(entry)

    payload = {
        "schema": 1,
        "created_unix": time.time(),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "straggler": entry,
        "runs": [
            {k: v for k, v in run.items() if k != "packed"}
            for run in (off, on)
        ],
    }
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(
        f"\n[artifact] {OUT_PATH}\n"
        f"straggler fleet ({circuit.name}, delay {DELAY:.1f}s): "
        f"steal off {off['makespan_s']:.2f}s -> "
        f"on {on['makespan_s']:.2f}s   "
        f"speedup {speedup:.2f}x   steals {on['counters']['steals']}\n"
    )
