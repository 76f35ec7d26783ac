"""Straggler-proof fleet analysis through the TCP broker.

Distributed builds raise two questions: how workers on many hosts get
work without a shared filesystem, and how to keep a single slow
machine holding the last shard from setting the makespan for the whole
fleet.  The TCP transport answers both — workers connect to a broker
over a socket, are push-dispatched work the moment it exists, a worker
killed mid-shard just drops its connection (the broker requeues the
shard, with bounded retries), and when a worker goes idle while a
colleague's lease goes stale, the broker *steals* the shard: it
duplicates it to the idle worker, first completion wins, and the late
completion is a cache hit rather than a conflict (shard results are a
pure function of their content-addressed key).

This example analyzes a >24-input circuit with the sampled backend
three ways — inline, then through a heterogeneous
two-worker fleet with stealing off and on.  The straggler worker is
slowed by ``REPRO_STEAL_DELAY`` seconds per build (the same hook the
tests and CI use); with stealing on, the healthy worker rescues the
straggler's shard and the makespan collapses.

Equivalent CLI invocations:

    repro broker --port 8766 &                 # one coordinator
    repro worker --broker host:8766 &          # on any number of hosts
    repro analyze wide28 --backend sampled --samples 1024 --seed 7 \
        --executor tcp --broker host:8766
    repro queue stats --broker host:8766

Run:  python examples/fleet_analysis.py
"""

import threading
import time

from repro.bench_suite.registry import get_circuit
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import TableBackend
from repro.parallel import ParallelBackend
from repro.parallel.netqueue import (
    BackgroundBroker,
    Broker,
    TcpExecutor,
    TcpWorker,
)

CIRCUIT = "wide28"
SAMPLES = 1024
STRAGGLER_DELAY = 1.0  # seconds added to the straggler's every build
SHARDS = 4


def build(circuit, backend):
    start = time.perf_counter()
    universe = FaultUniverse(circuit, backend=backend)
    tables = universe.target_table, universe.untargeted_table
    return time.perf_counter() - start, tables


def fleet_build(circuit, base, steal: bool):
    """One build against a fresh broker + straggler/healthy fleet."""
    with BackgroundBroker(Broker(steal=steal, steal_after=0.2)) as broker:
        # Ids sort straggler-first, so it gets the first shard of every
        # submit — the worst case the scheduler has to rescue.
        fleet = [
            TcpWorker(
                broker=broker.address,
                worker_id="a-straggler",
                build_delay=STRAGGLER_DELAY,
                use_cache=False,
            ),
            TcpWorker(
                broker=broker.address,
                worker_id="b-healthy",
                use_cache=False,
            ),
        ]
        threads = [
            threading.Thread(
                target=lambda w=w: w.serve(idle_exit=10.0), daemon=True
            )
            for w in fleet
        ]
        for thread in threads:
            thread.start()
        backend = ParallelBackend(
            base=base,
            shards=SHARDS,
            use_cache=False,  # measure real distributed construction
            executor=TcpExecutor(broker=broker.address),
        )
        elapsed, tables = build(circuit, backend)
        counters = broker.stats()["counters"]
        for worker in fleet:
            worker.stop()
        for thread in threads:
            thread.join(timeout=30)
    return elapsed, tables, counters


def main() -> int:
    circuit = get_circuit(CIRCUIT)
    print(
        f"{CIRCUIT}: {circuit.num_inputs} inputs "
        f"(|U| = 2**{circuit.num_inputs}), sampling K={SAMPLES} vectors;"
        f" fleet = 1 healthy worker + 1 straggler "
        f"(+{STRAGGLER_DELAY:.0f}s per build)"
    )

    base = TableBackend(samples=SAMPLES, seed=7)
    inline_time, (inline_f, inline_g) = build(circuit, base)
    print(f"\ninline build:          {inline_time * 1e3:7.1f} ms")

    off_time, (off_f, off_g), off_counters = fleet_build(
        circuit, base, steal=False
    )
    print(
        f"fleet, steal off:      {off_time * 1e3:7.1f} ms "
        f"(makespan set by the straggler)"
    )

    on_time, (on_f, on_g), on_counters = fleet_build(
        circuit, base, steal=True
    )
    print(
        f"fleet, steal on:       {on_time * 1e3:7.1f} ms "
        f"({on_counters['steals']} steal(s), "
        f"{on_counters['duplicates']} duplicate completion(s))"
    )
    print(
        f"\nsteal speedup: {off_time / on_time:.1f}x on this fleet "
        f"(steals={on_counters['steals']}, off-run steals="
        f"{off_counters['steals']})"
    )

    for label, (f_table, g_table) in (
        ("steal-off", (off_f, off_g)),
        ("steal-on", (on_f, on_g)),
    ):
        assert f_table.packed == inline_f.packed, label
        assert g_table.packed == inline_g.packed, label
        assert g_table.faults == inline_g.faults, label
    print(
        "\nfleet tables are bit-for-bit identical to the inline build,"
        "\nstolen shards included (first completion wins; a double"
        "\ncompletion is a content-addressed cache hit, not a conflict)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
