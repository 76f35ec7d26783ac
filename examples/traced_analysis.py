"""End-to-end tracing of an analysis run, from spans to summary.

Every layer of the pipeline is instrumented with spans — table builds,
PPSFP kernel batches, executor shards, adaptive rounds — but the
instrumentation is dormant by default: with no tracer active each call
site costs a shared no-op context manager (the overhead benchmark pins
this under 2% of a build).  Activating a tracer turns the same run
into a JSONL trace file whose records reassemble into one span tree,
even when several processes (pool workers, a ``repro worker`` fleet)
append to it concurrently.

This example runs a parallel analysis under a programmatic tracer,
then consumes its own trace: the span tree, the per-name aggregates,
the critical path, and the coverage figure (how much of the run's wall
time is attributed to named child spans).

Equivalent CLI invocations:

    repro --trace run.jsonl analyze wide28 --backend sampled \
        --samples 512 --seed 7 --executor pool --jobs 4
    repro trace summary run.jsonl
    repro trace tree run.jsonl

Run:  python examples/traced_analysis.py
"""

import tempfile
from pathlib import Path

from repro import obs
from repro.bench_suite.registry import get_circuit
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import TableBackend
from repro.obs.summary import (
    load_trace,
    render_summary,
    render_tree,
    summarize,
)
from repro.parallel import ParallelBackend, PoolExecutor

CIRCUIT = "wide28"
SAMPLES = 512
JOBS = 4


def main() -> int:
    circuit = get_circuit(CIRCUIT)
    # The one execution setting: the executor the shards run on.
    backend = ParallelBackend(
        TableBackend(samples=SAMPLES, seed=7),
        executor=PoolExecutor(jobs=JOBS),
        use_cache=False,
    )

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "run.jsonl"

        # Activate a tracer for the duration of the run.  The CLI's
        # ``--trace run.jsonl`` flag does exactly this around the
        # selected command; obs.reset restores the previous (no-op)
        # tracer so instrumentation goes back to costing nothing, and
        # only then is the writer closed (a closed writer stays closed).
        tracer = obs.Tracer(obs.JsonlTraceWriter(str(trace_path)))
        previous = obs.activate(tracer)
        try:
            with obs.span("analyze", circuit=CIRCUIT, samples=SAMPLES):
                universe = FaultUniverse(circuit, backend=backend)
                universe.target_table
                universe.untargeted_table
        finally:
            obs.reset(previous)
            tracer.close()

        # The trace file is plain JSONL: one record per finished span
        # or event, reassembled by content (span ids), not file order.
        nodes = load_trace(str(trace_path))
        print(f"trace: {len(nodes)} spans in {trace_path.name}\n")

        summary = summarize(nodes)
        print(render_summary(summary))
        print()
        print(render_tree(summary))

        # Pool shards run in subprocesses, so the trace spans more
        # than one process, stitched by the (trace_id, span_id) tuple
        # each pickled shard task carries.
        assert len(summary.procs) > 1, "expected multi-process trace"
        # Most of the run's wall time lands in named child spans; the
        # remainder is uninstrumented setup (fault enumeration and
        # collapsing) charged to the root's self time.
        assert summary.coverage >= 0.8, (
            f"span coverage only {summary.coverage:.1%}"
        )
        print(
            f"\n{len(summary.procs)} processes contributed spans; "
            f"{summary.coverage:.1%} of the run's wall time is "
            f"attributed to named child spans"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
