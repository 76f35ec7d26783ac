"""The picklable unit of parallel work: one fault shard, one process.

A :class:`ShardTask` carries everything a worker process needs to
rebuild one shard of a detection table — the circuit, the *base* backend
(exhaustive / sampled / serial, a small frozen dataclass) and the fault
slice, a slice of the build's fault array (pickled as lists of ints, so
the restricted unpickler of tcp frames needs no numpy global).  It
carries no fault-free values: the worker's build simulates them from
the universe the backend names, so a task's size does not grow with the
universe.  :func:`run_shard` is a module-level function (picklable by
reference under any multiprocessing start method) that executes the
task by delegating to the base backend's own ``build_*`` method, so a
sharded build runs *exactly* the single-process code path on each slice.

Workers always build with ``drop_undetectable=False`` and return raw
little-endian word bytes, which executors and the cache carry opaquely;
the merge decodes them and applies the drop once, which is precisely
what the single-process build does — one source of the bit-for-bit
identity guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.logic.packed import WORD_BITS, words_for

if TYPE_CHECKING:
    from repro.faults.arrays import FaultArray
    from repro.faultsim.backends import DetectionBackend

_KINDS = ("stuck_at", "bridging")


@dataclass(frozen=True)
class ShardTask:
    """Self-contained spec of one shard build (fully picklable).

    Attributes
    ----------
    circuit:
        The analyzed circuit.
    backend:
        The *base* detection backend (never a
        :class:`~repro.parallel.backend.ParallelBackend` — nesting is
        rejected at construction time there).
    kind:
        ``"stuck_at"`` or ``"bridging"`` — which table family to build.
    faults:
        The shard's slice of the build's fault array, in table order
        (the worker simulates the fault-free base words itself).
    shard_index:
        Position of this shard in the plan (merge order).
    trace:
        Optional ``(trace_id, parent_span_id)`` propagation context from
        the submitting build's span.  Rides inside the pickle through
        pools and broker frames, so a worker on any host stitches its
        shard span into the submitter's trace.  Excluded from equality
        (and absent from the content-addressed shard key), so tracing
        never changes what counts as the same shard.
    """

    circuit: Circuit
    backend: DetectionBackend
    kind: str
    faults: FaultArray[Any]
    shard_index: int
    trace: tuple[str, str] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise AnalysisError(
                f"shard kind must be one of {_KINDS}, got {self.kind!r}"
            )


def payload_size(num_faults: int, universe_size: int) -> int:
    """Byte length of the payload of a ``num_faults``-row shard."""
    return num_faults * words_for(universe_size) * (WORD_BITS // 8)


def run_shard(task: ShardTask) -> tuple[int, bytes]:
    """Build one shard's rows via the base backend's own engine.

    Returns ``(shard_index, words)`` — ``words`` the table's packed rows
    as little-endian ``uint64`` bytes — so out-of-order completion can
    be reassembled deterministically.

    The build runs under a ``shard_build`` span stitched to the
    submitter's trace context when the task carries one.  The span id
    is ``<parent>.s<shard_index>`` — derived, not counted — so
    concurrent workers across processes never collide.
    """
    build = (
        task.backend.build_stuck_at
        if task.kind == "stuck_at"
        else task.backend.build_bridging
    )
    trace = task.trace
    span_id = f"{trace[1]}.s{task.shard_index}" if trace is not None else None
    clock = obs.system_clock()
    started = clock.monotonic()
    with obs.span(
        "shard_build",
        parent=trace,
        span_id=span_id,
        shard=task.shard_index,
        kind=task.kind,
        faults=len(task.faults),
        backend=getattr(task.backend, "name", "?"),
    ):
        table = build(
            task.circuit, faults=task.faults, drop_undetectable=False
        )
    obs.metrics().histogram(
        "repro_shard_build_seconds",
        help="Wall time spent building one fault shard",
        kind=task.kind,
    ).observe(clock.monotonic() - started)
    words = table.packed.words.astype("<u8", copy=False)
    return task.shard_index, words.tobytes()
