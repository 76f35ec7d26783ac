"""Outside-in layer spans: time the program's public functions from here.

:func:`install` replaces selected public functions and methods of the
``repro`` modules with timing wrappers, so a traced run attributes each
op's time to the layer that spent it without any tracing inside
``src/``.  Spans nest by layer: only the outermost call of a layer on a
thread is timed, so a backend delegating to another backend is counted
once.  Spans recorded while a thread is inside :meth:`Recorder.op` add
to that op; all outermost calls also land in :attr:`Recorder.calls`.
Ops and calls carry their ``time.monotonic()`` start, a clock shared by
every process of the machine, so another process can cut a dump down to
its own timed phase (:func:`window`).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Iterator

Counter = Callable[[tuple[Any, ...], dict[str, Any], Any], dict[str, float]]


class Recorder:
    """Per-op layer totals (ms) and work counts, kept in memory.

    ``ops`` holds one dict per op: its layer totals and counts plus the
    op's ``"start"``; ``calls`` holds ``[start, ms]`` per outermost call.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.ops: list[dict[str, float]] = []
        self.calls: dict[str, list[list[float]]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)

    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "depth"):
            local.depth = defaultdict(int)
            local.current = None
        return local

    @contextmanager
    def op(self) -> Iterator[None]:
        """Attribute this thread's spans to one op (nested ops join it)."""
        local = self._state()
        if local.current is not None:
            yield
            return
        current: dict[str, float] = defaultdict(float)
        current["start"] = time.monotonic()
        local.current = current
        try:
            yield
        finally:
            local.current = None
            with self._lock:
                self.ops.append(dict(current))

    def record(
        self, layer: str, start: float, ms: float, counts: dict[str, float]
    ) -> None:
        current = self._state().current
        with self._lock:
            self.calls[layer].append([start, ms])
            for key, value in counts.items():
                self.counts[key] += value
            if current is not None:
                current[layer] += ms
                for key, value in counts.items():
                    current[key] += value

    def dump(self) -> dict[str, Any]:
        with self._lock:
            return {
                "ops": list(self.ops),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }


def window(dump: dict[str, Any], start: float, end: float) -> dict[str, Any]:
    """The ops and calls of ``dump`` that started within ``[start, end)``.

    Counts are dropped: they are totals without a start.
    """
    return {
        "ops": [op for op in dump["ops"] if start <= op["start"] < end],
        "calls": {
            layer: [c for c in calls if start <= c[0] < end]
            for layer, calls in dump["calls"].items()
        },
        "counts": {},
    }


def _wrap(
    recorder: Recorder,
    fn: Callable[..., Any],
    layer: str,
    count: Counter | None,
    boundary: bool,
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        # Forked pool children inherit the wrappers; they record nothing
        # (and never touch a lock another thread held at fork time).
        if os.getpid() != recorder.pid:
            return fn(*args, **kwargs)
        depth = recorder._state().depth
        if depth[layer]:
            return fn(*args, **kwargs)
        depth[layer] += 1
        try:
            with recorder.op() if boundary else nullcontext():
                stamp = time.monotonic()
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                ms = (time.perf_counter() - start) * 1000.0
                counts = count(args, kwargs, result) if count else {}
                recorder.record(layer, stamp, ms, counts)
        finally:
            depth[layer] -= 1
        return result

    wrapper.__perfbench_wrapped__ = True  # type: ignore[attr-defined]
    return wrapper


def _fault_count(args: Any, kwargs: Any, result: Any) -> dict[str, float]:
    return {"faults.count": len(result)}


def _built_faults(args: Any, kwargs: Any, result: Any) -> dict[str, float]:
    faults = kwargs.get("faults")
    return {"faultsim.faults": len(faults if faults is not None else result)}


def _records(args: Any, kwargs: Any, result: Any) -> dict[str, float]:
    return {"worst_case.records": len(args[0].records)}


def _adaptive_report(args: Any, kwargs: Any, result: Any) -> dict[str, float]:
    return {
        "adaptive.rounds": len(result.rounds),
        "adaptive.final_samples": result.total_vectors,
    }


#: The backends the workloads run: exhaustive (``worst_suite``), the
#: adaptive controller's fixed universes (``adaptive_wide``) and the
#: service's ``--jobs`` wrapper (``serve_mix``).
_BACKENDS = (
    "repro.faultsim.backends.ExhaustiveBackend",
    "repro.faultsim.backends.FixedUniverseBackend",
    "repro.parallel.backend.ParallelBackend",
)

#: ``(target, layer, counter, op boundary)``; a target is a module
#: function or a ``Class.method`` path.  Layers named here but not
#: reported as metrics (``cli.escape_render``, ``adaptive.sampler``)
#: exist for their op boundary or their counts.
TARGETS: tuple[tuple[str, str, Counter | None, bool], ...] = (
    ("repro.bench_suite.registry.get_circuit", "bench_suite.load", None, False),
    ("repro.faults.stuck_at.collapsed_stuck_at_faults", "faults.enum",
     _fault_count, False),
    ("repro.faults.bridging.four_way_bridging_faults", "faults.enum",
     _fault_count, False),
    *(
        (f"{cls}.{method}", "faultsim.build",
         None if method == "line_signatures" else _built_faults, False)
        for cls in _BACKENDS
        for method in ("line_signatures", "build_stuck_at", "build_bridging")
    ),
    ("repro.core.worst_case.WorstCaseAnalysis.__init__", "worst_case.scan",
     _records, False),
    ("repro.core.worst_case.WorstCaseAnalysis.estimated_guaranteed_n",
     "worst_case.estimate", None, False),
    ("repro.core.worst_case.WorstCaseAnalysis.estimated_nmin_values",
     "worst_case.estimate", None, False),
    ("repro.adaptive.backend.AdaptiveBackend.build_stuck_at", "adaptive.run",
     None, False),
    ("repro.adaptive.backend.AdaptiveBackend.build_bridging", "adaptive.run",
     None, False),
    ("repro.adaptive.backend.AdaptiveBackend.report_for", "adaptive.run",
     None, False),
    ("repro.adaptive.controller.AdaptiveSampler.run", "adaptive.sampler",
     _adaptive_report, False),
    ("repro.core.procedure1.build_random_ndetection_sets", "procedure1",
     None, False),
    ("repro.core.average_case.AverageCaseAnalysis.__init__", "escape",
     None, False),
    ("repro.core.escape.EscapeAnalysis.render", "escape", None, False),
    ("repro.cli.analyze_report", "cli.render", None, True),
    ("repro.cli.escape_report", "cli.escape_render", None, True),
)


def _resolve(target: str) -> tuple[Any, str]:
    """``(owner, attribute)`` of a dotted function or method path."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:split])
        try:
            owner: Any = importlib.import_module(module_name)
        except ModuleNotFoundError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ModuleNotFoundError(target)


def install(recorder: Recorder) -> None:
    """Wrap every target to record into ``recorder``.

    Module-level functions are also rebound wherever an already-imported
    ``repro`` module holds them under the same name (``from x import f``
    copies), so every caller reaches the wrapper.
    """
    for target, layer, count, boundary in TARGETS:
        owner, name = _resolve(target)
        original = owner.__dict__[name]
        if getattr(original, "__perfbench_wrapped__", False):
            continue
        wrapped = _wrap(recorder, original, layer, count, boundary)
        setattr(owner, name, wrapped)
        if isinstance(owner, type):
            continue
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and module is not owner:
                if module.__dict__.get(name) is original:
                    setattr(module, name, wrapped)
