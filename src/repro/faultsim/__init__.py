"""Fault simulation engines and detection tables.

``detection``
    Detection tables: ``T(f)`` for every fault over a vector universe,
    stored as packed ``uint64`` words (built by the PPSFP kernel).
``sampling``
    Vector universes (exhaustive or sampled) with the bit-index ↔
    vector mapping and the Monte-Carlo count estimators.
``backends``
    Pluggable table-construction strategies: ``TableBackend`` (the
    ``exhaustive`` and ``sampled`` engines; sampling breaks the
    24-input cap) and the independent ``serial`` engine.
``serial``
    Per-vector serial fault simulation (independent slow path used for
    cross-validation and for simulating explicit test sets).
``threeval_detect``
    3-valued detection checks of partially-specified vectors (the ``tij``
    tests of Definition 2), scalar and batched.
``dictionary``
    Fault dictionaries over explicit test sets: pass/fail diagnosis and
    diagnostic-resolution metrics.
"""

from repro.faultsim.detection import DetectionTable
from repro.faultsim.sampling import (
    CountEstimate,
    VectorUniverse,
    count_interval,
    draw_universe,
    estimate_count,
    estimate_nmin,
)
from repro.faultsim.backends import (
    BACKEND_NAMES,
    DetectionBackend,
    SerialBackend,
    TableBackend,
    make_backend,
)
from repro.faultsim.serial import (
    detects_stuck_at,
    detects_bridging,
    test_set_coverage,
)
from repro.faultsim.threeval_detect import (
    cube_detects_stuck_at,
    pair_checks_batch,
)
from repro.faultsim.dictionary import FaultDictionary

__all__ = [
    "DetectionTable",
    "CountEstimate",
    "VectorUniverse",
    "count_interval",
    "draw_universe",
    "estimate_count",
    "estimate_nmin",
    "BACKEND_NAMES",
    "DetectionBackend",
    "SerialBackend",
    "TableBackend",
    "make_backend",
    "detects_stuck_at",
    "detects_bridging",
    "test_set_coverage",
    "cube_detects_stuck_at",
    "pair_checks_batch",
    "FaultDictionary",
]
