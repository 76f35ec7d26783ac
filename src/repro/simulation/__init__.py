"""Logic simulation engines.

Four engines, one value representation each:

``twoval``
    Bit-parallel 2-valued simulation of arbitrary vector batches (one
    lane per vector, packed into Python ints).
``exhaustive``
    Full-input-space simulation: one *signature* per line with bit ``v``
    holding the line's fault-free value under input vector ``v``.  This
    is the substrate of the paper's exhaustive analysis over ``U``.
``ppsfp``
    The word-parallel fault-simulation kernel: batches of faults over
    ``uint64`` word blocks of any vector universe.  It builds every
    detection table.
``threeval``
    3-valued (0/1/X) simulation of partially-specified vectors, both
    scalar and batched (dual-rail lane words).  Required by Definition 2."""

from repro.simulation.twoval import (
    output_values,
    simulate_batch,
    simulate_vector,
)
from repro.simulation.exhaustive import (
    line_signatures,
    output_response_signatures,
)
from repro.simulation.threeval import (
    simulate_cube,
    simulate_cubes_dualrail,
)

__all__ = [
    "output_values",
    "simulate_batch",
    "simulate_vector",
    "line_signatures",
    "output_response_signatures",
    "simulate_cube",
    "simulate_cubes_dualrail",
]
