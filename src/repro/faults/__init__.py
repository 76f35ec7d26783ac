"""Fault models: single stuck-at (targets) and four-way bridging (untargeted).

The paper's target fault set ``F`` is the collapsed single stuck-at fault
set; the untargeted set ``G`` is the set of detectable, non-feedback
four-way bridging faults between outputs of multi-input gates.  Both
universes are generated here, each as its model's
:class:`~repro.faults.arrays.FaultArray` (one numpy column per fault
field); detection sets are computed by :mod:`repro.faultsim`.
"""

from repro.faults.arrays import FaultArray
from repro.faults.stuck_at import (
    StuckAtFault,
    StuckAtFaults,
    all_stuck_at_faults,
    collapsed_stuck_at_faults,
    dominance_collapsed_faults,
    equivalence_classes,
)
from repro.faults.bridging import (
    BridgingFault,
    BridgingFaults,
    bridging_pair_sites,
    four_way_bridging_faults,
)
from repro.faults.cell_aware import (
    GateExhaustiveFault,
    GateExhaustiveFaults,
    gate_exhaustive_faults,
    gate_exhaustive_table,
)
from repro.faults.universe import FaultUniverse

__all__ = [
    "FaultArray",
    "StuckAtFault",
    "StuckAtFaults",
    "all_stuck_at_faults",
    "collapsed_stuck_at_faults",
    "dominance_collapsed_faults",
    "equivalence_classes",
    "BridgingFault",
    "BridgingFaults",
    "bridging_pair_sites",
    "four_way_bridging_faults",
    "GateExhaustiveFault",
    "GateExhaustiveFaults",
    "gate_exhaustive_faults",
    "gate_exhaustive_table",
    "FaultUniverse",
]
