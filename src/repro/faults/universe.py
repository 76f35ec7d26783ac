"""The combined fault universe of one analysis run.

:class:`FaultUniverse` bundles a circuit with the paper's two fault sets
and their detection tables:

* ``F`` — collapsed single stuck-at faults (targets of n-detection test
  generation), undetectable members kept (they never constrain a test
  set, matching the paper);
* ``G`` — detectable non-feedback four-way bridging faults between
  outputs of multi-input gates (the untargeted faults the analysis
  evaluates).

Tables are built by a pluggable
:class:`~repro.faultsim.backends.DetectionBackend` (default: the exact
exhaustive engine; pass a
:class:`~repro.faultsim.backends.TableBackend` with ``samples=K`` to
analyze circuits beyond the exhaustive input cap, or an
:class:`~repro.adaptive.AdaptiveBackend` to let a stopping rule pick
the sample size — both tables then come from the same adaptive run).
Sharding is the backend's business: pass an already-wrapped
``ParallelBackend(base, executor=...)`` (or ``maybe_parallel(base,
executor)``) and both table builds run on that executor — the result
is bit-for-bit identical, only faster.
The universe also owns the paper's worst-case analysis of ``G``
against ``F`` (:attr:`FaultUniverse.worst_case`), so every front end
builds, caches and renders one value.  Everything is built lazily and
cached, so experiments can share one universe per circuit.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from repro.circuit.netlist import Circuit
from repro.faults.bridging import BridgingFaults, four_way_bridging_faults
from repro.faults.stuck_at import StuckAtFaults, collapsed_stuck_at_faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see below)
    from repro.core.worst_case import WorstCaseAnalysis
    from repro.faultsim.backends import DetectionBackend
    from repro.faultsim.detection import DetectionTable

# NOTE: repro.faultsim imports the fault dataclasses from this package,
# so every repro.faultsim (and repro.core) import happens lazily inside
# the cached properties to avoid a circular import at package load time.


class FaultUniverse:
    """Targets ``F``, untargeted ``G``, and their detection tables."""

    def __init__(
        self, circuit: Circuit, backend: "DetectionBackend | None" = None
    ) -> None:
        self.circuit = circuit
        self._backend = backend

    @cached_property
    def backend(self) -> "DetectionBackend":
        """The table-construction engine (default: exhaustive)."""
        if self._backend is not None:
            return self._backend
        from repro.faultsim.backends import TableBackend

        return TableBackend()

    @cached_property
    def target_faults(self) -> StuckAtFaults:
        """``F`` — the collapsed stuck-at fault list."""
        return collapsed_stuck_at_faults(self.circuit)

    @cached_property
    def untargeted_faults(self) -> BridgingFaults:
        """Raw four-way bridging universe (before detectability filter)."""
        return four_way_bridging_faults(self.circuit)

    @cached_property
    def target_table(self) -> "DetectionTable":
        """Detection table for ``F``."""
        return self.backend.build_stuck_at(
            self.circuit, faults=self.target_faults
        )

    @cached_property
    def untargeted_table(self) -> "DetectionTable":
        """Detection table for ``G`` (detectable bridging faults only)."""
        return self.backend.build_bridging(
            self.circuit,
            faults=self.untargeted_faults,
            drop_undetectable=True,
        )

    @cached_property
    def worst_case(self) -> "WorstCaseAnalysis":
        """The ``nmin`` analysis of ``G`` against ``F`` (Section 2)."""
        from repro.core.worst_case import WorstCaseAnalysis

        return WorstCaseAnalysis(self.target_table, self.untargeted_table)

    def summary(self) -> dict[str, int]:
        """Size summary for reports: circuit stats plus fault counts."""
        info = dict(self.circuit.stats())
        info["target_faults"] = len(self.target_faults)
        info["untargeted_faults"] = len(self.untargeted_table)
        return info
