"""Applying the analysis to large designs via cone partitioning (Section 4).

The exhaustive analysis needs the detection set of every fault over the
complete input space, which is only practical for circuits with small
input counts.  Section 4 of the paper proposes partitioning a larger
circuit into sub-circuits and analyzing each one.  Here a circuit is
split into output-cone groups of bounded input support
(:func:`repro.circuit.transform.output_partitions`); the worst-case
analysis runs per cone and the results are merged.

Semantics of the merged result: a cone analysis treats the cone's inputs
as free, so the per-cone ``nmin`` is computed over the cone's own input
space.  A fault inside a cone is guaranteed detected by any n-detection
test set *of that cone* when ``n >= nmin``.  Faults whose lines span two
cones (e.g. bridges between cones) are outside the partitioned model and
reported as uncovered — the method trades completeness for scalability,
as the paper notes.

Partitioning alone used to hit a hard wall whenever a single output
depended on more than ``max_inputs`` inputs.  Passing ``backend=`` (a
sampled backend) removes the wall: cones within the
bound keep the exact exhaustive analysis, and each too-wide output
becomes its own cone analyzed over that backend's sampled universe —
its ``nmin`` values are Monte-Carlo sample-space results rather than
exact ones, flagged by ``cone.worst_case.universe.exact``.

Passing an :class:`~repro.adaptive.AdaptiveBackend` gives *per-cone
adaptive K*: every wide cone runs its own growth loop against the
shared stopping rule, so an easy cone stops at a small draw while a
hard one keeps sampling — no single ``--samples`` value has to fit all
cones (``repro partition wide28 --backend adaptive`` reports each
cone's chosen ``K``).

Passing ``executor=`` (one :class:`~repro.parallel.ShardExecutor`, or
None for single-process builds) shards every cone's table builds on
it; like every execution setting it changes where shards run, never a
number.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.circuit.netlist import Circuit
from repro.circuit.transform import output_partitions
from repro.faults.universe import FaultUniverse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faultsim.backends import DetectionBackend
    from repro.parallel.executors import ShardExecutor


class PartitionedAnalysis:
    """Worst-case analysis of a large circuit, cone by cone.

    Parameters
    ----------
    circuit:
        Any normal-form circuit.
    max_inputs:
        Bound on each cone's input support (the per-cone analysis cost is
        ``O(2**max_inputs)`` bits per signature).
    backend:
        Optional sampled backend for cones *wider* than
        ``max_inputs``.  Without it a too-wide output raises (the
        legacy behavior); with it the wide cone is analyzed over the
        backend's sampled universe instead of being skipped.  Cones
        within the bound always use the exact exhaustive engine.
    executor:
        Optional :class:`repro.parallel.ShardExecutor` every cone's
        table builds run on (inline / pool / tcp, through
        :func:`repro.parallel.maybe_parallel`); orthogonal to
        ``backend`` — it changes where the shards run, never results.
    """

    def __init__(
        self,
        circuit: Circuit,
        max_inputs: int = 16,
        backend: "DetectionBackend | None" = None,
        executor: "ShardExecutor | None" = None,
    ):
        from repro.faultsim.backends import TableBackend
        from repro.parallel import maybe_parallel

        self.circuit = circuit
        #: One analyzed universe per cone: ``cone.circuit`` is the
        #: sub-circuit, ``cone.worst_case`` its analysis.
        self.cones: list[FaultUniverse] = []
        subs = output_partitions(
            circuit, max_inputs, allow_wide=backend is not None
        )
        for sub in subs:
            cone_backend = (
                backend
                if backend is not None and sub.num_inputs > max_inputs
                else TableBackend()
            )
            universe = FaultUniverse(
                sub, backend=maybe_parallel(cone_backend, executor)
            )
            if len(universe.untargeted_table) == 0:
                continue  # no bridging sites inside this cone
            self.cones.append(universe)
        # Bridging pairs of the full circuit vs. those covered by cones.
        full_universe = FaultUniverse(circuit)
        self.total_pairs = len(full_universe.untargeted_faults) // 4
        self.covered_pairs = sum(
            len(c.untargeted_faults) // 4 for c in self.cones
        )

    @property
    def coverage_of_fault_sites(self) -> float:
        """Fraction of the circuit's bridging pairs analyzable in cones."""
        if self.total_pairs == 0:
            return 1.0
        return min(1.0, self.covered_pairs / self.total_pairs)

    def fraction_within(self, n: int) -> float:
        """Fraction of analyzed faults guaranteed detected at ``n``."""
        total = sum(len(c.worst_case) for c in self.cones)
        if total == 0:
            return 1.0
        within = sum(c.worst_case.count_within(n) for c in self.cones)
        return within / total

    def guaranteed_n(self) -> int | None:
        """Largest per-cone guaranteed ``n`` (None when any cone has none)."""
        worst = 0
        for cone in self.cones:
            g = cone.worst_case.guaranteed_n()
            if g is None:
                return None
            worst = max(worst, g)
        return worst

    def summary(self) -> dict[str, float | int]:
        return {
            "cones": len(self.cones),
            "analyzed_faults": sum(len(c.worst_case) for c in self.cones),
            "site_coverage": round(self.coverage_of_fault_sites, 4),
            "guaranteed_n": self.guaranteed_n() or -1,
        }
