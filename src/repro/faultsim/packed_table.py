"""Detection tables that always carry a numpy-packed signature matrix.

Every kernel-built :class:`~repro.faultsim.detection.DetectionTable`
already keeps the PPSFP kernel's words in ``packed`` and answers the
popcount queries and the worst-case ``nmin`` scan from them.  A
:class:`PackedDetectionTable` adds one guarantee: ``packed`` is never
``None``.  Tables built from big-int rows (the cone path for universes
too wide for the kernel, or the sharded merge of
:class:`~repro.parallel.ParallelBackend`) pack those rows on
construction, so the scan can cache its sorted matrix on the table.
The bits are identical either way.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuit.netlist import Circuit
from repro.faultsim.detection import DetectionTable, Fault
from repro.faultsim.sampling import VectorUniverse
from repro.logic.packed import PackedSignatureMatrix


class PackedDetectionTable(DetectionTable):
    """A :class:`DetectionTable` whose signatures are always numpy-packed.

    ``packed`` is derived from ``signatures`` when not supplied;
    supplying both (e.g. after :meth:`PackedSignatureMatrix.take`) must
    keep them bit-identical — the invariant every vectorized query
    relies on.
    """

    packed: PackedSignatureMatrix

    def __init__(
        self,
        circuit: Circuit,
        faults: Sequence[Fault],
        signatures: list[int] | None = None,
        universe: VectorUniverse | None = None,
        packed: PackedSignatureMatrix | None = None,
    ) -> None:
        super().__init__(circuit, faults, signatures, universe, packed)
        if self.packed is None:
            self.packed = PackedSignatureMatrix.from_bigints(
                self.signatures, self.universe.size
            )

    @classmethod
    def from_table(cls, table: DetectionTable) -> "PackedDetectionTable":
        """Pack an existing table (same faults, signatures, universe)."""
        if isinstance(table, PackedDetectionTable):
            return table
        return cls(
            table.circuit,
            table.faults,
            None if table.packed is not None else list(table.signatures),
            table.universe,
            table.packed,
        )
