"""Detection tables backed by a numpy-packed signature matrix.

A :class:`PackedDetectionTable` is a drop-in
:class:`~repro.faultsim.detection.DetectionTable`: it keeps the big-int
signature list (so every existing consumer — set-cover greedy passes,
Procedure 1, the escape analysis — keeps working unchanged) and carries
the same bits as a :class:`~repro.logic.packed.PackedSignatureMatrix`,
which the popcount-heavy queries dispatch to.  The worst-case ``nmin``
scan is the same for every table; it uses this matrix (and keeps its
sorted copy on the table) instead of packing the big-int rows.  ``for_stuck_at``/``for_bridging`` are inherited: the
shared builder hands this class the PPSFP kernel's packed matrix
through the :meth:`PackedDetectionTable._assemble` hook, so a
kernel-built table is *born packed*, with no bigint→packed conversion.
Cone-path tables (universes too wide for the kernel) pack their
big-int rows in ``__post_init__``; either way the bits are identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.netlist import Circuit
from repro.errors import FaultError
from repro.faultsim.detection import DetectionTable, Fault
from repro.faultsim.sampling import VectorUniverse
from repro.logic.packed import _np, PackedSignatureMatrix, pack_signature


@dataclass
class PackedDetectionTable(DetectionTable):
    """A :class:`DetectionTable` whose signatures are also numpy-packed.

    ``packed`` is derived from ``signatures`` when not supplied;
    supplying both (e.g. after :meth:`PackedSignatureMatrix.take`) must
    keep them bit-identical — the invariant every vectorized query
    relies on.
    """

    packed: PackedSignatureMatrix | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.packed is None:
            self.packed = PackedSignatureMatrix.from_bigints(
                self.signatures, self.universe.size
            )
        else:
            if len(self.packed) != len(self.signatures):
                raise FaultError(
                    "packed matrix and signatures length mismatch"
                )
            if self.packed.size != self.universe.size:
                raise FaultError(
                    "packed matrix and universe disagree on the bit size"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def _assemble(
        cls,
        circuit: Circuit,
        faults: list[Fault],
        signatures: list[int],
        universe: VectorUniverse,
        matrix: PackedSignatureMatrix | None,
        kept: list[int] | None,
    ) -> "PackedDetectionTable":
        """Keep the kernel's words: the table is born packed.

        Cone-path rows (``matrix`` is None) are packed by
        ``__post_init__`` instead.
        """
        if matrix is not None and kept is not None:
            matrix = matrix.take(kept)
        return cls(circuit, faults, signatures, universe, packed=matrix)

    @classmethod
    def from_table(cls, table: DetectionTable) -> "PackedDetectionTable":
        """Pack an existing table (same faults, signatures, universe)."""
        if isinstance(table, PackedDetectionTable):
            return table
        return cls(
            table.circuit,
            list(table.faults),
            list(table.signatures),
            table.universe,
        )

    # ------------------------------------------------------------------
    # Vectorized overrides of the popcount-heavy queries
    # ------------------------------------------------------------------
    def counts(self) -> list[int]:
        return [int(c) for c in self.packed.popcount_rows()]

    def num_detectable(self) -> int:
        return int((self.packed.popcount_rows() > 0).sum())

    def detectable_indices(self) -> list[int]:
        hits = _np.nonzero(self.packed.popcount_rows() > 0)[0]
        return [int(i) for i in hits]

    def detected_by(self, test_signature: int) -> list[int]:
        row = pack_signature(test_signature, self.universe.size)
        hits = _np.nonzero(self.packed.and_popcount(row) > 0)[0]
        return [int(i) for i in hits]

    def detection_counts(self, test_signature: int) -> list[int]:
        row = pack_signature(test_signature, self.universe.size)
        return [int(c) for c in self.packed.and_popcount(row)]

    def coverage(self, test_signature: int) -> float:
        detectable = self.packed.popcount_rows() > 0
        total = int(detectable.sum())
        if total == 0:
            return 1.0
        row = pack_signature(test_signature, self.universe.size)
        hit = int((detectable & (self.packed.and_popcount(row) > 0)).sum())
        return hit / total
