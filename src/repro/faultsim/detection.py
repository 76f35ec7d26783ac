"""Detection tables: ``T(f)`` for every fault, over a vector universe.

The paper's analysis needs, for every fault ``h`` in ``F ∪ G``, the set
``T(h) ⊆ U`` of input vectors that detect ``h``.  A
:class:`DetectionTable` holds those sets as signatures (one row of
``uint64`` words per fault) and provides the popcount quantities the
worst-case analysis is built from.  The signature bit space is
described by the table's
:class:`~repro.faultsim.sampling.VectorUniverse`: for the default
exhaustive universe bit ``v`` means "vector ``v`` detects the fault";
for a sampled universe bit ``i`` refers to the ``i``-th sampled vector
and popcounts become unbiased estimators of the exact counts.

One builder computes every table: the word-parallel PPSFP kernel
(:mod:`repro.simulation.ppsfp`), which simulates batches of faults over
all patterns at once, on every universe whatever its width and whatever
lane mapping it declares.  The independent per-vector serial engine
(:mod:`repro.faultsim.serial`) is its oracle in the differential suite.

Every table stores its rows one way: faults plus a
:class:`~repro.logic.packed.PackedSignatureMatrix` (``packed``).  The
faults are the model's :class:`~repro.faults.arrays.FaultArray`,
whichever builder or executor made the table: the kernel reads their
flip form, and undetectable rows are dropped by compacting the words in
place and taking the same rows of the columns.  The serial oracle's
big-int rows are packed once (:meth:`DetectionTable.from_signatures`);
``N(f)``, its estimates and the test-set queries are operations on the
rows.  A consumer whose algorithm is big-int (the scalar oracles,
Procedure 1's test sets) unpacks the rows itself with
``packed.to_bigints()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Union

from repro import obs
from repro.circuit.netlist import Circuit
from repro.errors import FaultError
from repro.faults.bridging import BridgingFault, BridgingFaults
from repro.faults.stuck_at import StuckAtFault, StuckAtFaults
from repro.faultsim.sampling import CountEstimate, VectorUniverse
from repro.logic.packed import (
    _np,
    PackedSignatureMatrix,
    pack_signature,
    popcount_words,
    unpack_bits,
)

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.faults.arrays import FaultArray

Fault = Union[StuckAtFault, BridgingFault]


def _observe_table_build(kind: str, seconds: float) -> None:
    """Always-on build telemetry (one counter bump + one histogram)."""
    registry = obs.metrics()
    registry.counter(
        "repro_table_builds_total",
        help="Detection-table builds, by fault kind",
        kind=kind,
    ).inc()
    registry.histogram(
        "repro_table_build_seconds",
        help="Wall time of detection-table builds",
        kind=kind,
    ).observe(seconds)


class DetectionTable:
    """Detection sets ``T(f)`` for an ordered fault list.

    Attributes
    ----------
    circuit:
        The analyzed circuit.
    faults:
        The faults, in table order: the model's
        :class:`~repro.faults.arrays.FaultArray` for every table a
        builder makes.
    packed:
        The rows as a :class:`~repro.logic.packed.PackedSignatureMatrix`:
        row ``i`` is ``T(faults[i])`` over the universe's bits;
        undetectable faults (if kept) have an all-zero row.  The only
        store: every query, estimate and analysis reads it.
    universe:
        Bit-index ↔ vector mapping of the rows.  ``None`` (the default)
        means the exhaustive universe of the circuit's input space.
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: Sequence[Fault],
        packed: PackedSignatureMatrix,
        universe: VectorUniverse | None = None,
    ) -> None:
        if universe is None:
            universe = VectorUniverse(circuit.num_inputs)
        elif universe.num_inputs != circuit.num_inputs:
            raise FaultError(
                "universe and circuit disagree on the input count"
            )
        if len(faults) != len(packed):
            raise FaultError("faults and packed rows length mismatch")
        if packed.size != universe.size:
            raise FaultError(
                "packed matrix and universe disagree on the bit size"
            )
        self.circuit = circuit
        self.faults = faults
        self.universe: VectorUniverse = universe
        self.packed = packed

    def __eq__(self, other: object) -> bool:
        if (
            not isinstance(other, DetectionTable)
            or other.__class__ is not self.__class__
        ):
            return NotImplemented
        return (
            self.circuit == other.circuit
            and self.universe == other.universe
            and self.packed == other.packed
            and self.faults == other.faults
        )

    __hash__ = None  # type: ignore[assignment]  # mutable words

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(circuit={self.circuit.name!r}, "
            f"faults={len(self)}, universe={self.universe!r})"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_signatures(
        cls,
        circuit: Circuit,
        faults: FaultArray[Any],
        signatures: Sequence[int],
        universe: VectorUniverse | None = None,
        drop_undetectable: bool = False,
    ) -> "DetectionTable":
        """A table from big-int rows, packed once (the list is not kept)."""
        if universe is None:
            universe = VectorUniverse(circuit.num_inputs)
        matrix = PackedSignatureMatrix.from_bigints(signatures, universe.size)
        return cls.from_rows(
            circuit, faults, matrix, universe, drop_undetectable
        )

    @classmethod
    def from_rows(
        cls,
        circuit: Circuit,
        faults: FaultArray[Any],
        matrix: PackedSignatureMatrix,
        universe: VectorUniverse | None = None,
        drop_undetectable: bool = False,
    ) -> "DetectionTable":
        """A table of ``matrix``'s rows, optionally detectable rows only.

        The one undetectable-row filter: it compacts ``matrix`` in place
        (so the caller hands over a matrix nothing else reads) and takes
        the matching rows of the fault columns.
        """
        if drop_undetectable:
            detected = matrix.words.any(axis=1)
            if not detected.all():
                kept = _np.flatnonzero(detected)
                matrix.compact(kept)
                faults = faults.take(kept)
        return cls(circuit, faults, matrix, universe)

    @classmethod
    def for_stuck_at(
        cls,
        circuit: Circuit,
        faults: Sequence[StuckAtFault] | None = None,
        drop_undetectable: bool = False,
        universe: VectorUniverse | None = None,
    ) -> "DetectionTable":
        """Table for the collapsed stuck-at set (the paper's ``F``).

        The paper keeps undetectable target faults in ``F`` — they simply
        never force any test into the set — so ``drop_undetectable``
        defaults to False.  ``universe`` selects the signature bit space
        (default: exhaustive over the circuit's inputs).
        """
        return cls._build(
            circuit, StuckAtFaults.for_circuit(circuit, faults),
            drop_undetectable, universe,
        )

    @classmethod
    def for_bridging(
        cls,
        circuit: Circuit,
        faults: Sequence[BridgingFault] | None = None,
        drop_undetectable: bool = True,
        universe: VectorUniverse | None = None,
    ) -> "DetectionTable":
        """Table for four-way bridging faults (the paper's ``G``).

        The paper's ``G`` contains only *detectable* bridging faults, so
        ``drop_undetectable`` defaults to True.  On a sampled universe
        "undetectable" means "not detected by any sampled vector".
        """
        return cls._build(
            circuit, BridgingFaults.for_circuit(circuit, faults),
            drop_undetectable, universe,
        )

    @classmethod
    def _build(
        cls,
        circuit: Circuit,
        faults: FaultArray[Any],
        drop_undetectable: bool,
        universe: VectorUniverse | None,
    ) -> "DetectionTable":
        """The one table builder: the PPSFP kernel, at every width."""
        from repro.simulation.ppsfp import flip_matrix

        if universe is None:
            universe = VectorUniverse(circuit.num_inputs)
        clock = obs.system_clock()
        started = clock.monotonic()
        with obs.span(
            "table_build",
            kind=faults.kind,
            circuit=circuit.name,
            faults=len(faults),
            k=universe.size,
        ):
            matrix = flip_matrix(
                faults.kind, circuit, universe, *faults.flip_terms(circuit)
            )
            table = cls.from_rows(
                circuit, faults, matrix, universe, drop_undetectable
            )
        _observe_table_build(faults.kind, clock.monotonic() - started)
        return table

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.faults)

    def count(self, index: int) -> int:
        """``N(f)`` — number of vectors detecting fault ``index``."""
        return int(popcount_words(self.packed.words[index]).sum())

    def counts(self) -> list[int]:
        """``N(f)`` for every fault."""
        return self.packed.popcount_rows().tolist()

    def estimated_counts(self) -> list[float]:
        """``|U|``-scale ``N(f)`` estimates for every fault.

        Dispatches through the universe so non-uniform designs (the
        stratified universe of :mod:`repro.adaptive`) apply their own
        unbiased estimator; equals :meth:`counts` when exact.
        """
        return self.universe.estimate_rows(self.packed).tolist()

    def count_estimate(
        self, index: int, confidence: float = 0.95
    ) -> CountEstimate:
        """``N(f)`` estimate with a confidence interval for fault ``index``."""
        counts = self.universe.count_rows(self.packed.take([index]))[:, 0]
        return self.universe.interval_for_counts(counts, confidence)

    def vectors(self, index: int) -> list[int]:
        """Sorted list of detecting signature bits (row ``index``'s set bits).

        On the exhaustive universe these are the detecting decimal
        vectors; on a sampled universe they are sample-bit indices — use
        :meth:`detecting_vectors` for the decimal vectors behind them.
        """
        return _np.flatnonzero(unpack_bits(self.packed.words[index])).tolist()

    def detecting_vectors(self, index: int) -> list[int]:
        """Decimal input vectors detecting fault ``index`` (bit order)."""
        return [self.universe.vector_at(b) for b in self.vectors(index)]

    def detectable_indices(self) -> list[int]:
        """Indices of faults with at least one detecting vector."""
        return _np.flatnonzero(self.packed.words.any(axis=1)).tolist()

    def num_detectable(self) -> int:
        return int(_np.count_nonzero(self.packed.words.any(axis=1)))

    def detected_by(self, test_signature: int) -> list[int]:
        """Indices of faults detected by a test set (bitset over ``U``)."""
        row = pack_signature(test_signature, self.universe.size)
        return _np.flatnonzero(self.packed.and_popcount(row)).tolist()

    def coverage(self, test_signature: int) -> float:
        """Fraction of *detectable* faults detected by the test set."""
        detectable = self.num_detectable()
        if detectable == 0:
            return 1.0
        return len(self.detected_by(test_signature)) / detectable

    def detection_counts(self, test_signature: int) -> list[int]:
        """Detection multiplicity of every fault under a test set."""
        row = pack_signature(test_signature, self.universe.size)
        return self.packed.and_popcount(row).tolist()

    def fault_name(self, index: int) -> str:
        return self.faults[index].name(self.circuit)
