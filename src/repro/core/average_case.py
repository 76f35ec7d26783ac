"""Average-case analysis (Section 3): detection probabilities ``p(n, g)``.

Given the ``K`` random n-detection test sets of Procedure 1, the
probability that an *arbitrary* n-detection test set detects an
untargeted fault ``g`` is estimated as::

    p(n, g) = d(n, g) / K

where ``d(n, g)`` counts the test sets that intersect ``T(g)``.

:func:`probability_histogram` reproduces the row structure of Tables 5
and 6: for thresholds 1, 0.9, …, 0.1, 0, the number of faults with
``p(n, g) >= threshold``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.procedure1 import NDetectionFamily
from repro.core.worst_case import g_block_rows
from repro.errors import AnalysisError
from repro.faultsim.detection import DetectionTable
from repro.faultsim.sampling import VectorUniverse
from repro.logic.packed import PackedSignatureMatrix, _np

TABLE5_THRESHOLDS: tuple[float, ...] = (
    1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0,
)


class AverageCaseAnalysis:
    """Estimated ``p(n, g)`` for a set of untargeted faults.

    Parameters
    ----------
    family:
        The test-set family from Procedure 1.
    untargeted_table:
        Detection table for ``G``.
    fault_indices:
        Optional subset of ``G`` to analyze (the paper reports only the
        faults with ``nmin(g) >= 11``); default: every fault in the table.
    """

    def __init__(
        self,
        family: NDetectionFamily,
        untargeted_table: DetectionTable,
        fault_indices: Sequence[int] | None = None,
    ):
        if family.num_inputs != untargeted_table.circuit.num_inputs:
            raise AnalysisError(
                "test-set family and detection table disagree on input count"
            )
        # A family without an explicit universe is an exhaustive-space
        # family; comparing it as such rejects the silent mix of an
        # exhaustive family with a sampled untargeted table.
        family_universe = (
            family.universe
            if family.universe is not None
            else VectorUniverse(family.num_inputs)
        )
        if family_universe != untargeted_table.universe:
            raise AnalysisError(
                "test-set family and detection table were built over "
                "different vector universes; use the same backend for both"
            )
        self.family = family
        self.table = untargeted_table
        self.fault_indices = (
            list(fault_indices)
            if fault_indices is not None
            else list(range(len(untargeted_table)))
        )

    def _snapshots_for(self, n: int) -> list[int]:
        """Iteration-``n`` test-set snapshots, with ``n`` validated.

        ``n = 0`` would silently wrap to the *largest* n via Python
        negative indexing, and ``n > n_max`` would raise a bare
        ``IndexError``; both are caller errors and get an
        :class:`AnalysisError`.
        """
        limit = len(self.family.snapshots)
        if not 1 <= n <= limit:
            raise AnalysisError(
                f"n must be in [1, {limit}], got {n}"
            )
        return self.family.snapshots[n - 1]

    def _probabilities(self, n: int, indices: Sequence[int]) -> list[float]:
        """``p(n, g)`` of the faults ``indices``: per block of their rows,
        count the step's (packed) test sets that meet each row."""
        size = self.table.universe.size
        snapshots = PackedSignatureMatrix.from_bigints(
            self._snapshots_for(n), size
        ).words
        idx = _np.asarray(indices, dtype=_np.intp)
        hits = _np.zeros(len(idx), dtype=_np.int64)
        block = g_block_rows(size)
        for start in range(0, len(idx), block):
            rows = self.table.packed.words[idx[start : start + block]]
            met = _np.empty_like(rows)
            for snapshot in snapshots:
                _np.bitwise_and(rows, snapshot, out=met)
                hits[start : start + block] += met.any(axis=1)
        return (hits / self.family.num_sets).tolist()

    def detection_probability(self, n: int, fault_index: int) -> float:
        """``p(n, g)`` for one untargeted fault."""
        return self._probabilities(n, [fault_index])[0]

    def probabilities(self, n: int) -> list[float]:
        """``p(n, g)`` for every analyzed fault (in ``fault_indices`` order)."""
        return self._probabilities(n, self.fault_indices)

    def histogram(self, n: int) -> list[int]:
        """Counts of faults with ``p(n, g) >= threshold`` (Table 5 row)."""
        return probability_histogram(self.probabilities(n))

    def minimum_probability(self, n: int) -> tuple[float, int] | None:
        """Smallest ``p(n, g)`` and its fault index, or None if no faults."""
        probs = self.probabilities(n)
        if not probs:
            return None
        best = min(range(len(probs)), key=probs.__getitem__)
        return probs[best], self.fault_indices[best]


def probability_histogram(
    probabilities: Sequence[float],
    thresholds: Sequence[float] = TABLE5_THRESHOLDS,
) -> list[int]:
    """Number of values ``>= t`` for each threshold ``t``.

    With the default thresholds this is exactly a Table 5/6 row: the
    first entry counts faults detected with probability 1, the last
    counts all faults (every probability is >= 0).
    """
    eps = 1e-12  # counting is exact on multiples of 1/K; guard rounding
    return [
        sum(1 for p in probabilities if p >= t - eps) for t in thresholds
    ]
