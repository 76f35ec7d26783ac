"""Fault dictionaries and pass/fail diagnosis.

A *fault dictionary* inverts a detection table: for every test vector it
records which faults fail.  Given the observed pass/fail behaviour of a
device under a test set, :meth:`FaultDictionary.diagnose` returns the
candidate faults consistent with the observation — the classic use of
the very detection data the paper's analysis is built on, and the reason
n-detection sets help diagnosis too (more detections = finer dictionary
resolution).

Resolution metrics (:meth:`equivalence_classes_under`,
:meth:`diagnostic_resolution`) quantify how well a test set tells faults
apart — complementary to the coverage view of the main analysis.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import AnalysisError
from repro.faultsim.detection import DetectionTable
from repro.logic.packed import gather_columns


class FaultDictionary:
    """Pass/fail dictionary over a fixed, ordered test set.

    Parameters
    ----------
    table:
        Detection table of the candidate faults (any fault model).
    tests:
        Ordered test vectors the dictionary is built for.

    Each fault's *signature under the test set* is a bitmask over test
    positions (bit ``i`` = ``tests[i]`` fails).  Faults with equal masks
    are indistinguishable by this test set.
    """

    def __init__(self, table: DetectionTable, tests: Sequence[int]):
        seen: set[int] = set()
        bits = []
        for t in tests:
            if t in seen:
                raise AnalysisError(f"duplicate test vector {t}")
            seen.add(t)
            bit = table.universe.bit_of(t)  # range-checks t
            if bit is None:
                raise AnalysisError(
                    f"test vector {t} is not in the table's sampled "
                    f"universe"
                )
            bits.append(bit)
        self.table = table
        self.tests = list(tests)
        self.masks = gather_columns((table.packed,), bits).to_bigints()

    # ------------------------------------------------------------------
    # Diagnosis
    # ------------------------------------------------------------------
    def diagnose(
        self, failing_positions: Sequence[int], exact: bool = True
    ) -> list[int]:
        """Fault indices consistent with an observed failure pattern.

        ``failing_positions`` are indices into ``tests`` that failed on
        the tester.  ``exact=True`` requires the full dictionary match
        (single-fault assumption, fully observed responses);
        ``exact=False`` returns faults whose signature *covers* the
        observed failures (tolerates masked/untested passes).
        """
        observed = 0
        for pos in failing_positions:
            if not 0 <= pos < len(self.tests):
                raise AnalysisError(f"failing position {pos} out of range")
            observed |= 1 << pos
        if exact:
            return [
                i for i, mask in enumerate(self.masks) if mask == observed
            ]
        return [
            i
            for i, mask in enumerate(self.masks)
            if mask and (observed & mask) == observed
        ]

    # ------------------------------------------------------------------
    # Resolution metrics
    # ------------------------------------------------------------------
    def equivalence_classes_under(self) -> list[list[int]]:
        """Groups of fault indices the test set cannot distinguish.

        Undetected faults (empty mask) form one class together — the
        test set says nothing about them.
        """
        groups: dict[int, list[int]] = {}
        for i, mask in enumerate(self.masks):
            groups.setdefault(mask, []).append(i)
        return [groups[m] for m in sorted(groups)]

    def diagnostic_resolution(self) -> float:
        """Fraction of detected faults uniquely identified by the set."""
        detected = [m for m in self.masks if m]
        if not detected:
            return 1.0
        counts: dict[int, int] = {}
        for m in detected:
            counts[m] = counts.get(m, 0) + 1
        unique = sum(1 for m in detected if counts[m] == 1)
        return unique / len(detected)

    def detected_count(self) -> int:
        """Number of faults the test set detects at all."""
        return sum(1 for m in self.masks if m)
