"""Four-way bridging faults (the paper's untargeted fault model ``G``).

A four-way bridging fault is denoted ``(l1, a1, l2, a2)``: it is
*activated* on input vectors where the fault-free circuit produces
``l1 = a1`` and ``l2 = a2``; on those vectors the faulty circuit has
``l1 = ā1`` (the victim flips), while ``l2`` keeps its value.  The four
faults of a bridge between lines ``A`` and ``B`` are::

    (A, 0, B, 1)   # OR-type bridge observed on A
    (A, 1, B, 0)   # AND-type bridge observed on A
    (B, 0, A, 1)   # OR-type bridge observed on B
    (B, 1, A, 0)   # AND-type bridge observed on B

in exactly this enumeration order — which reproduces the paper's example
indices ``g0 = (9, 0, 10, 1)`` and ``g6 = (11, 0, 9, 1)`` with
``T(g6) = {12}``.

Following the paper, the universe is restricted to *non-feedback* bridges
(neither line in the other's transitive fanout) *between outputs of
multi-input gates*; detectability filtering happens in
:mod:`repro.faultsim` where detection sets are available.

``G`` runs to 21k–114k faults on mid-size MCNC circuits, so
:func:`four_way_bridging_faults` returns it as :class:`BridgingFaults`,
a :class:`~repro.faults.arrays.FaultArray` of four numpy columns that
the kernel, the table builder and every sharded executor read; a
:class:`BridgingFault` exists only for a caller that indexes or
iterates the list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.circuit.netlist import Circuit
from repro.errors import FaultError
from repro.faults.arrays import FaultArray

if TYPE_CHECKING:
    from collections.abc import Sequence

    from numpy.typing import NDArray

    from repro.faults.arrays import FlipTerms


@dataclass(frozen=True, slots=True, order=True)
class BridgingFault:
    """Bridge ``(l1, a1, l2, a2)``: ``l1`` flips when ``l1=a1`` and ``l2=a2``."""

    victim: int
    victim_value: int
    aggressor: int
    aggressor_value: int

    def __post_init__(self) -> None:
        if self.victim_value not in (0, 1) or self.aggressor_value not in (0, 1):
            raise FaultError("bridging activation values must be 0 or 1")
        if self.victim == self.aggressor:
            raise FaultError("bridging fault needs two distinct lines")

    def name(self, circuit: Circuit) -> str:
        """Paper-style rendering, e.g. ``(9,0,10,1)``."""
        v = circuit.lines[self.victim].name
        a = circuit.lines[self.aggressor].name
        return f"({v},{self.victim_value},{a},{self.aggressor_value})"


def bridging_pair_sites(circuit: Circuit) -> list[tuple[int, int]]:
    """Non-feedback pairs of multi-input gate output lines, ``lid``-sorted.

    A pair is *feedback* when either line lies in the transitive fanout of
    the other (the bridge would close a loop); those pairs are excluded,
    as in the paper.
    """
    sites = [ln.lid for ln in circuit.multi_input_gate_lines()]
    fanouts = {lid: circuit.transitive_fanout(lid) for lid in sites}
    pairs = []
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            if b in fanouts[a] or a in fanouts[b]:
                continue
            pairs.append((a, b))
    return pairs


class BridgingFaults(FaultArray[BridgingFault]):
    """Bridging faults as four columns: ``victim``, ``victim_value``,
    ``aggressor`` and ``aggressor_value``."""

    element = BridgingFault
    fields = (
        ("victim", np.intp), ("victim_value", np.int8),
        ("aggressor", np.intp), ("aggressor_value", np.int8),
    )
    kind = "bridging"

    victim: NDArray[np.intp]
    victim_value: NDArray[np.int8]
    aggressor: NDArray[np.intp]
    aggressor_value: NDArray[np.int8]

    def _check(self, *columns: NDArray[Any]) -> None:
        victim, victim_value, aggressor, aggressor_value = columns
        for values in (victim_value, aggressor_value):
            if np.any((values != 0) & (values != 1)):
                raise FaultError("bridging activation values must be 0 or 1")
        if np.any(victim == aggressor):
            raise FaultError("bridging fault needs two distinct lines")

    @classmethod
    def for_circuit(
        cls, circuit: Circuit, faults: Sequence[BridgingFault] | None = None
    ) -> BridgingFaults:
        """``faults`` as arrays; None is every four-way bridging fault."""
        if faults is None:
            return four_way_bridging_faults(circuit)
        return cls.of(faults)

    def flip_terms(self, circuit: Circuit) -> FlipTerms:
        """The victim flips where it carries ``victim_value`` and the
        aggressor ``aggressor_value``."""
        return (
            self.victim,
            np.column_stack((self.victim, self.aggressor)),
            np.column_stack(
                (self.victim_value, self.aggressor_value)
            ).astype(bool),
        )


def four_way_bridging_faults(circuit: Circuit) -> BridgingFaults:
    """All four-way bridging faults over the non-feedback pair sites.

    Each pair ``(A, B)`` of :func:`bridging_pair_sites` expands to
    ``(A,0,B,1) (A,1,B,0) (B,0,A,1) (B,1,A,0)``, in that order.  The
    result is *not* filtered for detectability — use
    :meth:`repro.faultsim.detection.DetectionTable.for_bridging` (which
    drops undetectable faults by default) to obtain the paper's ``G``.
    """
    pairs = np.array(bridging_pair_sites(circuit), dtype=np.intp)
    a, b = pairs.reshape(-1, 2).T
    values = np.tile(np.array([0, 1, 0, 1], dtype=np.int8), len(a))
    return BridgingFaults(
        np.stack([a, a, b, b], axis=1).ravel(),
        values,
        np.stack([b, b, a, a], axis=1).ravel(),
        1 - values,
    )
