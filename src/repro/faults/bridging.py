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
:func:`four_way_bridging_faults` returns it as :class:`BridgingFaults`:
a read-only sequence stored as four numpy arrays (struct-of-arrays).
The PPSFP kernel and the detection-table builder read the arrays
directly; :class:`BridgingFault` objects exist only for callers that
index or iterate the sequence.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, overload

import numpy as np

from repro.circuit.netlist import Circuit
from repro.errors import FaultError

if TYPE_CHECKING:
    from numpy.typing import ArrayLike, NDArray


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


class BridgingFaults(Sequence[BridgingFault]):
    """An immutable sequence of bridging faults, stored as four arrays.

    ``victim``, ``victim_value``, ``aggressor`` and ``aggressor_value``
    hold fault ``i``'s fields at index ``i`` (read-only numpy arrays).
    The sequence equals any sequence of the same :class:`BridgingFault`
    elements, in both directions of ``==``.  Elements are built only
    when indexed or iterated; the first iteration builds all of them
    once and keeps them.  Pickles carry the arrays alone.
    """

    __slots__ = (
        "victim", "victim_value", "aggressor", "aggressor_value", "_elements",
    )

    victim: NDArray[np.intp]
    victim_value: NDArray[np.int8]
    aggressor: NDArray[np.intp]
    aggressor_value: NDArray[np.int8]

    def __init__(
        self,
        victim: ArrayLike,
        victim_value: ArrayLike,
        aggressor: ArrayLike,
        aggressor_value: ArrayLike,
    ) -> None:
        fields: list[NDArray[Any]] = []
        for values, dtype in (
            (victim, np.intp), (victim_value, np.int8),
            (aggressor, np.intp), (aggressor_value, np.int8),
        ):
            array = np.array(values, dtype=dtype)  # a private copy
            array.flags.writeable = False
            fields.append(array)
        if any(a.ndim != 1 or a.shape != fields[0].shape for a in fields):
            raise FaultError("bridging fault arrays must be 1-D, equal length")
        # BridgingFault.__post_init__'s checks, over every fault at once.
        for values in (fields[1], fields[3]):
            if np.any((values != 0) & (values != 1)):
                raise FaultError("bridging activation values must be 0 or 1")
        if np.any(fields[0] == fields[2]):
            raise FaultError("bridging fault needs two distinct lines")
        self.victim, self.victim_value, self.aggressor, self.aggressor_value = (
            fields
        )
        self._elements: tuple[BridgingFault, ...] | None = None

    @classmethod
    def of(cls, faults: Sequence[BridgingFault]) -> "BridgingFaults":
        """``faults`` as arrays (returned as is when it already is)."""
        if isinstance(faults, BridgingFaults):
            return faults
        return cls(
            [g.victim for g in faults],
            [g.victim_value for g in faults],
            [g.aggressor for g in faults],
            [g.aggressor_value for g in faults],
        )

    def take(self, indices: ArrayLike) -> "BridgingFaults":
        """The faults at ``indices``, in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        return BridgingFaults(*(a[idx] for a in self._arrays()))

    def __len__(self) -> int:
        return len(self.victim)

    @overload
    def __getitem__(self, index: int) -> BridgingFault: ...

    @overload
    def __getitem__(self, index: slice) -> "BridgingFaults": ...

    def __getitem__(
        self, index: int | slice
    ) -> "BridgingFault | BridgingFaults":
        if isinstance(index, slice):
            return BridgingFaults(*(a[index] for a in self._arrays()))
        if self._elements is not None:
            return self._elements[index]
        i = range(len(self))[index]  # IndexError and negatives, as a list
        return BridgingFault(
            int(self.victim[i]), int(self.victim_value[i]),
            int(self.aggressor[i]), int(self.aggressor_value[i]),
        )

    def __iter__(self) -> Iterator[BridgingFault]:
        if self._elements is None:
            self._elements = tuple(map(
                BridgingFault,
                self.victim.tolist(), self.victim_value.tolist(),
                self.aggressor.tolist(), self.aggressor_value.tolist(),
            ))
        return iter(self._elements)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BridgingFaults):
            return all(
                np.array_equal(a, b)
                for a, b in zip(self._arrays(), other._arrays(), strict=True)
            )
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other, strict=True)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # equal to lists

    def __reduce__(self) -> tuple[type, tuple[NDArray[Any], ...]]:
        return BridgingFaults, self._arrays()

    def __repr__(self) -> str:
        return f"BridgingFaults(<{len(self)} faults>)"

    def _arrays(self) -> tuple[NDArray[Any], ...]:
        return (
            self.victim, self.victim_value,
            self.aggressor, self.aggressor_value,
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
