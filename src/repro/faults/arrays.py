"""Fault lists as struct-of-arrays: one numpy column per fault field.

Each fault model's list is a :class:`FaultArray` subclass naming its
frozen dataclass, its columns and its kernel label, checking its fields
over whole columns and giving its faults as kernel flip faults
(:meth:`FaultArray.flip_terms`).  Kernel, row filter, shard planner and
shard-cache key read the columns; element objects are built only when a
caller indexes or iterates the list.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING, Any, ClassVar, TypeVar, overload

import numpy as np

from repro.errors import FaultError

if TYPE_CHECKING:
    from numpy.typing import ArrayLike, NDArray

    from repro.circuit.netlist import Circuit

    #: ``(sites, lines, values)``: the arguments of ``ppsfp.flip_matrix``.
    FlipTerms = tuple[NDArray[np.intp], NDArray[np.intp], NDArray[np.bool_]]

_F = TypeVar("_F")
_A = TypeVar("_A", bound="FaultArray[Any]")


class FaultArray(Sequence[_F]):
    """An immutable fault sequence, one read-only array per field.

    Attribute ``name`` holds field ``name`` of fault ``i`` at index
    ``i``.  The sequence equals any sequence of the same elements, in
    both directions of ``==``; the first iteration builds every element
    once and keeps them.  Slices and :meth:`take` keep the type, and a
    pickle carries the columns alone, as lists of ints.
    """

    #: The fault dataclass an element is built as.
    element: ClassVar[type]
    #: ``(field, dtype)`` per column, in the dataclass's field order.
    fields: ClassVar[tuple[tuple[str, type], ...]]
    #: The model's label in kernel spans and telemetry.
    kind: ClassVar[str]

    def __init__(self, *columns: ArrayLike) -> None:
        arrays = [  # private copies
            np.array(values, dtype=dtype)
            for values, (_, dtype) in zip(columns, self.fields, strict=True)
        ]
        for array in arrays:
            array.flags.writeable = False
        if any(a.ndim != 1 or a.shape != arrays[0].shape for a in arrays):
            raise FaultError(
                f"{type(self).__name__} columns must be 1-D, equal length"
            )
        self._check(*arrays)
        for (name, _), array in zip(self.fields, arrays, strict=True):
            setattr(self, name, array)
        self._elements: tuple[_F, ...] | None = None

    def _check(self, *columns: NDArray[Any]) -> None:
        """The dataclass's field checks, over every fault at once."""

    def flip_terms(self, circuit: Circuit) -> FlipTerms:
        """``(sites, lines, values)``: fault ``r`` flips line ``sites[r]``
        where every line ``lines[r, t]`` carries ``values[r, t]``."""
        raise NotImplementedError

    @classmethod
    def of(cls: type[_A], faults: Sequence[Any]) -> _A:
        """``faults`` as arrays (returned as is when it already is)."""
        if isinstance(faults, cls):
            return faults
        return cls(*(
            [getattr(f, name) for f in faults] for name, _ in cls.fields
        ))

    def columns(self) -> tuple[NDArray[Any], ...]:
        """The field arrays, in :attr:`fields` order."""
        return tuple(getattr(self, name) for name, _ in self.fields)

    def take(self: _A, indices: ArrayLike) -> _A:
        """The faults at ``indices``, in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        return type(self)(*(a[idx] for a in self.columns()))

    def __len__(self) -> int:
        return len(getattr(self, self.fields[0][0]))

    @overload
    def __getitem__(self, index: int) -> _F: ...

    @overload
    def __getitem__(self: _A, index: slice) -> _A: ...

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            return type(self)(*(a[index] for a in self.columns()))
        if self._elements is not None:
            return self._elements[index]
        i = range(len(self))[index]  # IndexError and negatives, as a list
        return self.element(*(a[i].item() for a in self.columns()))

    def __iter__(self) -> Iterator[_F]:
        if self._elements is None:
            self._elements = tuple(
                map(self.element, *(a.tolist() for a in self.columns()))
            )
        return iter(self._elements)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FaultArray) and type(other) is type(self):
            return all(
                np.array_equal(a, b)
                for a, b in zip(self.columns(), other.columns(), strict=True)
            )
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other, strict=True)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # equal to lists

    def __reduce__(self) -> tuple[type, tuple[list[Any], ...]]:
        return type(self), tuple(a.tolist() for a in self.columns())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{len(self)} faults>)"
