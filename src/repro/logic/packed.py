"""Numpy-packed signatures: ``uint64`` word blocks behind the hot paths.

The big-int signature representation (:mod:`repro.logic.bitops`) makes
whole-space simulation a one-expression-per-gate affair, but the
worst-case analysis then burns its time in millions of
``(sig_f & sig_g).bit_count()`` evaluations over fault pairs — pure
popcount work that the Python object layer serializes.  A
:class:`PackedSignatureMatrix` stores the same signatures as a dense
``numpy.uint64`` array (one row per fault, ``ceil(size / 64)`` words per
row) so the AND + popcount of one fault against *every* other fault is a
single vectorized pass.

The packing is exact and bit-order preserving: bit ``i`` of the big-int
signature lives in word ``i // 64`` at in-word position ``i % 64``
(little-endian words), so round-tripping through
:meth:`PackedSignatureMatrix.from_bigints` /
:meth:`PackedSignatureMatrix.to_bigints` is the identity and popcounts
agree bit for bit with ``int.bit_count()``.

numpy is a required dependency.  ``numpy.bitwise_count`` (numpy >= 2)
counts bits when present; older numpy releases get a byte-LUT popcount.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as _np

from repro.errors import AnalysisError

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

    #: A block of packed signature words (any shape, ``uint64`` lanes).
    U64Array = NDArray[np.uint64]
    #: Per-word/per-byte popcounts — counts, not lanes.
    U8Array = NDArray[np.uint8]
    I64Array = NDArray[np.int64]
    F64Array = NDArray[np.float64]
    IntpArray = NDArray[np.intp]
    BoolArray = NDArray[np.bool_]

WORD_BITS = 64
_WORD_BYTES = WORD_BITS // 8
#: Words per chunk of the row-by-row passes (compaction, hashing, the
#: dedup check).  Their 64 KiB temporaries stay below glibc's default
#: 128 KiB mmap threshold, so chunks reuse heap memory instead of
#: mapping and faulting in fresh pages each time.
_CHUNK_WORDS = 1 << 13


def words_for(size: int) -> int:
    """Number of ``uint64`` words holding a ``size``-bit signature."""
    if size < 0:
        raise AnalysisError(f"signature size must be >= 0, got {size}")
    return max(1, (size + WORD_BITS - 1) // WORD_BITS)


if hasattr(_np, "bitwise_count"):

    def popcount_words(
        words: U64Array, out: U8Array | None = None
    ) -> U8Array:
        """Per-word popcounts of a ``uint64`` array (any shape)."""
        return _np.bitwise_count(words, out=out)

else:  # numpy < 2.0: byte-LUT fallback

    _BYTE_POPCOUNT: U8Array = _np.array(
        [bin(b).count("1") for b in range(256)], dtype=_np.uint8
    )

    def popcount_words(
        words: U64Array, out: U8Array | None = None
    ) -> U8Array:
        """Per-word popcounts of a ``uint64`` array (any shape)."""
        as_bytes = _np.ascontiguousarray(words).view(_np.uint8)
        per_byte = _BYTE_POPCOUNT[as_bytes]
        return per_byte.reshape(*words.shape, _WORD_BYTES).sum(
            axis=-1, dtype=_np.uint8, out=out
        )


#: Fixed odd 64-bit constants of :func:`_row_hashes`.
_GOLDEN = _np.uint64(0x9E3779B97F4A7C15)
_MIX = _np.uint64(0xBF58476D1CE4E5B9)


def _row_hashes(words: U64Array) -> U64Array:
    """A fixed 64-bit hash of every row of a ``(rows, W)`` word block.

    Each word is folded (``x ^ x >> 31``), offset by a constant of its
    column, multiplied and folded again; the row sums the results
    modulo 2**64.  The folds keep structured rows apart: with a
    multiply-and-sum hash alone, collisions left 4,307 representatives
    for the 3,121 distinct bridging rows of ``keyb``.  No seed and no
    Python ``hash``: equal rows hash alike in every process.
    """
    num_rows, num_words = words.shape
    columns = _np.arange(num_words, dtype=_np.uint64) * _GOLDEN
    out = _np.empty(num_rows, dtype=_np.uint64)
    step = max(1, _CHUNK_WORDS // max(1, num_words))
    for start in range(0, num_rows, step):
        chunk = words[start : start + step]
        x = chunk >> _np.uint64(31)
        x ^= chunk
        x += columns
        x *= _MIX
        x ^= x >> _np.uint64(29)
        out[start : start + step] = x.sum(axis=1, dtype=_np.uint64)
    return out


def pack_signature(signature: int, size: int) -> U64Array:
    """One big-int signature as a ``(words_for(size),)`` ``uint64`` row."""
    if signature < 0:
        raise AnalysisError("signatures are non-negative bitsets")
    if signature >> size:
        raise AnalysisError(
            f"signature has bits beyond the {size}-bit universe"
        )
    words = words_for(size)
    raw = signature.to_bytes(words * _WORD_BYTES, "little")
    return _np.frombuffer(raw, dtype="<u8").astype(_np.uint64, copy=False)


def unpack_signature(row: U64Array) -> int:
    """Inverse of :func:`pack_signature`."""
    raw = _np.ascontiguousarray(row, dtype="<u8").tobytes()
    return int.from_bytes(raw, "little")


class PackedSignatureMatrix:
    """Dense ``uint64`` block of detection signatures, one row per fault.

    Attributes
    ----------
    words:
        ``(num_rows, words_for(size))`` ``numpy.uint64`` array; bit ``i``
        of row ``r`` is bit ``i`` of fault ``r``'s big-int signature.
    size:
        Number of meaningful bits per row (the universe size); bits at
        positions ``>= size`` are zero by construction.
    """

    __slots__ = ("words", "size")

    words: U64Array
    size: int

    def __init__(self, words: U64Array, size: int) -> None:
        if words.ndim != 2:
            raise AnalysisError(
                f"packed matrix must be 2-D, got {words.ndim}-D"
            )
        if words.shape[1] != words_for(size):
            raise AnalysisError(
                f"packed matrix has {words.shape[1]} words per row; "
                f"a {size}-bit universe needs {words_for(size)}"
            )
        self.words = _np.ascontiguousarray(words, dtype=_np.uint64)
        self.size = size

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_bigints(
        cls, signatures: Sequence[int], size: int
    ) -> "PackedSignatureMatrix":
        """Pack big-int signatures (bit-order preserving, exact)."""
        num_words = words_for(size)
        if num_words == 1:
            # One word per row: numpy converts the ints in C.  Negative or
            # over-wide ints fall through to the checks of the loop below.
            try:
                words = _np.fromiter(
                    signatures, dtype=_np.uint64, count=len(signatures)
                )
            except OverflowError:
                pass
            else:
                if size >= WORD_BITS or not (words >> _np.uint64(size)).any():
                    return cls(words.reshape(-1, 1), size)
        row_bytes = num_words * _WORD_BYTES
        chunks = []
        for sig in signatures:
            if sig < 0:
                raise AnalysisError("signatures are non-negative bitsets")
            if sig >> size:
                raise AnalysisError(
                    f"signature has bits beyond the {size}-bit universe"
                )
            chunks.append(sig.to_bytes(row_bytes, "little"))
        # A bytearray keeps the words writable (``compact`` needs that).
        raw = bytearray().join(chunks)
        words = _np.frombuffer(raw, dtype="<u8").astype(
            _np.uint64, copy=False
        )
        return cls(words.reshape(len(signatures), num_words), size)

    def to_bigints(self) -> list[int]:
        """Rows back as big-int signatures (inverse of :meth:`from_bigints`)."""
        if self.words.shape[1] == 1:
            # One word per row: numpy converts to ints in C.
            return self.words[:, 0].tolist()
        if not self.words.size:  # memoryview.cast rejects zero-size shapes
            return [0] * len(self)
        row_bytes = self.words.shape[1] * _WORD_BYTES
        # Rows sliced from a view of the word buffer: no full-matrix copy.
        raw = self.words.astype("<u8", copy=False).data.cast("B")
        return [
            int.from_bytes(raw[i : i + row_bytes], "little")
            for i in range(0, len(raw), row_bytes)
        ]

    def row(self, index: int) -> U64Array:
        """One packed row (a ``uint64`` vector), by fault index."""
        return self.words[index]

    def row_bigint(self, index: int) -> int:
        """One row as a big-int signature."""
        return unpack_signature(self.words[index])

    # ------------------------------------------------------------------
    # Vectorized popcount kernels (the nmin hot path)
    # ------------------------------------------------------------------
    def popcount_rows(self) -> I64Array:
        """``N(f)`` for every row, as an ``int64`` vector."""
        return popcount_words(self.words).sum(axis=1, dtype=_np.int64)

    def and_popcount(self, row: U64Array) -> I64Array:
        """``popcount(row & self[r])`` for every row ``r`` (``int64``).

        ``row`` is a packed ``uint64`` vector over the same universe —
        this is ``M(g, f)`` for one ``g`` against the whole matrix in a
        single vectorized pass.
        """
        if row.shape[-1] != self.words.shape[1]:
            raise AnalysisError(
                "packed row and matrix disagree on the word count; were "
                "they built over the same universe?"
            )
        return popcount_words(self.words & row).sum(
            axis=1, dtype=_np.int64
        )

    def take(self, order: Iterable[int]) -> "PackedSignatureMatrix":
        """Row-reordered copy (e.g. targets sorted by ascending ``N(f)``)."""
        if not isinstance(order, (_np.ndarray, Sequence)):
            order = list(order)
        idx = _np.asarray(order, dtype=_np.intp)
        return PackedSignatureMatrix(self.words[idx], self.size)

    def compact(self, kept: IntpArray) -> None:
        """Keep only the rows ``kept`` (strictly ascending), in place.

        Rows move down chunk by chunk: since ``kept[i] >= i``, every
        chunk is read before any later write can reach it, so no
        full-size second copy is made.  ``words`` becomes a view of the
        first ``len(kept)`` rows of the same buffer, which must be
        writable (kernel and :meth:`from_bigints` output are).
        """
        words = self.words
        step = max(1, _CHUNK_WORDS // words.shape[1])
        for start in range(0, len(kept), step):
            part = kept[start : start + step]
            words[start : start + len(part)] = words[part]
        self.words = words[: len(kept)]

    def first_equal_rows(
        self, rows: IntpArray | None = None
    ) -> IntpArray:
        """Map each row to the first equal row: a packed-row dedup.

        ``rows`` (default: every row, in order) lists the rows to
        dedup; the result ``rep`` has one entry per position ``k`` of
        ``rows``, the position ``rep[k] <= k`` of a row with the same
        words.  ``rep[k] == k`` marks a representative.  Rows are
        grouped by a 64-bit hash (:func:`_row_hashes`) and each row is
        checked word for word against its group's first row; a row
        that fails the check (a hash collision) is its own
        representative, so equal rows may stay apart but different
        rows never merge.
        """
        num = len(self) if rows is None else len(rows)
        if num == 0:
            return _np.zeros(0, dtype=_np.intp)
        hashes = _row_hashes(self.words)
        if rows is not None:
            hashes = hashes[rows]
        perm = _np.argsort(hashes, kind="stable")
        sorted_hashes = hashes[perm]
        starts = _np.flatnonzero(
            _np.concatenate(([True], sorted_hashes[1:] != sorted_hashes[:-1]))
        )
        group_sizes = _np.diff(_np.append(starts, num))
        rep = _np.empty(num, dtype=_np.intp)
        # A stable sort keeps each group in position order: its first
        # member is its earliest position.
        rep[perm] = _np.repeat(perm[starts], group_sizes)
        dup = _np.flatnonzero(rep != _np.arange(num))
        step = max(1, _CHUNK_WORDS // self.words.shape[1])
        for start in range(0, len(dup), step):
            part = dup[start : start + step]
            at, first = part, rep[part]
            if rows is not None:
                at, first = rows[at], rows[first]
            diff = self.words[at]
            diff ^= self.words[first]
            failed = part[diff.any(axis=1)]
            rep[failed] = failed
        return rep

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.words.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedSignatureMatrix):
            return NotImplemented
        return self.size == other.size and bool(
            _np.array_equal(self.words, other.words)
        )

    def __hash__(self) -> int:  # mutable array payload
        raise TypeError("PackedSignatureMatrix is unhashable")

    def __repr__(self) -> str:
        return (
            f"PackedSignatureMatrix(rows={self.words.shape[0]}, "
            f"size={self.size})"
        )


def and_popcount(row: U64Array, matrix: PackedSignatureMatrix) -> I64Array:
    """Module-level alias: ``popcount(row & matrix[r])`` for every row."""
    return matrix.and_popcount(row)


def unpack_bits(words: U64Array) -> U8Array:
    """0/1 bit plane of a word block: bit ``i`` of a row at column ``i``.

    Works on one row or a ``(rows, W)`` block (little-endian words).
    """
    return _np.unpackbits(
        _np.ascontiguousarray(words, dtype="<u8").view(_np.uint8),
        axis=-1,
        bitorder="little",
    )


def pack_bits(bits: U8Array) -> PackedSignatureMatrix:
    """Inverse of :func:`unpack_bits`: a ``(rows, size)`` 0/1 plane."""
    rows, size = bits.shape
    raw = _np.zeros((rows, words_for(size) * _WORD_BYTES), dtype=_np.uint8)
    raw[:, : (size + 7) // 8] = _np.packbits(bits, axis=1, bitorder="little")
    words = raw.view("<u8").astype(_np.uint64, copy=False)
    return PackedSignatureMatrix(words, size)


def gather_columns(
    matrices: tuple[PackedSignatureMatrix, ...], order: Iterable[int]
) -> PackedSignatureMatrix:
    """Column gather over side-by-side blocks: bit ``j`` of the result is
    bit ``order[j]`` of the rows of ``matrices`` laid end to end.

    ``matrices`` share their row count; column ``c`` of the joined block
    is column ``c`` of the first matrix when ``c`` is below its size,
    and so on.  The adaptive controller merges a round's fresh columns
    into its sorted accumulated block with one call; a fault dictionary
    picks its test columns from one matrix.  Unpacks a chunk of rows to
    a bit plane, gathers, and re-packs — exact for any size; the chunks
    keep the unpacked plane small on wide rows.
    """
    idx = _np.asarray(list(order), dtype=_np.intp)
    total = sum(m.size for m in matrices)
    if idx.size and (idx.min() < 0 or idx.max() >= total):
        raise AnalysisError(
            f"column order references bits outside the {total}-bit "
            f"universe"
        )
    num_rows = len(matrices[0])
    if any(len(m) != num_rows for m in matrices):
        raise AnalysisError("gather_columns needs matching row counts")
    words = _np.empty((num_rows, words_for(idx.size)), dtype=_np.uint64)
    width = sum(m.words.shape[1] for m in matrices)
    step = max(1, _CHUNK_WORDS // width)
    for start in range(0, num_rows, step):
        bits = _np.concatenate(
            [
                unpack_bits(m.words[start : start + step])[:, : m.size]
                for m in matrices
            ],
            axis=1,
        )
        words[start : start + step] = pack_bits(bits[:, idx]).words
    return PackedSignatureMatrix(words, idx.size)
