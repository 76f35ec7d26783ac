"""Packed signature matrices: exact, bit-order-preserving conversions."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.logic import packed
from repro.logic.packed import (
    PackedSignatureMatrix,
    and_popcount,
    gather_columns,
    pack_signature,
    popcount_words,
    unpack_signature,
    words_for,
)


def random_signatures(rng, size, count):
    return [rng.getrandbits(size) for _ in range(count)]


class TestWordGeometry:
    def test_words_for(self):
        assert words_for(0) == 1
        assert words_for(1) == 1
        assert words_for(64) == 1
        assert words_for(65) == 2
        assert words_for(2048) == 32

    def test_words_for_rejects_negative(self):
        with pytest.raises(AnalysisError, match=">= 0"):
            words_for(-1)


class TestPackUnpack:
    @pytest.mark.parametrize("size", [1, 7, 63, 64, 65, 128, 300, 1024])
    def test_roundtrip_is_identity(self, size):
        rng = random.Random(size)
        for sig in random_signatures(rng, size, 20):
            assert unpack_signature(pack_signature(sig, size)) == sig

    def test_bit_order_preserved(self):
        # Bit i of the big int lives in word i // 64, position i % 64.
        for i in (0, 1, 63, 64, 100, 127):
            row = pack_signature(1 << i, 128)
            assert int(row[i // 64]) == 1 << (i % 64)

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(AnalysisError, match="beyond"):
            pack_signature(1 << 10, 10)
        with pytest.raises(AnalysisError, match="non-negative"):
            pack_signature(-1, 10)


class TestMatrixConversion:
    @pytest.mark.parametrize("size", [5, 64, 100, 257])
    def test_bigint_roundtrip(self, size):
        rng = random.Random(size * 7)
        sigs = random_signatures(rng, size, 17)
        m = PackedSignatureMatrix.from_bigints(sigs, size)
        assert len(m) == 17
        assert m.to_bigints() == sigs
        for i, sig in enumerate(sigs):
            assert m.row_bigint(i) == sig

    def test_empty_matrix(self):
        m = PackedSignatureMatrix.from_bigints([], 12)
        assert len(m) == 0
        assert m.to_bigints() == []
        assert list(m.popcount_rows()) == []

    @pytest.mark.parametrize("size", [0, 1, 64, 65, 4096])
    @pytest.mark.parametrize("rows", [0, 1])
    def test_zero_and_one_row_roundtrip(self, rows, size):
        sigs = random_signatures(random.Random(size), size, rows)
        m = PackedSignatureMatrix.from_bigints(sigs, size)
        assert len(m) == rows
        assert m.to_bigints() == sigs

    def test_rejects_oversized_signature(self):
        with pytest.raises(AnalysisError, match="beyond"):
            PackedSignatureMatrix.from_bigints([1 << 8], 8)

    @pytest.mark.parametrize(
        "size,sigs",
        [
            (64, [1 << 63, (1 << 64) - 1, 0, (1 << 63) | 5]),  # bit 63
            (37, [(1 << 37) - 1, 1 << 36, 0, 12345]),  # partial word
            (48, []),  # empty
            (130, [(1 << 129) | (1 << 63), 1 << 64, 0, (1 << 130) - 1]),
        ],
        ids=["bit63", "partial-word", "empty", "multi-word"],
    )
    def test_to_bigints_fast_path_roundtrip(self, size, sigs):
        m = PackedSignatureMatrix.from_bigints(sigs, size)
        out = m.to_bigints()
        assert out == sigs
        assert all(type(sig) is int for sig in out)
        assert PackedSignatureMatrix.from_bigints(out, size) == m

    @pytest.mark.parametrize("size", [12, 64, 200])
    def test_from_bigints_is_writable(self, size):
        # Table builds compact packed big-int rows in place.
        m = PackedSignatureMatrix.from_bigints([1, 0, 3], size)
        m.compact(np.array([0, 2]))
        assert m.to_bigints() == [1, 3]

    def test_equality(self):
        a = PackedSignatureMatrix.from_bigints([3, 5], 8)
        b = PackedSignatureMatrix.from_bigints([3, 5], 8)
        c = PackedSignatureMatrix.from_bigints([3, 6], 8)
        assert a == b
        assert a != c


class TestPopcounts:
    @pytest.mark.parametrize("size", [9, 64, 130, 1000])
    def test_popcount_rows_matches_bit_count(self, size):
        rng = random.Random(size * 3)
        sigs = random_signatures(rng, size, 25)
        m = PackedSignatureMatrix.from_bigints(sigs, size)
        assert list(m.popcount_rows()) == [s.bit_count() for s in sigs]

    @pytest.mark.parametrize("size", [9, 64, 130, 1000])
    def test_and_popcount_matches_bigint(self, size):
        rng = random.Random(size * 5)
        sigs = random_signatures(rng, size, 25)
        m = PackedSignatureMatrix.from_bigints(sigs, size)
        for probe in random_signatures(rng, size, 5):
            row = pack_signature(probe, size)
            expected = [(s & probe).bit_count() for s in sigs]
            assert list(m.and_popcount(row)) == expected
            assert list(and_popcount(row, m)) == expected

    def test_and_popcount_rejects_mismatched_row(self):
        m = PackedSignatureMatrix.from_bigints([1], 64)
        with pytest.raises(AnalysisError, match="word count"):
            m.and_popcount(pack_signature(1, 130))

    def test_popcount_words_shapes(self):
        a = np.array([[1, 3], [7, 255]], dtype=np.uint64)
        assert popcount_words(a).sum() == 1 + 2 + 3 + 8


class TestTake:
    def test_take_reorders_rows(self):
        sigs = [0b1, 0b11, 0b111]
        m = PackedSignatureMatrix.from_bigints(sigs, 8)
        t = m.take([2, 0])
        assert t.to_bigints() == [0b111, 0b1]
        assert t.size == 8

    @pytest.mark.parametrize(
        "order",
        [np.array([2, 0, 2]), [2, 0, 2], range(2, -1, -1), [], np.array([])],
        ids=["ndarray", "list", "range", "empty-list", "empty-ndarray"],
    )
    def test_take_index_kinds(self, order):
        sigs = [0b1, 0b11, 0b111]
        m = PackedSignatureMatrix.from_bigints(sigs, 8)
        t = m.take(order)
        assert t.to_bigints() == [sigs[i] for i in order]
        assert t.words.shape == (len(order), 1)

    def test_take_generator(self):
        m = PackedSignatureMatrix.from_bigints([5, 6], 8)
        assert m.take(i for i in (1, 0)).to_bigints() == [6, 5]


class TestGatherColumns:
    @pytest.mark.parametrize("chunk_words", [1, 3, 1 << 16])
    @pytest.mark.parametrize("sizes", [(0, 70), (100, 30), (5, 64, 129)])
    def test_joined_blocks_bit_by_bit(self, monkeypatch, chunk_words, sizes):
        # Column ``c`` of the joined block: ``c`` of the first matrix
        # below its size, then on through the next ones.
        monkeypatch.setattr(packed, "_CHUNK_WORDS", chunk_words)
        rng = random.Random(sum(sizes))
        blocks = [random_signatures(rng, size, 9) for size in sizes]
        matrices = tuple(
            PackedSignatureMatrix.from_bigints(sigs, size)
            for sigs, size in zip(blocks, sizes, strict=True)
        )
        joined = [0] * 9
        offset = 0
        for sigs, size in zip(blocks, sizes, strict=True):
            joined = [
                j | (s << offset)
                for j, s in zip(joined, sigs, strict=True)
            ]
            offset += size
        order = list(range(offset))
        rng.shuffle(order)
        order = order[: offset - 3] + order[:2]  # drops and repeats
        got = gather_columns(matrices, order)
        assert got.size == len(order)
        assert got.to_bigints() == [
            sum(((j >> c) & 1) << i for i, c in enumerate(order))
            for j in joined
        ]

    def test_rejects_bad_columns_and_row_counts(self):
        a = PackedSignatureMatrix.from_bigints([1, 2], 8)
        b = PackedSignatureMatrix.from_bigints([3], 8)
        with pytest.raises(AnalysisError, match="outside the 16-bit"):
            gather_columns((a, a), [16])
        with pytest.raises(AnalysisError, match="row counts"):
            gather_columns((a, b), [0])


class TestCompact:
    @pytest.mark.parametrize("chunk_words", [1, 3, 1 << 16])
    def test_keeps_rows_in_place(self, monkeypatch, chunk_words):
        import repro.logic.packed as packed

        monkeypatch.setattr(packed, "_CHUNK_WORDS", chunk_words)
        rng = random.Random(3)
        sigs = [rng.getrandbits(130) if rng.random() < 0.6 else 0
                for _ in range(50)]
        m = PackedSignatureMatrix.from_bigints(sigs, 130)
        buffer = m.words
        kept = np.flatnonzero([bool(s) for s in sigs])
        m.compact(kept)
        assert m.to_bigints() == [s for s in sigs if s]
        assert np.shares_memory(m.words, buffer)

    def test_keep_nothing_and_everything(self):
        m = PackedSignatureMatrix.from_bigints([1, 2, 3], 8)
        m.compact(np.arange(3))
        assert m.to_bigints() == [1, 2, 3]
        m.compact(np.zeros(0, dtype=np.intp))
        assert len(m) == 0


def _first_equal_oracle(rows):
    """Position of the first row equal to each row (a linear scan)."""
    return [
        next(j for j in range(k + 1) if rows[j] == rows[k])
        for k in range(len(rows))
    ]


class TestFirstEqualRows:
    def _matrix(self, seed, size=200, count=60):
        rng = random.Random(seed)
        pool = [rng.getrandbits(size) for _ in range(12)] + [0]
        sigs = [rng.choice(pool) for _ in range(count)]
        return sigs, PackedSignatureMatrix.from_bigints(sigs, size)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_rows(self, seed):
        sigs, m = self._matrix(seed)
        assert m.first_equal_rows().tolist() == _first_equal_oracle(sigs)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_row_subset_in_given_order(self, seed):
        sigs, m = self._matrix(seed)
        rows = np.array(random.Random(seed).sample(range(len(sigs)), 40))
        expect = _first_equal_oracle([sigs[i] for i in rows])
        assert m.first_equal_rows(rows).tolist() == expect

    def test_empty(self):
        m = PackedSignatureMatrix.from_bigints([], 64)
        assert m.first_equal_rows().tolist() == []
        assert m.first_equal_rows(np.zeros(0, dtype=np.intp)).tolist() == []

    def test_hash_collisions_never_merge_different_rows(self, monkeypatch):
        import repro.logic.packed as packed

        monkeypatch.setattr(
            packed, "_row_hashes", lambda w: np.zeros(len(w), np.uint64)
        )
        sigs, m = self._matrix(4)
        rep = m.first_equal_rows().tolist()
        for k, r in enumerate(rep):
            assert r <= k and sigs[r] == sigs[k]
        # One hash group: only copies of row 0 find their representative.
        assert rep == [0 if s == sigs[0] else k for k, s in enumerate(sigs)]

    def test_hashes_are_fixed(self):
        from repro.logic.packed import _row_hashes

        words = np.array([[1, 2], [2, 1], [1, 2]], dtype=np.uint64)
        hashes = _row_hashes(words)
        assert hashes[0] == hashes[2] != hashes[1]
        assert np.array_equal(_row_hashes(words.copy()), hashes)
