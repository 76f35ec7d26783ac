"""Worst-case analysis (Section 2 of the paper).

For a target fault ``f`` and an untargeted fault ``g``::

    nmin(g, f) = N(f) - M(g, f) + 1

is the smallest number of detections of ``f`` that *forces* a test of
``g`` into the test set: ``f`` can be detected ``N(f) - M(g, f)`` times
using only vectors outside ``T(g)``, and one more detection must use a
vector in ``T(f) ∩ T(g)``.  Minimizing over all target faults that
overlap ``g``::

    nmin(g) = min { nmin(g, f) : f ∈ F(g) },   F(g) = {f : T(f) ∩ T(g) ≠ ∅}

is the smallest ``n`` such that **every** n-detection test set for ``F``
is guaranteed to detect ``g``.  When ``F(g)`` is empty no value of ``n``
gives a guarantee; ``nmin(g)`` is reported as ``None`` (stored as 0,
since a real ``nmin`` is at least 1, and treated as +∞ by all threshold
queries).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from repro.errors import AnalysisError
from repro.faultsim.detection import DetectionTable
from repro.logic.packed import (
    PackedSignatureMatrix,
    _np,
    popcount_words,
    unpack_bits,
    words_for,
)

#: Row-block bounds of the packed passes over ``G`` rows: the scan's
#: buffers and the estimate and hit-count temporaries scale with them.
_G_BLOCK_ROWS = 2048
_G_BLOCK_BYTES = 1 << 22


def g_block_rows(size: int) -> int:
    """Rows per block of a packed pass over ``size``-bit rows."""
    return min(_G_BLOCK_ROWS, _G_BLOCK_BYTES // (words_for(size) * 8) or 1)


class NminRecord(NamedTuple):
    """Worst-case result for one untargeted fault.

    ``nmin`` is ``None`` when no target fault overlaps ``g`` (no guarantee
    at any ``n``).  ``witness`` is the index (into the target table) of a
    target fault achieving the minimum, and ``witness_overlap`` its
    ``M(g, f)``.  :attr:`WorstCaseAnalysis.records` builds these from
    the analysis arrays on each access.
    """

    fault_index: int
    nmin: int | None
    witness: int | None
    witness_overlap: int


def nmin_for_untargeted_fault(
    target_signatures: Sequence[int],
    g_signature: int,
    target_counts: list[int] | None = None,
    sorted_order: list[int] | None = None,
) -> tuple[int | None, int | None, int]:
    """``(nmin(g), witness index, witness overlap)`` for one fault.

    The scalar scan over big-int signatures: the reference definition
    that :class:`WorstCaseAnalysis`'s array scan is tested against.
    ``target_signatures`` are the target rows as big ints (e.g. a
    table's ``packed.to_bigints()``).
    ``target_counts`` lets callers pass the precomputed ``N(f)`` list;
    ``sorted_order`` the target indices sorted by ascending ``N(f)``.
    Scanning targets in ascending ``N(f)`` allows a sharp early exit:
    since ``M(g, f) <= min(N(f), N(g))``, every target satisfies
    ``nmin(g, f) >= N(f) - N(g) + 1``, so once that bound reaches the
    best value found, no later (larger-``N``) target can improve it.
    """
    if g_signature == 0:
        raise AnalysisError("nmin is undefined for an undetectable fault")
    # `is None`, not truthiness: an explicit empty count list (no target
    # faults) must not silently trigger a recompute.
    counts = target_counts
    if counts is None:
        counts = [sig.bit_count() for sig in target_signatures]
    if sorted_order is None:
        sorted_order = sorted(range(len(counts)), key=counts.__getitem__)
    n_g = g_signature.bit_count()
    best: int | None = None
    best_idx: int | None = None
    best_overlap = 0
    for idx in sorted_order:
        n_f = counts[idx]
        if best is not None and n_f - n_g + 1 >= best:
            break
        overlap = (target_signatures[idx] & g_signature).bit_count()
        if overlap == 0:
            continue
        candidate = n_f - overlap + 1
        if best is None or candidate < best:
            best = candidate
            best_idx = idx
            best_overlap = overlap
            if best == 1:
                break  # cannot improve
    return best, best_idx, best_overlap


class _PackedNminScan:
    """Batched, vectorized ascending-``N(f)`` nmin scan over packed words.

    The target table lends its words.  Targets are re-ordered by
    ascending ``N(f)`` once; untargeted faults are then scanned
    *together*, chunk of targets by chunk of targets, so
    every ``N(f) - popcount(sig_f & sig_g) + 1`` evaluation is part of a
    large numpy (or BLAS) sweep instead of a per-pair big-int operation.
    The scalar scan's early exit survives as a *masked prefix*: after
    each ascending-``N(f)`` chunk, the faults whose lower bound
    ``N(f) - N(g) + 1`` can no longer beat their best candidate drop out
    of the active set (within a chunk the bound-excluded tail rows are
    computed but can never win, since ``M(g, f) <= N(g)`` makes their
    candidates ``>= best``).  Duplicate target signatures are scanned
    once (``PackedSignatureMatrix.first_equal_rows`` over the
    ascending-``N(f)`` order) — a later duplicate's candidate equals its
    representative's, so under the scalar scan's strict-improvement
    rule it could never win nor change the witness; a duplicate the
    dedup leaves apart is scanned again, harmlessly.  Results —
    including witness choice on ties, via first-occurrence ``argmin`` —
    are identical to the scalar scan's.

    Two overlap kernels, picked per batch:

    * small universes — unpack both sides to 0/1 ``float32`` and compute
      chunk overlaps as one BLAS ``sgemm`` (exact: popcounts are far
      below the 2**24 float32 integer range);
    * otherwise — a per-target ``uint64`` AND + ``popcount`` row sweep,
      which avoids the 64×-larger unpacked operands; each row's
      popcounts are summed by a matrix-vector product over scratch
      buffers the sweep reuses.
    """

    #: First prefix chunk of each kernel; later chunks grow 4× up to
    #: ``_MAX_CHUNK`` (few rounds: per-round numpy overhead beats
    #: per-pair savings).  The row sweep pays per target row, and most
    #: faults reach ``nmin`` 1 within the first few targets, so it
    #: starts small: on ``keyb`` 8 rows scanned in 41 ms where 64 took
    #: 61 ms.  sgemm is cheap per target and starts wide.
    _FIRST_CHUNK = 64
    _FIRST_SWEEP_CHUNK = 8
    _MAX_CHUNK = 2048
    #: sgemm kernel limits: universe bits, and unpacked-bit bytes per batch.
    _GEMM_MAX_BITS = 1024
    _GEMM_MAX_BYTES = 1 << 28

    def __init__(
        self,
        target_table: DetectionTable,
        counts: list[int],
        sorted_order: list[int],
    ):
        # Scan each distinct signature once, keeping the first
        # occurrence in ascending-N(f) order as the representative
        # (== the witness the scalar scan would pick).
        self.size = target_table.universe.size
        packed = target_table.packed
        order = _np.asarray(sorted_order, dtype=_np.intp)
        rep = packed.first_equal_rows(order)
        self.order = order[rep == _np.arange(len(order))]
        self.counts_sorted = _np.asarray(counts, dtype=_np.int64)[self.order]
        self.matrix_sorted = packed.take(self.order)
        self._f_bits = None  # lazily unpacked float32 bits, sorted order

    def _use_gemm(self, num_g: int) -> bool:
        if self.size > self._GEMM_MAX_BITS:
            return False
        width = self.matrix_sorted.words.shape[1] * 64
        return num_g * width * 4 <= self._GEMM_MAX_BYTES

    def scan_batch(self, g_words):
        """``(nmin(g), witness, witness overlap)`` for a block of faults.

        ``g_words`` is a ``(num_g, words)`` ``uint64`` block over the
        same universe as the target matrix.  Returns three ``int32``
        arrays; a fault with no overlapping target has ``nmin`` 0,
        witness -1 and overlap 0.
        """
        num_g = g_words.shape[0]
        counts = self.counts_sorted
        num_f = len(counts)
        # float64 "best" holds either kernel's candidates exactly
        # (popcounts are far below 2**53); +inf means no overlap yet.
        best = _np.full(num_g, _np.inf)
        best_pos = _np.zeros(num_g, dtype=_np.intp)
        n_gs = popcount_words(g_words).sum(axis=1, dtype=_np.int64)
        active = _np.arange(num_g, dtype=_np.intp)
        use_gemm = self._use_gemm(num_g)
        # Overlaps are popcount sums, exact in float32 below 2**24 bits.
        real = _np.float32 if self.size < 1 << 24 else _np.float64
        counts_cast = counts.astype(real)
        sentinel = real(_np.inf)
        if use_gemm:
            # Dot products of 0/1 bit planes are popcount(a & b).
            if self._f_bits is None:
                f_words = self.matrix_sorted.words
                self._f_bits = unpack_bits(f_words).astype(_np.float32)
            g_bits = unpack_bits(g_words).astype(_np.float32)
        else:
            # Scratch for the row sweep, reused by every target row: a
            # fresh block-sized temporary per row would be mapped and
            # faulted in anew each time.
            gathered = _np.empty_like(g_words)
            anded = _np.empty_like(g_words)
            pops = _np.empty(g_words.shape, dtype=_np.uint8)
            pops_real = _np.empty(g_words.shape, dtype=real)
            ones = _np.ones(g_words.shape[1], dtype=real)
        start = 0
        chunk = self._FIRST_CHUNK if use_gemm else self._FIRST_SWEEP_CHUNK
        while start < num_f and active.size:
            stop = min(start + chunk, num_f)
            whole = active.size == num_g
            if use_gemm:
                lhs = g_bits if whole else g_bits[active]
                overlaps = lhs @ self._f_bits[start:stop].T
            else:
                n = active.size
                g_act = g_words if whole else _np.take(
                    g_words, active, axis=0, out=gathered[:n], mode="clip"
                )
                rows = self.matrix_sorted.words
                # One contiguous row of overlaps per target; a row's
                # popcounts are summed by a matrix-vector product, about
                # twice as fast as an integer row reduction.
                by_target = _np.empty((stop - start, n), dtype=real)
                for i in range(start, stop):
                    _np.bitwise_and(g_act, rows[i], out=anded[:n])
                    pops_real[:n] = popcount_words(anded[:n], out=pops[:n])
                    _np.matmul(pops_real[:n], ones, out=by_target[i - start])
                overlaps = by_target.T
            # Candidates N(f) - M(g, f) + 1, computed in place over the
            # overlap buffer (overlap is recoverable as N(f) - cand + 1).
            no_overlap = overlaps == 0
            candidates = _np.subtract(
                counts_cast[start:stop], overlaps, out=overlaps
            )
            candidates += 1
            candidates[no_overlap] = sentinel
            # First-occurrence argmin == the scalar scan's strict-
            # improvement tie-break in ascending-N(f) order.
            at = candidates.argmin(axis=1)
            chunk_best = candidates[
                _np.arange(active.size), at
            ].astype(_np.float64)
            chunk_best[chunk_best == float(sentinel)] = _np.inf
            improved = chunk_best < best[active]
            winners = active[improved]
            best[winners] = chunk_best[improved]
            best_pos[winners] = start + at[improved]
            start = stop
            if start < num_f:
                bound = counts[start] - n_gs[active] + 1
                keep = (bound < best[active]) & (best[active] != 1)
                active = active[keep]
            chunk = min(chunk * 4, self._MAX_CHUNK)
        found = best != _np.inf
        pos = best_pos[found]
        nmin = _np.zeros(num_g, dtype=_np.int32)
        nmin[found] = best[found]
        witness = _np.full(num_g, -1, dtype=_np.int32)
        witness[found] = self.order[pos]
        overlap = _np.zeros(num_g, dtype=_np.int32)
        overlap[found] = counts[pos] - nmin[found] + 1
        return nmin, witness, overlap


class WorstCaseAnalysis:
    """Worst-case ``nmin`` of every untargeted fault, kept as arrays.

    Parameters
    ----------
    target_table:
        Detection table of the target faults ``F`` (stuck-at).
    untargeted_table:
        Detection table of the untargeted faults ``G`` (bridging);
        must contain detectable faults only and share the target table's
        vector universe (signature bits of both tables are intersected,
        so they must mean the same vectors).

    ``nmin``, ``witness`` and ``witness_overlap`` are ``int32`` arrays
    indexed by untargeted fault; ``nmin`` is 0 where no target fault
    overlaps ``g`` (the ``None`` of :class:`NminRecord`).

    On a sampled universe the values are computed in sample-bit space —
    internally consistent for test sets drawn from the sampled vectors —
    and :meth:`estimated_nmin_values` /
    :meth:`estimated_guaranteed_n` report the ``|U|``-scale Monte-Carlo
    estimates.  On the exhaustive universe the estimates equal the raw
    values.
    """

    def __init__(
        self,
        target_table: DetectionTable,
        untargeted_table: DetectionTable,
    ):
        if target_table.universe != untargeted_table.universe:
            raise AnalysisError(
                "target and untargeted tables were built over different "
                "vector universes; build both with the same backend"
            )
        # nmin depends on g only through T(g): map every fault to the
        # first fault with its signature, scan those representatives in
        # packed blocks, and fan their results back out.
        g_packed = untargeted_table.packed
        if not g_packed.words.any(axis=1).all():
            raise AnalysisError(
                "untargeted table contains undetectable faults; build it "
                "with drop_undetectable=True"
            )
        rep_of = g_packed.first_equal_rows()
        reps = _np.flatnonzero(rep_of == _np.arange(len(rep_of)))
        self.target_table = target_table
        self.untargeted_table = untargeted_table
        self.universe = untargeted_table.universe
        counts = target_table.counts()
        order = sorted(range(len(counts)), key=counts.__getitem__)
        scan = _PackedNminScan(target_table, counts, order)
        block = g_block_rows(scan.size)
        results = [_np.zeros(len(reps), dtype=_np.int32) for _ in range(3)]
        for start in range(0, len(reps), block):
            rows = g_packed.words[reps[start : start + block]]
            for out, part in zip(results, scan.scan_batch(rows), strict=True):
                out[start : start + block] = part
        # reps ascends, so a representative's rank is its slot.
        slot_of = _np.searchsorted(reps, rep_of)
        self.nmin, self.witness, self.witness_overlap = (
            values[slot_of] for values in results
        )

    @property
    def records(self) -> list[NminRecord]:
        """One :class:`NminRecord` per untargeted fault.

        Built from the arrays on every access and not cached: analyses
        sit in the service's hot tier, where a list of records per fault
        would cost far more memory than the arrays.
        """
        rows = zip(
            self.nmin.tolist(), self.witness.tolist(),
            self.witness_overlap.tolist(), strict=True,
        )
        return [
            NminRecord(j, nmin or None, witness if nmin else None, overlap)
            for j, (nmin, witness, overlap) in enumerate(rows)
        ]

    # ------------------------------------------------------------------
    # Threshold queries (Tables 2 and 3)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nmin)

    def nmin_values(self) -> list[int | None]:
        return [value or None for value in self.nmin.tolist()]

    def estimated_nmin_values(self) -> list[float | int | None]:
        """``|U|``-scale nmin estimates (== raw values when exact).

        ``nmin(g) - 1`` counts the vectors detecting the witness ``f``
        but not ``g`` (``T(f) \\ T(g)``), so each estimate is that
        signature's universe estimate plus one — which routes through
        the universe's own estimator and therefore stays unbiased under
        stratified (non-uniform) sampling.  On uniform universes this
        equals ``scale * (nmin - 1) + 1``, the closed form
        :func:`~repro.faultsim.sampling.estimate_nmin` uses.
        """
        values = self.nmin_values()
        if self.universe.exact:
            return list(values)
        size = self.universe.size
        f_words = self.target_table.packed.words
        g_words = self.untargeted_table.packed.words
        found = _np.flatnonzero(self.nmin)
        block = g_block_rows(size)
        out: list[float | int | None] = list(values)
        for start in range(0, len(found), block):
            js = found[start : start + block]
            # F's pad bits are zero, so the AND needs no universe mask.
            exclusive = f_words[self.witness[js]] & ~g_words[js]
            estimates = self.universe.estimate_rows(
                PackedSignatureMatrix(exclusive, size)
            ).tolist()
            for j, estimate in zip(js.tolist(), estimates, strict=True):
                out[j] = estimate + 1.0
        return out

    def estimated_guaranteed_n(self) -> float | int | None:
        """``|U|``-scale estimate of :meth:`guaranteed_n`.

        The worst estimated value (``None`` when any fault has no
        guarantee).  On uniform universes the estimate is monotone in
        the sample-space nmin, so this equals scaling
        :meth:`guaranteed_n` directly; on stratified universes the
        per-fault estimates decide.
        """
        worst: float | int | None = 0
        for value in self.estimated_nmin_values():
            if value is None:
                return None
            if value > worst:
                worst = value
        return worst

    def count_within(self, n: int) -> int:
        """Number of faults with ``nmin(g) <= n`` (guaranteed detection)."""
        return int(_np.count_nonzero((self.nmin > 0) & (self.nmin <= n)))

    def fraction_within(self, n: int) -> float:
        """Fraction of ``G`` guaranteed detected by any n-detection set."""
        return self.count_within(n) / len(self) if len(self) else 1.0

    def _at_least(self, n: int):
        return (self.nmin == 0) | (self.nmin >= n)

    def count_at_least(self, n: int) -> int:
        """Number of faults with ``nmin(g) >= n`` (``None`` counts)."""
        return int(_np.count_nonzero(self._at_least(n)))

    def indices_at_least(self, n: int) -> list[int]:
        """Untargeted-fault indices with ``nmin(g) >= n``."""
        return _np.flatnonzero(self._at_least(n)).tolist()

    def guaranteed_n(self) -> int | None:
        """Smallest ``n`` guaranteeing detection of *all* of ``G``.

        ``None`` when some fault has no guarantee at any ``n``.
        """
        if not self.nmin.all():
            return None
        return int(self.nmin.max(initial=0))

    def coverage_curve(self, n_values: list[int]) -> list[float]:
        """Percent of ``G`` guaranteed detected for each ``n`` (Table 2 row)."""
        return [100.0 * self.fraction_within(n) for n in n_values]
