"""Sampled vector universes: the substrate of the sampled-U backend.

The paper's analysis is defined over the set ``U`` of *all* input
vectors, which the exhaustive engine materializes as ``2**p``-bit
signatures — practical only up to
:data:`~repro.logic.bitops.MAX_EXHAUSTIVE_INPUTS` inputs.  A
:class:`VectorUniverse` generalizes the signature bit-space: it is an
explicit vector-index ↔ bit-index mapping, either the identity over all
of ``U`` (exhaustive) or a seeded random sample of ``K`` vectors.  A
detection signature built over a sampled universe has ``K`` meaningful
bits, bit ``i`` meaning "sampled vector ``vectors[i]`` detects the
fault", and its popcount is (after scaling) an unbiased estimator of the
exact ``N(f)`` / ``M(g, f)`` popcounts.

Estimator notes
---------------
With ``k`` of ``K`` sampled vectors detecting a fault, the estimate of
the exact count over ``|U| = 2**p`` vectors is ``k * 2**p / K``.  Under
without-replacement sampling (the default) this is the standard
finite-population estimate; its normal-approximation confidence interval
carries the finite-population correction ``sqrt((N - K) / (N - 1))``,
which collapses to a zero-width interval at ``K = N`` — the full-sample
draw degenerates to the exact exhaustive universe (and is canonicalized
to it by :func:`draw_universe`).

Replacement draws are *deduplicated*: :func:`draw_universe` tops the
draw up with further i.i.d. vectors until ``K`` distinct ones are
collected (sequential rejection of an i.i.d. uniform stream yields a
uniform ``K``-subset of ``U``, so the estimators above stay unbiased).
Earlier revisions let duplicate draws occupy distinct signature bits,
which silently double-counted those vectors in every popcount-derived
quantity downstream of the table — detection multiplicities, Definition
1/2 counting, and the ``nmin`` sample-space records all treated the
``K`` bits as ``K`` distinct vectors.  The ``replacement`` flag now only
selects the draw mechanism and the *conservative* interval (no
finite-population correction).

Documented edge cases (exercised by ``tests/faultsim/test_sampling_edges``):

* ``K = 1`` universes are valid; intervals are wide but finite.
* ``sample_count = 0`` yields the degenerate-but-informative Wilson
  interval ``[0, high]`` — it never divides by zero.
* ``confidence`` outside the open interval ``(0, 1)`` raises
  :class:`~repro.errors.AnalysisError` (a 100%-confidence normal
  interval would be infinite; a 0%-confidence one is meaningless).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from statistics import NormalDist
from typing import TYPE_CHECKING

from repro.errors import AnalysisError
from repro.logic.bitops import (
    MAX_EXHAUSTIVE_INPUTS,
    all_ones_mask,
    iter_set_bits,
)
from repro.logic.packed import PackedSignatureMatrix, _np

if TYPE_CHECKING:
    from repro.logic.packed import F64Array, I64Array


@dataclass(frozen=True)
class VectorUniverse:
    """Bit-index space of detection signatures, with its vector mapping.

    Attributes
    ----------
    num_inputs:
        ``p`` — the circuit's primary-input count; ``U`` has ``2**p``
        vectors.
    vectors:
        ``None`` for the exhaustive universe (bit ``v`` ↔ vector ``v``);
        otherwise the sampled vectors in bit order (bit ``i`` ↔
        ``vectors[i]``).  Without-replacement samples are kept sorted and
        unique, so a full-coverage sample is byte-identical to the
        exhaustive mapping.
    replacement:
        Whether the sample was drawn with replacement (affects the
        confidence intervals; exhaustive universes are always False).
    """

    num_inputs: int
    vectors: tuple[int, ...] | None = None
    replacement: bool = False
    _bit_index: dict[int, int] | None = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_inputs < 0:
            raise AnalysisError(
                f"num_inputs must be >= 0, got {self.num_inputs}"
            )
        if self.vectors is None:
            return
        if not self.vectors:
            raise AnalysisError("a sampled universe needs at least 1 vector")
        space = self.space
        prev = -1
        for v in self.vectors:
            if not 0 <= v < space:
                raise AnalysisError(
                    f"sampled vector {v} out of range for "
                    f"{self.num_inputs} inputs"
                )
            if v < prev or (v == prev and not self.replacement):
                raise AnalysisError(
                    "sampled vectors must be sorted and (without "
                    "replacement) unique"
                )
            prev = v

    def __getstate__(self) -> dict:
        """Drop lazily-built caches from the pickle payload.

        Universes ride along in every pool/queue task, so a populated
        ``_bit_index`` (one dict entry per sampled vector) would bloat
        each payload with derived data the receiver rebuilds lazily on
        first :meth:`bit_of` anyway.  Subclass caches marked the same
        way (``init=False`` with a ``None`` default, e.g. the stratified
        universe's stratum masks) are dropped by the same rule.
        """
        state = dict(self.__dict__)
        for f in fields(self):
            if not f.init and f.default is None:
                state[f.name] = None
        return state

    # -- geometry -------------------------------------------------------
    @property
    def space(self) -> int:
        """``|U| = 2**p`` — the exact universe size."""
        return 1 << self.num_inputs

    @property
    def size(self) -> int:
        """Number of signature bits (``K`` when sampled, ``2**p`` else)."""
        return self.space if self.vectors is None else len(self.vectors)

    @property
    def exhaustive(self) -> bool:
        return self.vectors is None

    @property
    def exact(self) -> bool:
        """True when popcounts over this universe are exact, not estimates."""
        return self.vectors is None

    @property
    def scale(self) -> float:
        """Multiplier turning a sample popcount into a ``|U|``-scale estimate."""
        return self.space / self.size

    @property
    def mask(self) -> int:
        """All-ones signature over this universe's bit space."""
        if self.vectors is None:
            return all_ones_mask(self.num_inputs)
        return (1 << len(self.vectors)) - 1

    # -- bit <-> vector mapping ----------------------------------------
    def vector_at(self, bit: int) -> int:
        """Decimal input vector behind signature bit ``bit``."""
        if not 0 <= bit < self.size:
            raise AnalysisError(
                f"bit {bit} out of range for universe of size {self.size}"
            )
        return bit if self.vectors is None else self.vectors[bit]

    def bit_of(self, vector: int) -> int | None:
        """Signature bit holding ``vector`` (None when not sampled)."""
        if not 0 <= vector < self.space:
            raise AnalysisError(
                f"vector {vector} out of range for {self.num_inputs} inputs"
            )
        if self.vectors is None:
            return vector
        index = self._bit_index
        if index is None:
            index = {}
            for i, v in enumerate(self.vectors):
                index.setdefault(v, i)
            object.__setattr__(self, "_bit_index", index)
        return index.get(vector)

    def signature_vectors(self, signature: int) -> list[int]:
        """Decimal vectors behind a signature's set bits (bit order)."""
        if self.vectors is None:
            return list(iter_set_bits(signature))
        return [self.vectors[b] for b in iter_set_bits(signature)]

    # -- estimation dispatch -------------------------------------------
    # Subclasses with non-uniform sampling designs (the stratified
    # universe of ``repro.adaptive``) override these three methods; the
    # detection-table estimate queries and the adaptive stopping rule
    # route through them so every universe carries its own estimator.
    def count_rows(self, matrix: PackedSignatureMatrix) -> I64Array:
        """Per-stratum popcounts of packed rows, a ``(strata, rows)``
        array; a uniform universe is one stratum."""
        return matrix.popcount_rows()[None, :]

    def estimate_rows(self, matrix: PackedSignatureMatrix) -> F64Array:
        """Unbiased ``|U|``-scale estimates of packed rows' exact counts."""
        counts = self.count_rows(matrix)[0].astype(_np.float64)
        return counts if self.exact else counts * self.scale

    def interval_rows(
        self, counts: I64Array, confidence: float = 0.95
    ) -> tuple[F64Array, F64Array, F64Array]:
        """``(estimate, low, high)`` for every column of a
        :meth:`count_rows` array.

        The Wilson interval of :func:`count_interval`, with the same
        float operations in the same order, so each column equals the
        scalar interval bit for bit.
        """
        count = counts[0]
        if self.exact:
            est = count.astype(_np.float64)
            return est, est, est
        est = count * self.scale
        k = self.size
        n = self.space
        k_eff = float(k)
        if not self.replacement and n > 1:
            fpc = (n - k) / (n - 1)
            if fpc <= 0.0:
                return est, est, est
            k_eff = k / fpc
        z = confidence_z(confidence)
        z2 = z * z
        phat = count / k
        denom = 1.0 + z2 / k_eff
        center = (phat + z2 / (2.0 * k_eff)) / denom
        spread = phat * (1.0 - phat) / k_eff + z2 / (4.0 * k_eff * k_eff)
        half = z * _np.sqrt(spread) / denom
        low = _np.maximum(0.0, (center - half) * float(n))
        high = _np.minimum(float(n), (center + half) * float(n))
        return est, low, high

    def interval_for_counts(
        self, counts: I64Array, confidence: float = 0.95
    ) -> "CountEstimate":
        """Confidence interval behind :meth:`estimate_rows`, for one
        row's per-stratum counts (a column of :meth:`count_rows`)."""
        est, low, high = self.interval_rows(counts[:, None], confidence)
        return CountEstimate(
            int(counts.sum()),
            float(est[0]),
            float(low[0]),
            float(high[0]),
            confidence,
        )


def draw_universe(
    num_inputs: int,
    samples: int,
    seed: int = 0,
    replacement: bool = False,
) -> VectorUniverse:
    """Seeded random universe of ``samples`` vectors for a ``p``-input circuit.

    Without replacement (default) the draw is uniform over all
    ``samples``-subsets of ``U``; the degenerate full draw
    (``samples == 2**p``) canonicalizes to the exhaustive universe, so
    sampled analyses converge *exactly* to the paper's as ``K`` grows.

    With ``replacement`` the draw is an i.i.d. uniform stream *topped up
    to ``samples`` distinct vectors*: duplicates are rejected and the
    stream continues until ``samples`` unique vectors are collected
    (which is itself a uniform ``samples``-subset).  Earlier revisions
    kept the duplicates as distinct signature bits, silently biasing
    every downstream quantity that treats bits as vectors; the flag now
    changes only the draw mechanism and the interval width (no
    finite-population correction is applied).  Consequently a
    replacement draw also cannot exceed ``2**p`` distinct vectors.
    """
    if num_inputs < 0:
        raise AnalysisError(f"num_inputs must be >= 0, got {num_inputs}")
    if samples < 1:
        raise AnalysisError(f"samples must be >= 1, got {samples}")
    space = 1 << num_inputs
    rng = random.Random(seed)
    if samples > space:
        raise AnalysisError(
            f"cannot draw {samples} distinct vectors from a universe of "
            f"{space} (2**{num_inputs}); duplicate draws would occupy "
            f"distinct signature bits and bias the estimators — lower "
            f"--samples"
        )
    if samples == space:
        if num_inputs > MAX_EXHAUSTIVE_INPUTS:
            raise AnalysisError(
                f"a full sample of 2**{num_inputs} vectors is not "
                f"materializable; lower --samples"
            )
        return VectorUniverse(num_inputs)
    if replacement:
        seen: set[int] = set()
        while len(seen) < samples:
            seen.add(rng.randrange(space))
        return VectorUniverse(
            num_inputs, tuple(sorted(seen)), replacement=True
        )
    drawn = sorted(rng.sample(range(space), samples))
    return VectorUniverse(num_inputs, tuple(drawn))


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class CountEstimate:
    """Estimate of an exact popcount from a sampled one.

    ``estimate`` is unbiased; ``(low, high)`` is the normal-approximation
    confidence interval (with finite-population correction when sampling
    without replacement).  On exact universes the interval is degenerate:
    ``low == estimate == high``.
    """

    sample_count: int
    estimate: float
    low: float
    high: float
    confidence: float

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def covers(self, exact: float) -> bool:
        return self.low <= exact <= self.high


def confidence_z(confidence: float) -> float:
    """Two-sided normal quantile for a confidence level in (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def estimate_count(universe: VectorUniverse, sample_count: int) -> float:
    """Unbiased ``|U|``-scale estimate of a popcount over ``universe``."""
    if not 0 <= sample_count <= universe.size:
        raise AnalysisError(
            f"sample_count {sample_count} out of range for universe of "
            f"size {universe.size}"
        )
    if universe.exact:
        return float(sample_count)
    return sample_count * universe.scale


def count_interval(
    universe: VectorUniverse,
    sample_count: int,
    confidence: float = 0.95,
) -> CountEstimate:
    """Confidence interval for the exact count behind a sampled popcount.

    Wilson score interval (which stays informative at observed
    proportions of exactly 0 or 1, where the plain Wald interval
    collapses to zero width) over an effective sample size inflated by
    the finite-population correction when sampling without replacement.
    The interval always brackets the unbiased point estimate.

    Edge cases are total: ``sample_count = 0`` (or ``= K``) returns the
    one-sided Wilson interval, a ``K = 1`` universe returns a wide but
    finite interval, an exhausted without-replacement sample returns the
    degenerate exact interval, and ``confidence`` outside ``(0, 1)``
    raises :class:`AnalysisError` via :func:`confidence_z`.
    """
    est = estimate_count(universe, sample_count)
    if universe.exact:
        return CountEstimate(sample_count, est, est, est, confidence)
    k = universe.size
    n = universe.space
    phat = sample_count / k
    # Effective sample size: without replacement, the variance shrinks by
    # the FPC (n - k) / (n - 1), equivalent to observing k / fpc draws.
    k_eff = float(k)
    if not universe.replacement and n > 1:
        fpc = (n - k) / (n - 1)
        if fpc <= 0.0:
            return CountEstimate(sample_count, est, est, est, confidence)
        k_eff = k / fpc
    z = confidence_z(confidence)
    z2 = z * z
    denom = 1.0 + z2 / k_eff
    center = (phat + z2 / (2.0 * k_eff)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / k_eff + z2 / (4.0 * k_eff * k_eff))
        / denom
    )
    low = max(0.0, (center - half) * n)
    high = min(float(n), (center + half) * n)
    return CountEstimate(sample_count, est, low, high, confidence)


def estimate_nmin(
    universe: VectorUniverse, nmin: int | None
) -> float | int | None:
    """``|U|``-scale estimate of a sample-space ``nmin`` value.

    ``nmin(g, f) = N(f) - M(g, f) + 1``; the difference of two popcounts
    scales by ``universe.scale``, the ``+1`` does not.  Exact universes
    return the value unchanged; ``None`` (no guarantee) passes through.
    """
    if nmin is None:
        return None
    if universe.exact or nmin < 1:
        return nmin
    return universe.scale * (nmin - 1) + 1.0
