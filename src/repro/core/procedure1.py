"""Procedure 1: random construction of n-detection test sets (Section 3).

The paper constructs ``K`` test sets ``T0 … TK-1`` simultaneously, growing
each from a 1-detection set to an ``nmax``-detection set:

    (1) set every ``Tk`` empty, ``n = 1``;
    (2) for every target fault ``fi`` and every ``Tk``: if ``fi`` is
        detected fewer than ``n`` times by ``Tk`` and ``T(fi) - Tk`` is
        not empty, add one random test from ``T(fi) - Tk``;
    (3) ``n += 1``; while ``n <= nmax`` go to (2).

After iteration ``n`` every ``Tk`` is an n-detection test set; a snapshot
of each ``Tk`` is recorded per iteration so detection probabilities can
be reported for every ``n``.

Two counting rules are supported (Section 4):

* **Definition 1** — the number of detections of ``fi`` is simply
  ``|Tk ∩ T(fi)|``.
* **Definition 2** — two tests only count as distinct detections when
  their common-bits vector ``tij`` does *not* detect ``fi`` (3-valued
  simulation).  The number of detections is computed greedily in test
  insertion order; when fewer than ``n`` countable detections exist, the
  procedure looks for candidate tests that *would* count, and falls back
  to Definition 1 when Definition 2 cannot reach ``n`` (as the paper
  prescribes).

The Definition 2 path batches all outstanding ``tij`` fault simulations
of one fault across the ``K`` test sets into dual-rail passes, and caches
pair verdicts per fault, which keeps the stricter counting tractable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import AnalysisError
from repro.faults.stuck_at import StuckAtFault
from repro.faultsim.detection import DetectionTable
from repro.faultsim.sampling import VectorUniverse
from repro.faultsim.threeval_detect import pair_checks_batch
from repro.logic.bitops import random_set_bit, set_bits


@dataclass
class NDetectionFamily:
    """K random n-detection test sets for every ``n`` in ``1..n_max``.

    ``snapshots[n - 1][k]`` is the bit-signature (over the construction
    universe) of test set ``Tk`` at the end of iteration ``n`` — an
    n-detection test set for the target faults.  ``final_orders[k]``
    lists ``Tk``'s tests in insertion order (needed by Definition 2 and
    by Table 4's listings).  When the family was built from a sampled
    detection table, ``universe`` carries the bit-index ↔ vector mapping
    and the sets are n-detection sets drawn from the sampled vectors.
    """

    num_inputs: int
    n_max: int
    num_sets: int
    counting: str
    snapshots: list[list[int]]
    final_orders: list[list[int]]
    universe: "VectorUniverse | None" = None

    def signature(self, n: int, k: int) -> int:
        """Bitset of ``Tk`` as an n-detection test set."""
        if not 1 <= n <= self.n_max:
            raise AnalysisError(f"n must be in [1, {self.n_max}], got {n}")
        return self.snapshots[n - 1][k]

    def test_set(self, n: int, k: int) -> list[int]:
        """Sorted signature bits of ``Tk`` after iteration ``n``.

        These are decimal vectors on the exhaustive universe; on a
        sampled universe use :meth:`test_vectors` for the decimal
        vectors behind the bits.
        """
        return set_bits(self.signature(n, k))

    def test_vectors(self, n: int, k: int) -> list[int]:
        """Decimal test vectors of ``Tk`` after iteration ``n``."""
        bits = self.test_set(n, k)
        if self.universe is None:
            return bits
        return sorted(self.universe.vector_at(b) for b in bits)

    def sizes(self, n: int) -> list[int]:
        """Test-set sizes at iteration ``n`` (one per k)."""
        return [sig.bit_count() for sig in self.snapshots[n - 1]]


# ----------------------------------------------------------------------
# Definition 2 support machinery
# ----------------------------------------------------------------------
class _PairOracle:
    """Cached, batched ``tij``-detects-f checks for one target fault.

    ``True`` for a pair means the two tests are *similar* (their common
    bits detect the fault), i.e. they do NOT count as two detections.

    Keys are signature-bit indices; ``vector_of`` maps them to the
    decimal vectors the 3-valued simulation needs (identity on the
    exhaustive universe, the sample mapping on sampled ones).
    """

    def __init__(self, circuit, fault: StuckAtFault, vector_of=None):
        self._circuit = circuit
        self._fault = fault
        self._vector_of = vector_of
        self._results: dict[tuple[int, int], bool] = {}
        self._pending: set[tuple[int, int]] = set()
        # The faulty machine only differs inside this cone; computing it
        # once per fault makes each flush a cone-resimulation.
        self._cone_order = circuit.fanout_cone_order(fault.lid)

    @staticmethod
    def _key(ti: int, tj: int) -> tuple[int, int]:
        return (ti, tj) if ti <= tj else (tj, ti)

    def lookup(self, ti: int, tj: int) -> bool | None:
        return self._results.get(self._key(ti, tj))

    def request(self, ti: int, tj: int) -> None:
        key = self._key(ti, tj)
        if key not in self._results:
            self._pending.add(key)

    def flush(self) -> None:
        if not self._pending:
            return
        pairs = sorted(self._pending)
        if self._vector_of is None:
            vector_pairs = pairs
        else:
            vector_pairs = [
                (self._vector_of(a), self._vector_of(b)) for a, b in pairs
            ]
        verdicts = pair_checks_batch(
            self._circuit, self._fault, vector_pairs,
            cone_order=self._cone_order,
        )
        for key, verdict in zip(pairs, verdicts, strict=True):
            self._results[key] = verdict
        self._pending.clear()


@dataclass
class _Def2State:
    """Greedy Definition 2 bookkeeping for one fault across all K sets."""

    pointers: list[int]
    accepted: list[list[int]]
    accepted_sets: list[set[int]]
    oracle: _PairOracle = field(repr=False, default=None)

    @classmethod
    def fresh(cls, num_sets: int, oracle: _PairOracle) -> "_Def2State":
        return cls(
            pointers=[0] * num_sets,
            accepted=[[] for _ in range(num_sets)],
            accepted_sets=[set() for _ in range(num_sets)],
            oracle=oracle,
        )


class _Procedure1:
    """One run of Procedure 1 (shared by both counting rules)."""

    def __init__(
        self,
        table: DetectionTable,
        n_max: int,
        num_sets: int,
        rng: random.Random,
        counting: str,
        max_def2_tries: int,
    ):
        if n_max < 1:
            raise AnalysisError(f"n_max must be >= 1, got {n_max}")
        if num_sets < 1:
            raise AnalysisError(f"need at least one test set, got {num_sets}")
        if counting not in ("def1", "def2"):
            raise AnalysisError(f"counting must be 'def1' or 'def2': {counting!r}")
        self.table = table
        self.circuit = table.circuit
        self.n_max = n_max
        self.K = num_sets
        self.rng = rng
        self.counting = counting
        self.max_def2_tries = max_def2_tries
        self.bitsets = [0] * num_sets
        self.orders: list[list[int]] = [[] for _ in range(num_sets)]
        self.snapshots: list[list[int]] = []
        self._def2_states: dict[int, _Def2State] = {}

    # -- shared helpers -------------------------------------------------
    def _add_test(self, k: int, t: int) -> None:
        self.bitsets[k] |= 1 << t
        self.orders[k].append(t)

    def run(self) -> NDetectionFamily:
        # The test sets are big-int bitsets, so the rows are too.
        signatures = self.table.packed.to_bigints()
        for n in range(1, self.n_max + 1):
            for i, sig in enumerate(signatures):
                if not sig:
                    continue  # undetectable target: never constrains a set
                if self.counting == "def1":
                    self._def1_fault_pass(sig, n)
                else:
                    self._def2_fault_pass(i, sig, n)
            self.snapshots.append(list(self.bitsets))
        return NDetectionFamily(
            num_inputs=self.circuit.num_inputs,
            n_max=self.n_max,
            num_sets=self.K,
            counting=self.counting,
            snapshots=self.snapshots,
            final_orders=self.orders,
            universe=self.table.universe,
        )

    # -- Definition 1 ----------------------------------------------------
    def _def1_fault_pass(self, sig: int, n: int) -> None:
        for k in range(self.K):
            tk = self.bitsets[k]
            if (tk & sig).bit_count() >= n:
                continue
            remaining = sig & ~tk
            if remaining:
                self._add_test(k, random_set_bit(remaining, self.rng))

    # -- Definition 2 ----------------------------------------------------
    def _def2_state(self, i: int) -> _Def2State:
        state = self._def2_states.get(i)
        if state is None:
            universe = self.table.universe
            vector_of = None if universe.exhaustive else universe.vector_at
            oracle = _PairOracle(
                self.circuit, self.table.faults[i], vector_of=vector_of
            )
            state = _Def2State.fresh(self.K, oracle)
            self._def2_states[i] = state
        return state

    def _def2_fault_pass(self, i: int, sig: int, n: int) -> None:
        state = self._def2_state(i)
        self._def2_catch_up(state, sig)
        self._def2_add_candidates(state, sig, n)

    def _def2_catch_up(self, state: _Def2State, sig: int) -> None:
        """Greedily count (in insertion order) tests added since last visit."""
        self._def2_prefetch(state, sig)
        active = list(range(self.K))
        while active:
            parked = []
            for k in active:
                if not self._def2_advance(state, sig, k):
                    parked.append(k)
            state.oracle.flush()
            active = parked

    _PREFETCH_WINDOW = 8

    def _def2_prefetch(self, state: _Def2State, sig: int) -> None:
        """Speculatively request every pair the greedy pass could need.

        For each set, the unprocessed detecting tests will be checked
        against the current accepted list and (possibly) against each
        other; requesting all of those pairs up front turns the advance
        loop into a single flush round instead of one round per verdict.
        """
        oracle = state.oracle
        window = self._PREFETCH_WINDOW
        for k in range(self.K):
            if len(state.accepted[k]) >= self.n_max:
                continue
            order = self.orders[k]
            ptr = state.pointers[k]
            if ptr >= len(order):
                continue
            pending = [
                t for t in order[ptr:] if (sig >> t) & 1
            ][:window]
            if not pending:
                continue
            accepted = state.accepted[k]
            for i, t in enumerate(pending):
                for a in accepted:
                    oracle.request(t, a)
                for t2 in pending[:i]:
                    oracle.request(t, t2)
        oracle.flush()

    def _def2_advance(self, state: _Def2State, sig: int, k: int) -> bool:
        """Advance set k's pointer; False when parked on missing verdicts."""
        order = self.orders[k]
        ptr = state.pointers[k]
        accepted = state.accepted[k]
        accepted_set = state.accepted_sets[k]
        oracle = state.oracle
        if len(accepted) >= self.n_max:
            # The count can never be required to exceed n_max; once the
            # quota is saturated this fault/set pair needs no more work.
            state.pointers[k] = len(order)
            return True
        while ptr < len(order):
            t = order[ptr]
            if not (sig >> t) & 1 or t in accepted_set:
                ptr += 1
                continue
            similar = False
            missing = False
            for a in accepted:
                verdict = oracle.lookup(t, a)
                if verdict is None:
                    oracle.request(t, a)
                    missing = True
                elif verdict:
                    similar = True
                    break
            if similar:
                ptr += 1
                continue
            if missing:
                state.pointers[k] = ptr
                return False
            accepted.append(t)
            accepted_set.add(t)
            ptr += 1
            if len(accepted) >= self.n_max:
                ptr = len(order)
                break
        state.pointers[k] = ptr
        return True

    def _candidate_queue(self, sig: int, k: int) -> list[int]:
        """Up to ``max_def2_tries`` distinct random tests from T(fi) - Tk.

        Small remainders are materialized and shuffled (exact); large ones
        are sampled by direct bit-index rejection, which avoids walking
        thousands of set bits per (fault, set, iteration) — the
        Definition 2 hot path.
        """
        remaining = sig & ~self.bitsets[k]
        if not remaining:
            return []
        budget = self.max_def2_tries
        if remaining.bit_count() <= 4 * budget:
            queue = set_bits(remaining)
            self.rng.shuffle(queue)
            return queue[:budget]
        width = remaining.bit_length()
        randrange = self.rng.randrange
        queue: list[int] = []
        seen: set[int] = set()
        tries = 0
        max_tries = 64 * budget
        while len(queue) < budget and tries < max_tries:
            tries += 1
            idx = randrange(width)
            if (remaining >> idx) & 1 and idx not in seen:
                seen.add(idx)
                queue.append(idx)
        if len(queue) < budget:  # pathological density: materialize once
            rest = [b for b in set_bits(remaining) if b not in seen]
            self.rng.shuffle(rest)
            queue.extend(rest[: budget - len(queue)])
        return queue

    def _def2_add_candidates(self, state: _Def2State, sig: int, n: int) -> None:
        """Add one countable test (or a Definition 1 fallback) per lacking set."""
        oracle = state.oracle
        # Per-k queue of candidate tests, in random order.  When the
        # bounded queue is exhausted without a countable candidate, the
        # Definition 1 fallback approximates the paper's "cannot reach n
        # under Definition 2" condition (see module docstring).
        candidate_queues: dict[int, list[int]] = {}
        need = [k for k in range(self.K) if len(state.accepted[k]) < n]
        for k in need:
            candidate_queues[k] = self._candidate_queue(sig, k)
        while need:
            wave: dict[int, int] = {}
            for k in need:
                queue = candidate_queues[k]
                if queue:
                    t = queue.pop()
                    wave[k] = t
                    accepted = state.accepted[k]
                    for a in accepted:
                        oracle.request(t, a)
                    # Prefetch the next queued candidates so a rejection
                    # does not cost an extra flush round.
                    for t_next in queue[-2:]:
                        for a in accepted:
                            oracle.request(t_next, a)
            oracle.flush()
            next_need = []
            for k in need:
                if k not in wave:
                    self._def2_fallback(state, sig, n, k)
                    continue
                t = wave[k]
                similar = any(
                    oracle.lookup(t, a) for a in state.accepted[k]
                )
                if not similar:
                    self._add_test(k, t)
                    state.accepted[k].append(t)
                    state.accepted_sets[k].add(t)
                elif candidate_queues[k]:
                    next_need.append(k)
                else:
                    self._def2_fallback(state, sig, n, k)
            need = next_need

    def _def2_fallback(self, state: _Def2State, sig: int, n: int, k: int) -> None:
        """Definition 1 fallback when Definition 2 cannot reach ``n``."""
        tk = self.bitsets[k]
        if (tk & sig).bit_count() >= n:
            return
        remaining = sig & ~tk
        if remaining:
            self._add_test(k, random_set_bit(remaining, self.rng))


def build_random_ndetection_sets(
    table: DetectionTable,
    n_max: int,
    num_sets: int,
    seed: int = 0,
    counting: str = "def1",
    max_def2_tries: int = 16,
) -> NDetectionFamily:
    """Run Procedure 1 and return the family of test-set snapshots.

    Parameters
    ----------
    table:
        Detection table of the target faults (``F``).
    n_max:
        Largest ``n`` (the paper uses 10).
    num_sets:
        ``K`` — the number of random test sets per ``n``.
    seed:
        RNG seed; equal seeds reproduce the family exactly.
    counting:
        ``"def1"`` (standard) or ``"def2"`` (sufficiently-different tests,
        Section 4).
    max_def2_tries:
        Definition 2 only — bound on candidate draws per fault/set/
        iteration before the Definition 1 fallback applies.
    """
    runner = _Procedure1(
        table, n_max, num_sets, random.Random(seed), counting, max_def2_tries
    )
    return runner.run()
