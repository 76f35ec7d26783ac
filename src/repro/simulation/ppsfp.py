"""Parallel-pattern single-fault-propagation (PPSFP) kernel.

The classic fault-simulation speedup: instead of simulating one input
vector at a time, pack a *batch* of vectors into machine words — bit
``i`` of every word is the value under vector ``i`` — and evaluate each
gate once per word with bitwise ops.  A per-fault, per-gate loop over
big-int signatures pays interpreter overhead for every cone gate of
every fault; this kernel removes that overhead along two axes at once:

* **patterns** — a universe of ``K`` vectors is ``ceil(K / 64)``
  ``numpy.uint64`` words per line (the exact layout of
  :class:`repro.logic.packed.PackedSignatureMatrix`: bit ``i`` lives in
  word ``i // 64`` at in-word position ``i % 64``, little-endian
  words);
* **faults** — a *batch* of ``B`` faults is simulated in one
  event-driven pass over the union of their fanout cones, every line
  carrying a ``(B, W)`` word block, so each cone gate costs one
  vectorized numpy op for all ``B`` faults instead of ``B`` Python-int
  expressions.

The result is a detection table that is *born packed*: the kernel
returns a :class:`~repro.logic.packed.PackedSignatureMatrix` whose rows
are the faults' detection signatures.  It is the one table engine: the
detection-table builder (:mod:`repro.faultsim.detection`) and the
gate-exhaustive tables (:mod:`repro.faults.cell_aware`) run it on every
universe, whatever its width.  The independent per-vector serial engine
(:mod:`repro.faultsim.serial`) is its oracle (see
``tests/test_ppsfp_differential.py``).

Every fault model is a *flip fault* (:func:`flip_matrix`): fault ``r``
flips its site on the vectors where, fault-free, every one of its
activation lines carries its activation value.  Each fault array gives
its model in that form (``faults.flip_terms(circuit)``; a stuck-at-``v``
fault flips its site where the site carries ``1 - v``).

* fault-free *base* words come from the boolean gate functions
  (:func:`repro.circuit.gate.eval_signature`'s semantics, lifted to
  word blocks) over the bit ↔ vector mapping the universe declares;
* the flipped site is forced *after* normal evaluation (inputs,
  branches, and gates alike — the ``forced``-after-evaluation override
  of :func:`repro.simulation.twoval.simulate_batch`); a fault activated
  nowhere detects nothing and never reaches the simulator;
* detection is any primary output differing from fault-free, i.e. the
  OR over outputs of ``faulty XOR base``.

A batch allocates nothing per line: word blocks come from a pool the
simulator keeps across batches, and a block goes back to it once the
last line reading it has been evaluated, so a batch holds only the cut
through its cone.  Blocks freed and allocated afresh per batch were
returned to the OS and faulted in again on the next batch; on ``cse``
(2,048-vector exhaustive universe) that was ~16,000 page faults per
bridging table.

Future direction (see ROADMAP): the same word-block layout extends to a
5-valued (0/1/X/D/D') encoding with two words per line per value-plane,
which would let this kernel serve :mod:`repro.faultsim.threeval_detect`
and the ATPG engines à la the multi-valued logic of the related
auto-test-pattern-generation work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence

    import numpy as np
    from numpy.typing import NDArray

    from repro.logic.packed import U64Array

    IntpArray = NDArray[np.intp]

from repro import obs
from repro.circuit.gate import GateType
from repro.circuit.netlist import Circuit, LineKind
from repro.errors import SimulationError
from repro.faultsim.sampling import VectorUniverse
from repro.logic.bitops import input_signature, iter_set_bits
from repro.logic.packed import (
    _np,
    PackedSignatureMatrix,
    pack_bits,
    pack_signature,
    words_for,
)
from repro.simulation.exhaustive import check_exhaustive_inputs

#: Per-line word budget for one fault batch: the batch row count is
#: ``min(MAX_BATCH_ROWS, BATCH_WORD_BUDGET // words_per_row)``.  The
#: budget keeps each per-line ``(B, W)`` block around 64 KiB — big
#: enough to amortize numpy dispatch, small enough to stay cache-warm.
BATCH_WORD_BUDGET = 1 << 13
MAX_BATCH_ROWS = 1024
#: Batch word blocks are allocated this many at a time, as one slab: a
#: slab is mapped on its own (over glibc's 128 KiB mmap threshold), so
#: it goes back to the OS whole when the simulator is dropped instead
#: of leaving holes in the heap.
_SLAB_BLOCKS = 8


def batch_rows_for(num_words: int) -> int:
    """Fault rows per batch: bounded by the per-line word budget."""
    return max(1, min(MAX_BATCH_ROWS, BATCH_WORD_BUDGET // max(1, num_words)))


# ----------------------------------------------------------------------
# Word-block gate evaluation (eval_signature lifted to uint64 blocks)
# ----------------------------------------------------------------------
#: Gates whose single-input evaluation returns the input array itself
#: — consumers must not mutate in place.
_IDENTITY_WHEN_UNARY = (GateType.AND, GateType.OR, GateType.XOR)

#: The other gates with inputs, as ``(fold ufunc, inverted)``; NOT
#: folds nothing.
_FOLDS = {
    GateType.NOT: (None, True),
    GateType.AND: (_np.bitwise_and, False),
    GateType.NAND: (_np.bitwise_and, True),
    GateType.OR: (_np.bitwise_or, False),
    GateType.NOR: (_np.bitwise_or, True),
    GateType.XOR: (_np.bitwise_xor, False),
    GateType.XNOR: (_np.bitwise_xor, True),
}


def _eval_into(
    gate_type: GateType,
    inputs: list[U64Array],
    mask: U64Array,
    out: U64Array,
) -> U64Array:
    """Evaluate a gate of :data:`_FOLDS` into ``out``; returns ``out``.

    Not for a unary AND/OR/XOR, whose value is its input.  A 1-D row is
    complemented by one XOR with ``mask``.  On a ``(B, W)`` block that
    broadcast XOR is slower than complementing whole and clipping the
    final word (``mask`` words are all-ones except the final one).
    """
    op, inverted = _FOLDS[gate_type]
    if op is None or len(inputs) == 1:
        out[...] = inputs[0]
    else:
        op(inputs[0], inputs[1], out=out)
        for block in inputs[2:]:
            op(out, block, out=out)
    if inverted and out.ndim == 1:
        _np.bitwise_xor(out, mask, out=out)
    elif inverted:
        _np.invert(out, out=out)
        out[..., -1:] &= mask[-1:]
    return out


def eval_words(
    gate_type: GateType, inputs: list[U64Array], mask: U64Array
) -> U64Array:
    """Evaluate a gate over ``uint64`` word blocks.

    ``inputs`` are arrays of shape ``(W,)`` or ``(B, W)`` (numpy
    broadcasting mixes them); ``mask`` is the universe's all-ones word
    row, bounding the complement for inverting gates exactly like
    :func:`~repro.circuit.gate.eval_signature`'s ``mask`` argument.  The
    returned array may alias an input (BUF, unary AND/OR/XOR) — callers
    treat word blocks as immutable.
    """
    gt = gate_type
    if gt is GateType.CONST0:
        return _np.zeros_like(mask)
    if gt is GateType.CONST1:
        return mask.copy()
    if not inputs:
        raise SimulationError(f"{gt.name} gate evaluated with no inputs")
    if gt is GateType.BUF or (
        len(inputs) == 1 and gt in _IDENTITY_WHEN_UNARY
    ):
        return inputs[0]
    if gt not in _FOLDS:
        raise SimulationError(f"unknown gate type: {gt!r}")
    # Rows of one shape (a cone pass) skip numpy's slower shape check.
    shapes = {block.shape for block in inputs}
    shape = shapes.pop() if len(shapes) == 1 else _np.broadcast_shapes(*shapes)
    return _eval_into(gt, inputs, mask, _np.empty(shape, dtype=_np.uint64))


# ----------------------------------------------------------------------
# Base (fault-free) simulation, word-parallel
# ----------------------------------------------------------------------
def input_lane_matrix(num_inputs: int, vectors: Iterable[int]) -> U64Array:
    """Bulk bit-transpose: vectors → per-input lane word rows.

    Returns a ``(num_inputs, words_for(len(vectors)))`` ``uint64`` array;
    bit ``L`` of row ``j`` is input ``j``'s value under ``vectors[L]``
    (input 0 = the *most* significant bit of the decimal vector, the
    paper's input 1).  Equivalent to
    :func:`repro.simulation.twoval._input_lane_words`, vectorized.
    Inputs are limited to 64 bits per vector (``num_inputs <= 64``).
    """
    if num_inputs > 64:
        raise SimulationError(
            f"input_lane_matrix packs vectors into uint64 and is capped "
            f"at 64 inputs (got {num_inputs})"
        )
    vectors = list(vectors)
    if not vectors or not num_inputs:
        return _np.zeros(
            (num_inputs, words_for(len(vectors))), dtype=_np.uint64
        )
    limit = 1 << num_inputs
    if min(vectors) < 0 or max(vectors) >= limit:
        bad = next(v for v in vectors if not 0 <= v < limit)
        raise SimulationError(
            f"vector {bad} out of range for {num_inputs}-input circuit"
        )
    arr = _np.asarray(vectors, dtype=_np.uint64)
    shifts = _np.arange(num_inputs - 1, -1, -1, dtype=_np.uint64)
    bits = ((arr[None, :] >> shifts[:, None]) & _np.uint64(1)).astype(
        _np.uint8
    )
    return pack_bits(bits).words


def line_rows(circuit: Circuit) -> tuple[IntpArray, list[int]]:
    """``(row_of, owners)``: the base word row of every line.

    Line ``lid``'s fault-free words are row ``row_of[lid]``; a branch
    shares its stem's row, so the rows belong to the other lines,
    ``owners`` (in lid order).
    """
    owners = [ln.lid for ln in circuit.lines if ln.kind is not LineKind.BRANCH]
    row_of = [0] * len(circuit.lines)
    for row, lid in enumerate(owners):
        row_of[lid] = row
    for lid in circuit.topo_order:
        line = circuit.lines[lid]
        if line.kind is LineKind.BRANCH:
            row_of[lid] = row_of[line.fanin[0]]
    return _np.array(row_of, dtype=_np.intp), owners


def packed_line_words(
    circuit: Circuit, universe: VectorUniverse
) -> U64Array:
    """Fault-free word rows of the lines, one per :func:`line_rows` row.

    Bit ``i`` of row ``row_of[lid]`` is line ``lid``'s value under the
    universe's ``i``-th vector — the packed twin of
    :func:`repro.simulation.exhaustive.line_signatures` (exhaustive) and
    :func:`repro.simulation.twoval.simulate_batch` (listed vectors),
    computed directly in word space: each gate is evaluated in place
    into its own row.  An exhaustive universe is capped by
    :func:`~repro.simulation.exhaustive.check_exhaustive_inputs`.
    """
    return _simulate_base(circuit, universe)[2]


def _simulate_base(
    circuit: Circuit, universe: VectorUniverse
) -> tuple[IntpArray, U64Array, U64Array]:
    """``(row_of, mask_row, base)``: :func:`line_rows`' row map, the
    universe's packed mask row and :func:`packed_line_words`' rows."""
    p = circuit.num_inputs
    if universe.exhaustive:
        check_exhaustive_inputs(circuit)
    size = universe.size
    mask = pack_signature(universe.mask, size)
    row_array, owners = line_rows(circuit)
    row_of = row_array.tolist()
    base = _np.zeros((len(owners), words_for(size)), dtype=_np.uint64)
    if universe.exhaustive:
        for pos, lid in enumerate(circuit.inputs):
            base[row_of[lid]] = pack_signature(input_signature(pos, p), size)
    else:
        lanes = input_lane_matrix(p, universe.vectors)
        base[row_array[circuit.inputs]] = lanes
    rows = list(base)  # per-line row views, indexed by row_of
    for lid in circuit.topo_order:
        line = circuit.lines[lid]
        if line.kind is LineKind.BRANCH:
            continue
        gt = line.gate_type
        row = rows[row_of[lid]]
        inputs = [rows[row_of[f]] for f in line.fanin]
        if (
            inputs
            and gt in _FOLDS
            and not (len(inputs) == 1 and gt in _IDENTITY_WHEN_UNARY)
        ):
            _eval_into(gt, inputs, mask, row)
        else:
            row[...] = eval_words(gt, inputs, mask)
    return row_array, mask, base


def cone_words(
    circuit: Circuit, cone: int, support: Sequence[int]
) -> tuple[U64Array, dict[int, U64Array]]:
    """``(mask_row, words)`` of a fan-in cone over all its input patterns.

    ``cone`` is a bitmask over ``circuit.topo_order`` ranks of the
    cone's driven lines, ``support`` the input positions feeding them.
    Lane ``j`` sets input ``support[i]`` to bit ``t - 1 - i`` of ``j``
    (``t = len(support)``), so ``words[lid]`` holds the line over the
    cone's ``2**t`` exhaustive patterns.  Gates evaluate as in
    :func:`_simulate_base`; no line outside the cone is simulated.
    """
    t = len(support)
    mask = pack_signature((1 << (1 << t)) - 1, 1 << t)
    words = {
        circuit.inputs[pos]: pack_signature(input_signature(i, t), 1 << t)
        for i, pos in enumerate(support)
    }
    for rank in iter_set_bits(cone):
        line = circuit.lines[circuit.topo_order[rank]]
        inputs = [words[f] for f in line.fanin]
        if line.kind is LineKind.BRANCH:
            words[line.lid] = inputs[0]
        else:
            words[line.lid] = eval_words(line.gate_type, inputs, mask)
    return mask, words


# ----------------------------------------------------------------------
# The kernel: batched event-driven fanout-cone re-simulation
# ----------------------------------------------------------------------
class PackedSimulator:
    """Word-parallel simulator for one circuit over one universe.

    Holds the fault-free base word rows (``base``, one per
    :func:`line_rows` row, at ``row_of[lid]``) and a fanout-cone cache;
    :meth:`detection_rows` is the batched PPSFP pass.  The base is
    simulated from the universe (:func:`packed_line_words`).
    """

    def __init__(self, circuit: Circuit, universe: VectorUniverse) -> None:
        if universe.num_inputs != circuit.num_inputs:
            raise SimulationError(
                "universe and circuit disagree on the input count"
            )
        self.circuit = circuit
        self.universe = universe
        self.size = universe.size
        self.num_words = words_for(self.size)
        self.row_of, self.mask_row, self.base = _simulate_base(
            circuit, universe
        )
        # Per-line views of the base rows (branches view their stem's).
        self._line_base = [self.base[r] for r in self.row_of.tolist()]
        # Per-line fanout cones as line-id bitsets: unioning the cones
        # of a whole fault batch is a handful of C-speed big-int ORs.
        self._cone_masks = circuit.fanout_masks()
        # The lines whose last reader (in topological order) is each
        # line: a batch drops their word blocks once that reader is
        # evaluated, so its live blocks are the cut through the cone,
        # not the whole cone.
        position = {lid: t for t, lid in enumerate(circuit.topo_order)}
        last_reader: dict[int, int] = {}
        for line in circuit.lines:
            readers = [s for s in line.fanout if s in position]
            if readers:
                last_reader[line.lid] = max(readers, key=position.__getitem__)
        released: dict[int, list[int]] = {}
        for lid, reader in last_reader.items():
            released.setdefault(reader, []).append(lid)
        self._released_after = {r: tuple(ls) for r, ls in released.items()}
        self._read = frozenset(last_reader)
        self._outputs = frozenset(circuit.outputs)
        # Batch word blocks reused across detection_rows calls, with
        # room for the builders' batch rows (or more, once a call has
        # had more).
        self._blocks: list[U64Array] = []
        self._block_rows = batch_rows_for(self.num_words)

    def detection_rows(
        self, sites: Sequence[int], forced: U64Array
    ) -> U64Array:
        """Detection word rows for a batch of single faults.

        Parameters
        ----------
        sites:
            Fault-site lid per batch row (length ``B``).
        forced:
            ``(B, W)`` ``uint64`` array; row ``r`` is the full word
            block forced onto line ``sites[r]`` (applied *after* normal
            evaluation, like :func:`~repro.simulation.twoval.simulate_batch`'s
            ``forced`` override —
            the site keeps the forced value even when re-evaluation
            would produce something else).

        Returns
        -------
        ``(B, W)`` ``uint64`` array: row ``r`` is fault ``r``'s
        detection signature (OR over outputs of ``faulty XOR base``).

        One event-driven pass over the union of the sites' fanout cones
        serves the whole batch: a line is re-evaluated only when some
        fanin changed for *some* row; rows outside a line's own fault
        cone simply carry base values through and contribute no
        detection bits.  Callers should group same-site rows
        contiguously (the table builders' cone-locality order does) —
        forcing then degenerates to slice assignment.
        """
        circuit = self.circuit
        base = self._line_base
        num_words = self.num_words
        num_rows = len(sites)
        if forced.shape != (num_rows, num_words):
            raise SimulationError(
                f"forced block shape {forced.shape} does not match "
                f"({num_rows}, {num_words})"
            )
        # Contiguous same-site runs; arbitrary row orders still work —
        # they just produce more runs per site.
        runs_at: dict[int, list[tuple[int, int]]] = {}
        r = 0
        while r < num_rows:
            lid = sites[r]
            start = r
            r += 1
            while r < num_rows and sites[r] == lid:
                r += 1
            runs_at.setdefault(lid, []).append((start, r))
        cone_masks = self._cone_masks
        union = 0
        for lid in runs_at:
            union |= cone_masks[lid] | (1 << lid)
        touched = union.to_bytes((len(circuit.lines) + 7) // 8, "little")

        # Word blocks come from a pool the simulator keeps across batches
        # and are counted by holder (the line being evaluated, and every
        # line whose value aliases the block); a block nobody holds goes
        # back to the pool.  Fresh blocks per batch would be freed, handed
        # back to the OS and faulted in again on the next batch.
        if num_rows > self._block_rows:
            self._blocks, self._block_rows = [], num_rows
        pool = self._blocks
        free = [block[:num_rows] for block in pool]
        holders: dict[int, int] = {}

        def take() -> U64Array:
            if not free:
                slab = _np.empty(
                    (_SLAB_BLOCKS, self._block_rows, num_words),
                    dtype=_np.uint64,
                )
                pool.extend(slab)
                free.extend(block[:num_rows] for block in slab)
            block = free.pop()
            holders[id(block)] = 1
            return block

        def hold(block: U64Array) -> U64Array:
            holders[id(block)] += 1
            return block

        def drop(block: U64Array) -> None:
            key = id(block)
            left = holders[key] - 1
            if left:
                holders[key] = left
            else:
                del holders[key]
                free.append(block)

        def force_site(lid: int, out: U64Array | None) -> U64Array:
            # The forced override happens *after* normal evaluation; a
            # block other lines also hold must be copied first.
            if out is None:
                out = take()
                out[...] = base[lid]
            elif holders[id(out)] > 1:
                shared, out = out, take()
                out[...] = shared
                drop(shared)
            for a, b in runs_at[lid]:
                out[a:b] = forced[a:b]
            return out

        det = _np.zeros((num_rows, num_words), dtype=_np.uint64)
        diff = take()
        outputs, read, released_after = (
            self._outputs, self._read, self._released_after
        )
        vals: dict[int, U64Array] = {}

        def settle(lid: int, out: U64Array) -> None:
            # Fold an output into the detection block as soon as its
            # value is final; keep a block only while a reader is ahead.
            if lid in outputs:
                _np.bitwise_xor(out, base[lid], out=diff)
                _np.bitwise_or(det, diff, out=det)
            if lid in read:
                vals[lid] = hold(out)
            for done in released_after.get(lid, ()):
                block = vals.pop(done, None)
                if block is not None:
                    drop(block)
            drop(out)

        # Input fault sites are fanin-less and absent from topo_order;
        # seed them before the walk.
        for lid in runs_at:
            if circuit.lines[lid].kind is LineKind.INPUT:
                settle(lid, force_site(lid, None))
        for lid in circuit.topo_order:
            if not touched[lid >> 3] >> (lid & 7) & 1:
                continue
            line = circuit.lines[lid]
            is_site = lid in runs_at
            if line.kind is LineKind.BRANCH:
                out = vals.get(line.fanin[0])
                if out is None and not is_site:
                    continue
                if out is not None:
                    hold(out)  # aliases the stem's block
            else:
                fanin = line.fanin
                if any(f in vals for f in fanin):
                    gt = line.gate_type
                    inputs = [vals[f] if f in vals else base[f] for f in fanin]
                    if gt is GateType.BUF or (
                        len(fanin) == 1 and gt in _IDENTITY_WHEN_UNARY
                    ):
                        out = hold(inputs[0])
                    else:
                        out = _eval_into(gt, inputs, self.mask_row, take())
                elif not is_site:
                    continue
                else:
                    out = None
            if is_site:
                out = force_site(lid, out)
            settle(lid, out)
        return det


# ----------------------------------------------------------------------
# Table builders (the backends' kernel entry points)
# ----------------------------------------------------------------------
def _cone_locality_order(
    circuit: Circuit, sites: IntpArray | Sequence[int]
) -> IntpArray:
    """Stable fault permutation grouping cone-similar fault sites.

    A batch's cost is driven by the *union* of its sites' fanout cones,
    so batching faults whose cones overlap keeps the union close to the
    individual cones.  Sites are ranked by their cone bitset (sites
    reaching the same circuit region sort together — on multi-cone
    circuits this effectively groups by observing-output profile) and
    faults are stably sorted by site rank, preserving table-adjacent
    ordering within a site.  Returns an index permutation; callers
    scatter results back so the matrix stays in table order.
    """
    masks = circuit.fanout_masks()
    sites = _np.asarray(sites, dtype=_np.intp)
    # A presence mask, not np.unique: numpy 2 imports numpy.ma (~25 ms)
    # on a process's first np.unique call, and each shard worker of a
    # --jobs build is a fresh process.
    present = _np.zeros(len(masks), dtype=bool)
    present[sites] = True
    distinct = _np.flatnonzero(present).tolist()
    rank_of = _np.zeros(len(masks), dtype=_np.intp)
    rank_of[sorted(distinct, key=lambda s: (masks[s], s))] = _np.arange(
        len(distinct)
    )
    return _np.argsort(rank_of[sites], kind="stable")


def _observe_kernel(
    kind: str, faults: int, words: int, batches: int, seconds: float
) -> None:
    """Kernel throughput telemetry, once per matrix (not per batch).

    Counters accumulate faults/batches/word-ops per fault kind; the
    derived faults-per-second rate lives in ``repro_ppsfp_seconds_total``
    vs ``repro_ppsfp_faults_total`` so scrapes can compute it over any
    window.
    """
    registry = obs.metrics()
    registry.counter(
        "repro_ppsfp_faults_total",
        help="Faults simulated by the PPSFP kernel",
        kind=kind,
    ).inc(faults)
    registry.counter(
        "repro_ppsfp_batches_total",
        help="Fault batches evaluated by the PPSFP kernel",
        kind=kind,
    ).inc(batches)
    registry.counter(
        "repro_ppsfp_words_total",
        help="Signature words per fault row in kernel matrices",
        kind=kind,
    ).inc(faults * words)
    registry.counter(
        "repro_ppsfp_seconds_total",
        help="Wall seconds spent inside PPSFP matrix builds",
        kind=kind,
    ).inc(seconds)


def flip_matrix(
    kind: str,
    circuit: Circuit,
    universe: VectorUniverse,
    sites: IntpArray,
    lines: IntpArray,
    values: NDArray[np.bool_],
    batch_rows: int | None = None,
) -> PackedSignatureMatrix:
    """Packed detection matrix for a list of flip faults (table order).

    Fault ``r`` flips line ``sites[r]`` on the vectors where, fault-free,
    every line ``lines[r, t]`` carries ``values[r, t]`` (``lines`` and
    ``values`` are ``(faults, terms)`` arrays; a fault with fewer terms
    repeats one).  Its activation is the AND of those lines' word rows,
    each matched to its value, and the site is forced to ``base ^
    activation``; a fault activated nowhere keeps an all-zero row
    without being simulated.  ``kind`` labels the span and telemetry.
    An empty fault list simulates no base.
    """
    num = len(sites)
    if not num:
        return PackedSignatureMatrix(
            _np.zeros((0, words_for(universe.size)), dtype=_np.uint64),
            universe.size,
        )
    sim = PackedSimulator(circuit, universe)
    num_words = sim.num_words
    base = sim.base
    mask = sim.mask_row
    site_rows, term_rows = sim.row_of[sites], sim.row_of[lines]
    if batch_rows is None:
        batch_rows = batch_rows_for(num_words)
    # value-true means "matches the line's 1s": matching bits are the
    # row itself, else its masked complement (an XOR with the all-ones
    # mask row).
    flip = ~values
    order = _cone_locality_order(circuit, sites)
    out = _np.zeros((num, num_words), dtype=_np.uint64)
    # Batch scratch, reused by every batch like the simulator's blocks.
    term_words, activated, forced_words = (
        _np.empty((min(batch_rows, num), num_words), dtype=_np.uint64)
        for _ in range(3)
    )
    clock = obs.system_clock()
    started = clock.monotonic()
    batches = 0
    with obs.span(
        "ppsfp_matrix", kind=kind, faults=num, words=num_words
    ) as kernel_span:
        for start in range(0, num, batch_rows):
            idx = order[start : start + batch_rows]
            n = len(idx)
            act = activated[:n]
            for t in range(lines.shape[1]):
                row = term_words[:n] if t else act
                _np.take(
                    base, term_rows[idx, t], axis=0, out=row, mode="clip"
                )
                _np.bitwise_xor(row, mask, out=row, where=flip[idx, t, None])
                if t:
                    _np.bitwise_and(act, row, out=act)
            live = _np.flatnonzero(act.any(axis=1))
            batches += 1
            if live.size == 0:
                continue  # nowhere activated: detection rows stay zero
            forced = _np.take(
                base, site_rows[idx], axis=0, out=forced_words[:n],
                mode="clip",
            )
            _np.bitwise_xor(forced, act, out=forced)
            if live.size < n:
                forced = forced[live]
            rows = idx[live]
            out[rows] = sim.detection_rows(sites[rows].tolist(), forced)
        kernel_span.set(batches=batches)
    _observe_kernel(
        kind, num, num_words, batches, clock.monotonic() - started
    )
    return PackedSignatureMatrix(out, universe.size)

