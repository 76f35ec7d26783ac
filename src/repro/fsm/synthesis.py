"""Synthesis of an FSM's combinational logic (multilevel from the cover).

The synthesized circuit computes the next-state and output functions of
a KISS2 cover.  Its primary inputs are, in vector-MSB-first order, the
FSM's inputs ``x0 .. x{i-1}`` followed by the present-state bits
``s0 .. s{b-1}``; its primary outputs are the next-state bits
``ns0 .. ns{b-1}`` followed by the FSM outputs ``z0 .. z{o-1}``.

Pipeline (mirroring the classic MCNC flow — espresso-style cover
cleanup, algebraic factoring, technology mapping to small-fanin gates):

1. per-function cover cleanup (duplicate/contained-cube removal,
   distance-1 merging) — :func:`repro.fsm.minimize.merge_cover`;
2. one AND *term* per cover cube (literals: bound input bits plus the
   present-state code), shared across all functions that use the cube;
3. greedy common-pair extraction: literal pairs occurring in several
   terms (and term pairs occurring in several output ORs) become shared
   sub-gates — the multilevel sharing/reconvergence that shapes the
   paper's ``nmin`` spread;
4. bounded-arity tree mapping of the remaining wide AND/OR gates.

Fanout goes through explicit branch lines (inserted by the builder), so
the synthesized netlist is in normal form and every stem/branch is a
stuck-at fault site — exactly the fault-site model of the paper.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gate import GateType
from repro.circuit.netlist import Circuit
from repro.errors import ReproError
from repro.fsm.encoding import StateEncoding, encode_states
from repro.fsm.machine import Fsm
from repro.fsm.minimize import SopCube, merge_cover


def _row_cube(
    fsm: Fsm, encoding: StateEncoding, input_cube: str, present: str
) -> SopCube:
    """Combined cube over (inputs + state bits) for one cover row."""
    state_bits = encoding.code_bits(present)
    return SopCube.from_string(input_cube + state_bits)


def share_common_pairs(
    sets: list[list[str]], new_name: Callable[[], str]
) -> list[tuple[str, str, str]]:
    """Greedy algebraic factoring of ``sets``, in place.

    Any unordered operand pair occurring in two or more of the sets is
    replaced by a dedicated 2-input gate, named by ``new_name``, that
    all of them reuse: the most frequent pair first, ties to the
    smallest pair.  Repeats until no pair occurs twice.  Logic is
    unchanged (associativity); structure gains fanout and
    reconvergence.  Returns the shared gates as ``(name, a, b)`` in the
    order they were made.

    Pair counts are kept up to date set by set: a round recounts only
    the sets its gate rewrites, not every set.
    """
    pair_count: dict[tuple[str, str], int] = {}

    def count(operands: list[str], step: int) -> None:
        ordered = sorted(set(operands))
        for i, x in enumerate(ordered):
            for y in ordered[i + 1 :]:
                left = pair_count.get((x, y), 0) + step
                if left:
                    pair_count[(x, y)] = left
                else:
                    del pair_count[(x, y)]

    for s in sets:
        count(s, 1)
    gates = []
    while True:
        best_n = max(pair_count.values(), default=0)
        if best_n < 2:
            return gates
        a, bb = min(p for p, n in pair_count.items() if n == best_n)
        nm = new_name()
        gates.append((nm, a, bb))
        for s in sets:
            if a in s and bb in s:
                count(s, -1)
                s.remove(a)
                s.remove(bb)
                s.append(nm)
                count(s, 1)


def synthesize_fsm(
    fsm: Fsm,
    encoding: str | StateEncoding = "binary",
    merge_terms: bool = True,
    max_arity: int | None = 3,
    share_logic: bool = True,
    name: str | None = None,
) -> Circuit:
    """Build the combinational logic of ``fsm`` as a normal-form circuit.

    Parameters
    ----------
    fsm:
        The machine (validated; covers must be deterministic).
    encoding:
        Encoding strategy name (``binary``/``gray``/``onehot``) or a
        ready :class:`StateEncoding`.
    merge_terms:
        Apply the per-function distance-1/containment cleanup of
        :func:`repro.fsm.minimize.merge_cover` before mapping (keeps the
        shared-term structure; only removes redundancy).
    max_arity:
        Technology-mapping bound: AND/OR gates wider than this are
        decomposed into balanced trees (``None`` keeps the flat PLA
        planes).  The MCNC-era gate-level netlists the paper analyzed
        were mapped to small-fanin gates; the tree nodes are additional
        multi-input gates — i.e. additional bridging-fault sites — and
        their intermediate detection sets give the analysis its spread.
    share_logic:
        Enable the greedy common-pair extraction (step 3 of the
        pipeline).  Disabling it yields structurally independent terms —
        the synthesis ablation bench measures how much of the nmin
        spread comes from sharing.
    """
    fsm.check()
    if isinstance(encoding, str):
        enc = encode_states(fsm.states, encoding)
    else:
        enc = encoding
    num_x = fsm.num_inputs
    num_s = enc.num_bits
    num_ns = enc.num_bits
    num_z = fsm.num_outputs
    width = num_x + num_s

    # --- collect the cover per output function -------------------------
    # Shared term table: cube string -> term id (shared across functions).
    functions: list[list[SopCube]] = [[] for _ in range(num_ns + num_z)]
    for t in fsm.transitions:
        cube = _row_cube(fsm, enc, t.input_cube, t.present)
        next_code = enc.code_bits(t.next)
        for j, ch in enumerate(next_code):
            if ch == "1":
                functions[j].append(cube)
        for j, ch in enumerate(t.output):
            if ch == "1":
                functions[num_ns + j].append(cube)
    if merge_terms:
        functions = [merge_cover(cubes) for cubes in functions]

    # --- build the netlist ---------------------------------------------
    b = CircuitBuilder(name or fsm.name)
    input_names = [f"x{i}" for i in range(num_x)] + [
        f"s{i}" for i in range(num_s)
    ]
    for nm in input_names:
        b.input(nm)

    inverters: dict[int, str] = {}

    def literal(var: int, polarity: int) -> str:
        """Line carrying variable ``var`` (MSB-first index) or its complement."""
        if polarity == 1:
            return input_names[var]
        inv = inverters.get(var)
        if inv is None:
            inv = f"n_{input_names[var]}"
            b.gate(inv, GateType.NOT, [input_names[var]])
            inverters[var] = inv
        return inv

    shared_counter = 0

    def extract_common_pairs(
        operand_sets: list[list[str]], gate_type: GateType, prefix: str
    ) -> list[list[str]]:
        """Greedy algebraic factoring (:func:`share_common_pairs`)."""
        sets = [list(s) for s in operand_sets]
        if not share_logic:
            return sets

        def new_name() -> str:
            nonlocal shared_counter
            shared_counter += 1
            return f"{prefix}{shared_counter - 1}"

        for nm, a, bb in share_common_pairs(sets, new_name):
            b.gate(nm, gate_type, [a, bb])
        return sets

    tree_counter = 0

    def gate_tree(gate_type: GateType, operands: list[str], out_name: str) -> None:
        """Emit ``out_name = gate_type(operands)`` as a bounded-arity tree."""
        nonlocal tree_counter
        if max_arity is None or len(operands) <= max_arity:
            b.gate(out_name, gate_type, operands)
            return
        level = list(operands)
        while len(level) > max_arity:
            nxt = []
            for i in range(0, len(level), max_arity):
                chunk = level[i : i + max_arity]
                if len(chunk) == 1:
                    nxt.append(chunk[0])
                    continue
                nm = f"i{tree_counter}"
                tree_counter += 1
                b.gate(nm, gate_type, chunk)
                nxt.append(nm)
            level = nxt
        b.gate(out_name, gate_type, level)

    # ---- AND plane: unique terms, then shared-pair factoring ----------
    unique_cubes: dict[str, SopCube] = {}
    for cubes in functions:
        for cube in cubes:
            unique_cubes.setdefault(cube.to_string(), cube)
    cube_keys = list(unique_cubes)
    literal_sets: list[list[str]] = []
    for key in cube_keys:
        cube = unique_cubes[key]
        literals = []
        for var in range(width):
            bitpos = width - 1 - var
            if (cube.care >> bitpos) & 1:
                literals.append(literal(var, (cube.value >> bitpos) & 1))
        if not literals:
            raise ReproError(f"tautological term in FSM {fsm.name!r} cover")
        literal_sets.append(literals)
    literal_sets = extract_common_pairs(literal_sets, GateType.AND, "a")

    term_names: dict[str, str] = {}
    for key, operands in zip(cube_keys, literal_sets, strict=True):
        if len(operands) == 1:
            term_names[key] = operands[0]
        else:
            nm = f"t{len(term_names)}"
            gate_tree(GateType.AND, operands, nm)
            term_names[key] = nm

    # ---- OR plane: shared-pair factoring across the output functions --
    output_names = [f"ns{j}" for j in range(num_ns)] + [
        f"z{j}" for j in range(num_z)
    ]
    or_sets = [
        [term_names[c.to_string()] for c in cubes] for cubes in functions
    ]
    or_sets = extract_common_pairs(or_sets, GateType.OR, "o")

    for out_nm, operands in zip(output_names, or_sets, strict=True):
        if not operands:
            b.const(out_nm, 0)
        elif len(operands) == 1:
            b.gate(out_nm, GateType.BUF, [operands[0]])
        else:
            gate_tree(GateType.OR, operands, out_nm)
        b.output(out_nm)

    return b.build(auto_branch=True)
