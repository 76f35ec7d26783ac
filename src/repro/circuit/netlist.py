"""The :class:`Circuit` netlist and its :class:`Line` records.

Normal form
-----------
A circuit in *normal form* satisfies:

* every line is an INPUT, a GATE output, a BRANCH of a stem line, or a
  CONST line;
* a line feeds **at most one** gate input directly; a line with several
  gate sinks feeds them through dedicated BRANCH lines (the branch is the
  fault site, as in the paper's Figure 1 where input 2 reaches the two AND
  gates through branch lines 5 and 6);
* being a primary output does not require a branch — the output is
  observed at the stem.

:class:`~repro.circuit.builder.CircuitBuilder` produces circuits in normal
form (inserting branches automatically if asked to).  All analyses in this
library assume normal form; :func:`repro.circuit.validate.validate_circuit`
checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.circuit.gate import GateType
from repro.errors import CircuitError


class LineKind(Enum):
    """What drives a line."""

    INPUT = "input"
    GATE = "gate"
    BRANCH = "branch"


@dataclass(frozen=True, slots=True)
class Line:
    """One circuit line (the unit of fault sites and simulation values).

    Attributes
    ----------
    lid:
        Dense integer id (index into ``Circuit.lines``).
    name:
        Unique line name.  For paper-style circuits these are numerals.
    kind:
        INPUT / GATE / BRANCH.
    gate_type:
        The driving gate's function (GATE lines; CONST0/CONST1 gates model
        constant lines).  ``None`` for INPUT and BRANCH lines.
    fanin:
        Ids of the gate's input lines (GATE), or ``(stem,)`` for a BRANCH.
    fanout:
        Ids of lines this line drives: branch lines, or the single gate
        output line it feeds directly.
    is_output:
        Primary-output flag (observed at this line).
    """

    lid: int
    name: str
    kind: LineKind
    gate_type: GateType | None
    fanin: tuple[int, ...]
    fanout: tuple[int, ...]
    is_output: bool

    @property
    def is_stem(self) -> bool:
        """True when this line drives branch lines."""
        return self.kind is not LineKind.BRANCH and len(self.fanout) > 1


@dataclass
class Circuit:
    """An immutable combinational netlist in normal form.

    Build instances through :class:`repro.circuit.builder.CircuitBuilder`
    (or one of the format readers); the constructor performs only cheap
    integrity checks and derives the topological order.
    """

    name: str
    lines: list[Line]
    inputs: list[int]
    outputs: list[int]
    _name_to_lid: dict[str, int] = field(init=False, repr=False)
    topo_order: list[int] = field(init=False, repr=False)
    level: list[int] = field(init=False, repr=False)
    # A lazy cache (see fanout_masks): equal circuits compare equal
    # whether or not it has been filled.
    _fanout_masks: list[int] | None = field(
        init=False, default=None, repr=False, compare=False
    )
    # Likewise for repro.parallel.cache.circuit_digest; a 64-character
    # string, so it rides the pickle.
    _digest: str | None = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._name_to_lid = {}
        for line in self.lines:
            if line.lid != len(self._name_to_lid):
                raise CircuitError(
                    f"line ids must be dense and ordered; got {line.lid} "
                    f"at position {len(self._name_to_lid)}"
                )
            if line.name in self._name_to_lid:
                raise CircuitError(f"duplicate line name: {line.name!r}")
            self._name_to_lid[line.name] = line.lid
        self._compute_topo_order()

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def _compute_topo_order(self) -> None:
        """Kahn topological sort over driven lines; also assigns levels."""
        indegree = [0] * len(self.lines)
        for line in self.lines:
            indegree[line.lid] = len(line.fanin)
        ready = [line.lid for line in self.lines if not line.fanin]
        level = [0] * len(self.lines)
        order: list[int] = []
        head = 0
        ready.sort()
        while head < len(ready):
            lid = ready[head]
            head += 1
            # Driven lines need evaluation; fanin-less GATE lines are
            # constants (CONST0/CONST1) and must be evaluated too.
            if self.lines[lid].fanin or self.lines[lid].kind is LineKind.GATE:
                order.append(lid)
            for sink in self.lines[lid].fanout:
                indegree[sink] -= 1
                lvl = level[lid] + 1
                if lvl > level[sink]:
                    level[sink] = lvl
                if indegree[sink] == 0:
                    ready.append(sink)
        if len(ready) != len(self.lines):
            from repro.errors import CircuitCycleError

            stuck = [ln.name for ln in self.lines if indegree[ln.lid] > 0]
            raise CircuitCycleError(stuck)
        self.topo_order = order
        self.level = level

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.lines)

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    @property
    def num_gates(self) -> int:
        return sum(1 for ln in self.lines if ln.kind is LineKind.GATE)

    @property
    def depth(self) -> int:
        """Maximum logic level over all lines."""
        return max(self.level, default=0)

    def lid_of(self, name: str) -> int:
        try:
            return self._name_to_lid[name]
        except KeyError:
            raise CircuitError(f"no line named {name!r} in {self.name!r}") from None

    def line(self, name_or_lid: str | int) -> Line:
        if isinstance(name_or_lid, str):
            return self.lines[self.lid_of(name_or_lid)]
        return self.lines[name_or_lid]

    def has_line(self, name: str) -> bool:
        return name in self._name_to_lid

    # ------------------------------------------------------------------
    # Structure queries used by fault models and fault simulation
    # ------------------------------------------------------------------
    def gate_lines(self) -> list[Line]:
        """All GATE-kind lines in id order."""
        return [ln for ln in self.lines if ln.kind is LineKind.GATE]

    def multi_input_gate_lines(self) -> list[Line]:
        """Outputs of gates with >= 2 inputs (bridging-fault sites)."""
        return [
            ln
            for ln in self.lines
            if ln.kind is LineKind.GATE and len(ln.fanin) >= 2
        ]

    def transitive_fanout(self, lid: int) -> set[int]:
        """Ids of all lines reachable from ``lid`` (excluding ``lid``)."""
        seen: set[int] = set()
        stack = list(self.lines[lid].fanout)
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self.lines[cur].fanout)
        return seen

    def transitive_fanin(self, lid: int) -> set[int]:
        """Ids of all lines in the input cone of ``lid`` (excluding it)."""
        seen: set[int] = set()
        stack = list(self.lines[lid].fanin)
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self.lines[cur].fanin)
        return seen

    def fanout_masks(self) -> list[int]:
        """Per-line transitive-fanout cones as line-id bitsets (cached).

        Bit ``x`` of ``fanout_masks()[lid]`` is set iff line ``x`` is
        reachable from ``lid`` (``lid`` itself excluded) — the bitset
        twin of :meth:`transitive_fanout`, but computed for *every* line
        in one reverse-topological pass, so batch consumers (the PPSFP
        kernel unions hundreds of cones per fault batch) pay C-speed
        big-int ORs instead of per-site set traversals.
        """
        masks = self._fanout_masks
        if masks is None:
            masks = [0] * len(self.lines)
            for lid in reversed(self.topo_order):
                acc = 0
                for sink in self.lines[lid].fanout:
                    acc |= (1 << sink) | masks[sink]
                masks[lid] = acc
            for lid in self.inputs:
                acc = 0
                for sink in self.lines[lid].fanout:
                    acc |= (1 << sink) | masks[sink]
                masks[lid] = acc
            self._fanout_masks = masks
        return masks

    def __getstate__(self) -> dict:
        # The fanout-mask cache is derived data and can be large on big
        # circuits; rebuild it lazily on the receiving side instead of
        # shipping it to every pool/tcp worker.
        state = dict(self.__dict__)
        state["_fanout_masks"] = None
        return state

    def fanout_cone_order(self, lid: int) -> list[int]:
        """Driven lines in the fanout cone of ``lid``, topologically sorted.

        This is the re-simulation schedule after injecting a fault at
        ``lid``: exactly the lines whose value can change, in dependency
        order.  ``lid`` itself is not included.
        """
        cone = self.transitive_fanout(lid)
        return [x for x in self.topo_order if x in cone]

    def observing_outputs(self, lid: int) -> list[int]:
        """Primary outputs structurally reachable from ``lid`` (incl. itself)."""
        reach = self.transitive_fanout(lid)
        reach.add(lid)
        return [o for o in self.outputs if o in reach]

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Size summary used by reports and the CLI."""
        return {
            "inputs": self.num_inputs,
            "outputs": self.num_outputs,
            "gates": self.num_gates,
            "branches": sum(
                1 for ln in self.lines if ln.kind is LineKind.BRANCH
            ),
            "lines": len(self.lines),
            "depth": self.depth,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"Circuit({self.name!r}, inputs={s['inputs']}, gates={s['gates']}, "
            f"outputs={s['outputs']}, lines={s['lines']})"
        )
