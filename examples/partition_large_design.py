"""Applying the exhaustive analysis to a larger design (Section 4).

The analysis needs detection sets over the complete input space, which
caps the practical input count.  Section 4 suggests partitioning larger
circuits into sub-circuits.  This example builds a wide design (more
inputs than the exhaustive budget would allow in one piece), splits it
into output cones of bounded support, and analyzes each cone.

Run:  python examples/partition_large_design.py
"""

from repro.bench_suite.registry import get_circuit
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gate import GateType
from repro.core.partition import PartitionedAnalysis


def build_wide_design(blocks: int = 6, block_inputs: int = 6):
    """A wide circuit: `blocks` cones of `block_inputs` inputs each.

    Adjacent blocks share one input, so the partitioner has to work for
    its grouping (supports overlap but the total is 31+ inputs — far
    beyond the exhaustive budget as one piece).
    """
    b = CircuitBuilder("wide_design")
    total_inputs = blocks * (block_inputs - 1) + 1
    for i in range(total_inputs):
        b.input(f"x{i}")
    for blk in range(blocks):
        base = blk * (block_inputs - 1)
        names = [f"x{base + j}" for j in range(block_inputs)]
        half = len(names) // 2
        b.gate(f"a{blk}", GateType.AND, names[:half])
        b.gate(f"o{blk}", GateType.OR, names[half:])
        b.gate(f"y{blk}", GateType.NAND, [f"a{blk}", f"o{blk}"])
        b.output(f"y{blk}")
    return b.build(auto_branch=True)


def main() -> int:
    wide = build_wide_design()
    print(f"wide design: {wide.num_inputs} inputs, {wide.num_gates} gates")
    print("too wide for one exhaustive pass — partitioning ...\n")

    parts = PartitionedAnalysis(wide, max_inputs=12)
    for key, value in parts.summary().items():
        print(f"  {key}: {value}")
    print()
    for cone in parts.cones:
        g = cone.worst_case.guaranteed_n()
        print(
            f"  cone {cone.circuit.name}: "
            f"{cone.circuit.num_inputs} inputs, "
            f"{len(cone.worst_case)} bridging faults, "
            f"guaranteed n = {g}"
        )
    print(
        f"\nfraction of analyzed faults guaranteed at n=10: "
        f"{parts.fraction_within(10):.4f}"
    )
    print(
        f"bridging pairs analyzable inside cones: "
        f"{parts.coverage_of_fault_sites:.2%} "
        "(bridges spanning two cones are outside the partitioned model)"
    )

    # The same machinery applies to a real suite circuit: mark1 has 9
    # primary inputs (5 FSM inputs + 4 state bits); a 9-input budget
    # analyzes each output cone exactly.
    print("\nPartitioned analysis of the suite circuit 'mark1':")
    parts2 = PartitionedAnalysis(get_circuit("mark1"), max_inputs=9)
    for key, value in parts2.summary().items():
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
