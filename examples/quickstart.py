"""Quickstart: the paper's example analysis in ~40 lines.

Builds the Figure 1 circuit, computes the detection sets of the target
(stuck-at) and untargeted (four-way bridging) faults over the complete
input space, and reproduces Table 1: for the bridging fault
``g0 = (9,0,10,1)``, the smallest ``n`` such that *every* n-detection
test set is guaranteed to detect it.

Run:  python examples/quickstart.py
"""

from repro.bench_suite.example import paper_example, paper_example_ascii
from repro.core.worst_case import WorstCaseAnalysis
from repro.faults.universe import FaultUniverse
from repro.logic.bitops import set_bits

circuit = paper_example()
print("The paper's Figure 1 circuit:")
print(paper_example_ascii())
print()

# The fault universe: collapsed stuck-at targets F, detectable four-way
# bridging untargeted faults G, and their detection sets T(.) over U.
universe = FaultUniverse(circuit)
targets = universe.target_table
untargeted = universe.untargeted_table
print(f"|F| = {len(targets)} collapsed stuck-at faults")
print(f"|G| = {len(untargeted)} detectable bridging faults")
print()

# Table 1: which target faults overlap T(g0), and the nmin they imply.
g0_sig = untargeted.packed.row_bigint(0)
print(f"g0 = {untargeted.fault_name(0)}, T(g0) = {set_bits(g0_sig)}")
print(f"{'i':>3} {'fault':>6} {'T(fi)':<40} nmin(g0,fi)")
for i in range(len(targets)):
    f_sig = targets.packed.row_bigint(i)
    overlap = (f_sig & g0_sig).bit_count()
    if not overlap:
        continue
    nmin_gf = f_sig.bit_count() - overlap + 1
    vectors = " ".join(map(str, set_bits(f_sig)))
    print(f"{i:>3} {targets.fault_name(i):>6} {vectors:<40} {nmin_gf}")

# The worst case over all overlapping targets.
analysis = WorstCaseAnalysis(targets, untargeted)
print()
print(f"nmin(g0) = {analysis.records[0].nmin}  "
      "(any 3-detection test set is guaranteed to detect g0)")
print(f"Largest nmin over G: {analysis.guaranteed_n()}  "
      "(a 4-detection test set covers every bridging fault here)")
