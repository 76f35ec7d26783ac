"""Paper-anchor tests: the Figure 1 circuit must reproduce Table 1 exactly.

These are the ground-truth assertions of the whole reproduction: every
published detection set, fault index, and nmin value of the paper's
example analysis is pinned here.
"""

from __future__ import annotations

import pytest

from repro.bench_suite.example import and_or_example, c17, paper_example, xor_tree
from repro.circuit.validate import validate_circuit
from repro.core.worst_case import WorstCaseAnalysis
from repro.faults.universe import FaultUniverse
from repro.logic.bitops import set_bits

# (index, fault name, detection vectors, nmin(g0, fi)) — paper Table 1.
PAPER_TABLE1 = [
    (0, "1/1", [4, 5, 6, 7], 3),
    (1, "2/0", [6, 7, 12, 13, 14, 15], 5),
    (3, "3/0", [2, 6, 7, 10, 14, 15], 5),
    (9, "8/0", [2, 6, 10, 14], 4),
    (11, "9/1", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 11),
    (12, "10/0", [6, 7, 14, 15], 3),
    (14, "11/0", [1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15], 11),
]


@pytest.fixture(scope="module")
def universe():
    u = FaultUniverse(paper_example())
    u.target_table
    u.untargeted_table
    return u


class TestFigure1Structure:
    def test_line_count_and_names(self, example_circuit):
        assert len(example_circuit.lines) == 11
        assert [ln.name for ln in example_circuit.lines] == [
            str(i) for i in range(1, 12)
        ]

    def test_outputs(self, example_circuit):
        names = [example_circuit.lines[o].name for o in example_circuit.outputs]
        assert names == ["9", "10", "11"]

    def test_validates_clean(self, example_circuit):
        assert validate_circuit(example_circuit) == []

    def test_branch_structure(self, example_circuit):
        for branch, stem in (("5", "2"), ("6", "2"), ("7", "3"), ("8", "3")):
            line = example_circuit.line(branch)
            assert line.kind.value == "branch"
            assert example_circuit.lines[line.fanin[0]].name == stem


class TestTable1:
    def test_collapsed_fault_count(self, universe):
        # 22 uncollapsed faults collapse to 16 (3 equivalence classes of
        # size 3 each, rest singletons).
        assert len(universe.target_faults) == 16

    def test_published_rows_exact(self, universe):
        circuit = universe.circuit
        table = universe.target_table
        g0_sig = universe.untargeted_table.packed.row_bigint(0)
        assert set_bits(g0_sig) == [6, 7]
        overlap_rows = []
        for i in range(len(table)):
            sig = table.packed.row_bigint(i)
            m = (sig & g0_sig).bit_count()
            if m:
                overlap_rows.append(
                    (
                        i,
                        table.fault_name(i),
                        set_bits(sig),
                        sig.bit_count() - m + 1,
                    )
                )
        assert overlap_rows == PAPER_TABLE1

    def test_g0_identity(self, universe):
        assert universe.untargeted_table.fault_name(0) == "(9,0,10,1)"

    def test_nmin_g0_is_3(self, universe):
        wc = WorstCaseAnalysis(
            universe.target_table, universe.untargeted_table
        )
        assert wc.records[0].nmin == 3

    def test_g6_vectors_and_nmin(self, universe):
        """The paper's g6 has T(g6) = {12} and nmin(g6) = 4."""
        table = universe.untargeted_table
        assert set_bits(table.packed.row_bigint(6)) == [12]
        wc = WorstCaseAnalysis(universe.target_table, table)
        assert wc.records[6].nmin == 4

    def test_all_bridging_faults_detectable_subset(self, universe):
        # 3 pairs x 4 orientations = 12 raw faults; 10 are detectable.
        assert len(universe.untargeted_faults) == 12
        assert len(universe.untargeted_table) == 10


class TestOtherExamples:
    def test_c17_shape(self):
        c = c17()
        assert c.num_inputs == 5
        assert c.num_outputs == 2
        assert c.num_gates == 6
        assert validate_circuit(c) == []

    def test_and_or_width_guard(self):
        with pytest.raises(ValueError):
            and_or_example(0)

    def test_xor_tree_depth_guard(self):
        with pytest.raises(ValueError):
            xor_tree(0)

    def test_xor_tree_inputs(self):
        c = xor_tree(3)
        assert c.num_inputs == 8
        assert c.num_outputs == 1
