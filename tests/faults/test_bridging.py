"""Four-way bridging universe: sites, orientation order, feedback filter."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.bench_suite.registry import get_circuit, suite_table_groups
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gate import GateType
from repro.errors import FaultError
from repro.faults.bridging import (
    BridgingFault,
    BridgingFaults,
    bridging_pair_sites,
    four_way_bridging_faults,
)

#: Tier-1 circuits for the enumeration oracle; REPRO_DIFF_SUITE=full
#: checks every suite circuit.
_ORACLE_SUBSET = ("paper_example", "lion", "ex2", "bbsse")


def _oracle_circuits() -> list[str]:
    if os.environ.get("REPRO_DIFF_SUITE") == "full":
        return list(suite_table_groups())
    return list(_ORACLE_SUBSET)


def _object_enumeration(circuit) -> list[BridgingFault]:
    """The per-pair object enumeration that ``BridgingFaults`` replaced."""
    faults = []
    for a, b in bridging_pair_sites(circuit):
        faults.append(BridgingFault(a, 0, b, 1))
        faults.append(BridgingFault(a, 1, b, 0))
        faults.append(BridgingFault(b, 0, a, 1))
        faults.append(BridgingFault(b, 1, a, 0))
    return faults


class TestFaultObject:
    def test_name(self, example_circuit):
        g = BridgingFault(
            example_circuit.lid_of("9"), 0, example_circuit.lid_of("10"), 1
        )
        assert g.name(example_circuit) == "(9,0,10,1)"

    def test_rejects_same_line(self):
        with pytest.raises(FaultError):
            BridgingFault(3, 0, 3, 1)

    def test_rejects_bad_values(self):
        with pytest.raises(FaultError):
            BridgingFault(1, 2, 2, 0)


class TestSites:
    def test_example_sites(self, example_circuit):
        c = example_circuit
        pairs = bridging_pair_sites(c)
        names = [
            (c.lines[a].name, c.lines[b].name) for a, b in pairs
        ]
        assert names == [("9", "10"), ("9", "11"), ("10", "11")]

    def test_only_multi_input_gates(self):
        b = CircuitBuilder("c")
        b.input("a")
        b.input("x")
        b.gate("n", GateType.NOT, ["a"])     # single-input: not a site
        b.gate("g", GateType.AND, ["n", "x"])
        b.output("g")
        c = b.build()
        assert bridging_pair_sites(c) == []  # only one multi-input gate

    def test_feedback_pairs_excluded(self):
        """g2 is in g1's fanout: the (g1, g2) bridge would be feedback."""
        b = CircuitBuilder("c")
        b.input("a")
        b.input("x")
        b.input("y")
        b.gate("g1", GateType.AND, ["a", "x"])
        b.gate("g2", GateType.OR, ["g1", "y"])
        b.output("g2")
        c = b.build()
        assert bridging_pair_sites(c) == []

    def test_parallel_gates_kept(self, majority_circuit):
        c = majority_circuit
        pairs = bridging_pair_sites(c)
        names = {
            tuple(sorted((c.lines[a].name, c.lines[b].name)))
            for a, b in pairs
        }
        # ab, bc, ac are pairwise bridgeable; each with maj would be feedback.
        assert names == {("ab", "bc"), ("ab", "ac"), ("ac", "bc")}


class TestFourWay:
    def test_orientation_order(self, example_circuit):
        faults = four_way_bridging_faults(example_circuit)
        names = [f.name(example_circuit) for f in faults[:4]]
        assert names == [
            "(9,0,10,1)",
            "(9,1,10,0)",
            "(10,0,9,1)",
            "(10,1,9,0)",
        ]

    def test_four_per_pair(self, example_circuit):
        pairs = bridging_pair_sites(example_circuit)
        faults = four_way_bridging_faults(example_circuit)
        assert len(faults) == 4 * len(pairs)

    def test_all_distinct(self, example_circuit):
        faults = four_way_bridging_faults(example_circuit)
        assert len(set(faults)) == len(faults)


class TestBridgingFaults:
    """The struct-of-arrays ``G`` against the object enumeration."""

    @pytest.mark.parametrize("name", _oracle_circuits())
    def test_matches_object_enumeration(self, name):
        circuit = get_circuit(name)
        oracle = _object_enumeration(circuit)
        faults = four_way_bridging_faults(circuit)
        assert isinstance(faults, BridgingFaults)
        assert len(faults) == len(oracle)
        # Indexing before any iteration builds fresh elements...
        assert [faults[i] for i in range(len(faults))] == oracle
        # ...and iteration builds (then keeps) the same ones.
        assert list(faults) == oracle
        assert faults == oracle and oracle == faults

    def test_paper_indices(self, example_circuit):
        c = example_circuit
        faults = four_way_bridging_faults(c)
        assert faults[0] == BridgingFault(c.lid_of("9"), 0, c.lid_of("10"), 1)
        assert faults[6] == BridgingFault(c.lid_of("11"), 0, c.lid_of("9"), 1)
        assert faults[0].name(c) == "(9,0,10,1)"
        assert faults[6].name(c) == "(11,0,9,1)"

    def test_sequence_protocol(self, example_circuit):
        faults = four_way_bridging_faults(example_circuit)
        oracle = _object_enumeration(example_circuit)
        assert faults[-1] == oracle[-1]
        assert faults[-len(oracle)] == oracle[0]
        with pytest.raises(IndexError):
            faults[len(oracle)]
        with pytest.raises(IndexError):
            faults[-len(oracle) - 1]
        for part in (slice(2, 7), slice(None, None, -3), slice(5, 5)):
            assert isinstance(faults[part], BridgingFaults)
            assert faults[part] == oracle[part]
        picked = faults.take(np.array([6, 0, 6]))
        assert picked == [oracle[6], oracle[0], oracle[6]]
        assert faults.take([]) == []
        assert faults.index(oracle[5]) == 5
        assert oracle[3] in faults
        assert faults != oracle[:-1] and oracle[:-1] != faults
        assert faults == four_way_bridging_faults(example_circuit)
        assert faults != faults.take([1, 0])

    def test_elements_hash_like_objects(self, example_circuit):
        faults = four_way_bridging_faults(example_circuit)
        oracle = _object_enumeration(example_circuit)
        assert {hash(g) for g in faults} == {hash(g) for g in oracle}
        assert set(faults) == set(oracle)
        assert faults[4] in {oracle[4]}
        assert type(faults[4].victim) is int
        with pytest.raises(TypeError):
            hash(faults)

    def test_iteration_builds_elements_once(self, example_circuit):
        faults = four_way_bridging_faults(example_circuit)
        first = list(faults)
        assert all(a is b for a, b in zip(first, faults, strict=True))
        assert faults[3] is first[3]

    def test_pickle_ignores_built_elements(self, example_circuit):
        faults = four_way_bridging_faults(example_circuit)
        before = pickle.dumps(faults)
        list(faults)
        assert pickle.dumps(faults) == before
        assert pickle.loads(before) == faults

    def test_arrays_are_read_only(self, example_circuit):
        faults = four_way_bridging_faults(example_circuit)
        with pytest.raises(ValueError):
            faults.victim[0] = 1

    def test_vectorized_checks(self):
        with pytest.raises(FaultError, match="distinct lines"):
            BridgingFaults([1, 3], [0, 0], [2, 3], [1, 1])
        with pytest.raises(FaultError, match="0 or 1"):
            BridgingFaults([1], [2], [2], [0])
        with pytest.raises(FaultError, match="0 or 1"):
            BridgingFaults([1], [0], [2], [-1])
        with pytest.raises(FaultError, match="equal length"):
            BridgingFaults([1, 2], [0], [2], [0])

    def test_of_converts_once(self, example_circuit):
        oracle = _object_enumeration(example_circuit)
        faults = BridgingFaults.of(oracle)
        assert faults == oracle
        assert BridgingFaults.of(faults) is faults
        assert BridgingFaults.of([]) == []
