"""Shared fixtures: the paper's example circuit, small test circuits,
and the serial oracle's bit check of a detection table."""

from __future__ import annotations

import random

import pytest

from repro.bench_suite.example import (
    and_or_example,
    c17,
    majority,
    paper_example,
    xor_tree,
)
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gate import GateType
from repro.faults.universe import FaultUniverse


@pytest.fixture(scope="session")
def example_circuit():
    """The paper's Figure 1 circuit."""
    return paper_example()


@pytest.fixture(scope="session")
def example_universe(example_circuit):
    """Fault universe of the Figure 1 circuit (tables prebuilt)."""
    universe = FaultUniverse(example_circuit)
    universe.target_table
    universe.untargeted_table
    return universe


@pytest.fixture(scope="session")
def c17_circuit():
    return c17()


@pytest.fixture(scope="session")
def majority_circuit():
    return majority()


@pytest.fixture(scope="session")
def xor_tree_circuit():
    return xor_tree(2)


@pytest.fixture(scope="session")
def and_or_circuit():
    return and_or_example(3)


@pytest.fixture
def tiny_and():
    """out = AND(a, b) — the smallest useful circuit."""
    b = CircuitBuilder("tiny_and")
    b.input("a")
    b.input("b")
    b.gate("out", GateType.AND, ["a", "b"])
    b.output("out")
    return b.build()


@pytest.fixture
def tiny_not_chain():
    """out = NOT(NOT(a)) — for collapsing and simulation checks."""
    b = CircuitBuilder("tiny_not_chain")
    b.input("a")
    b.gate("n1", GateType.NOT, ["a"])
    b.gate("out", GateType.NOT, ["n1"])
    b.output("out")
    return b.build()


@pytest.fixture(scope="session")
def check_serial_bits():
    """``check(table, bits=512, seed=0)``: seeded table bits vs the oracle.

    Draws ``bits`` (fault, vector) pairs of ``table`` and checks each
    against :func:`repro.faultsim.serial.detects` on the vector behind
    the bit.  Half the draws take a uniform bit of a uniform row, half a
    set bit of it (when it has one), so a kernel that drops detections
    and one that invents them both fail.
    """
    from repro.faultsim.serial import detects

    def check(table, bits=512, seed=0):
        assert len(table), "nothing to check"
        rng = random.Random(seed)
        words = table.packed.words
        for draw in range(bits):
            row = rng.randrange(len(table))
            set_words = words[row].nonzero()[0]
            if draw % 2 and set_words.size:
                w = int(set_words[rng.randrange(set_words.size)])
                word = int(words[row, w])
                ones = [i for i in range(64) if word >> i & 1]
                bit = 64 * w + ones[rng.randrange(len(ones))]
            else:
                bit = rng.randrange(table.universe.size)
            got = bool(int(words[row, bit >> 6]) >> (bit & 63) & 1)
            fault = table.faults[row]
            vector = table.universe.vector_at(bit)
            assert got == detects(table.circuit, fault, vector), (
                f"{table.fault_name(row)} bit {bit} (vector {vector})"
            )

    return check
