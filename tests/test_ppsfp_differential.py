"""Differential certification of the PPSFP kernel against the serial oracle.

The kernel builds every detection table, at every universe width.  Its
oracle is the per-vector serial engine (:mod:`repro.faultsim.serial`),
which shares no code with it: on exhaustive universes the kernel's rows
must equal :class:`SerialBackend` rows (every fault of a small table, a
seeded fault sample of a larger one), and on every universe seeded
``(fault, vector)`` bits are checked against ``serial.detects``.
``REPRO_DIFF_SUITE=full`` extends the suite sweep from the
representative subset to every suite circuit (the CI workflow runs
that).

Includes the branch-site coverage the bugfix sweep asked for: stuck-at
faults forced on ``LineKind.BRANCH`` lines — the forced-after-evaluation
override on a line that merely aliases its stem — compared across the
serial, 3-valued dual-rail, and PPSFP engines.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import obs
from repro.bench_suite.randlogic import random_circuit
from repro.bench_suite.registry import get_circuit, suite_table_groups
from repro.circuit.netlist import LineKind
from repro.faults.bridging import BridgingFaults
from repro.faults.stuck_at import StuckAtFault
from repro.faultsim.backends import (
    SerialBackend,
    TableBackend,
)
from repro.faultsim.detection import DetectionTable
from repro.faultsim.threeval_detect import cubes_detect_stuck_at
from repro.logic.cube import Cube
from repro.obs.tracer import ListTraceWriter, Tracer

#: Representative tier-1 subset; REPRO_DIFF_SUITE=full sweeps them all.
_SUITE_SUBSET = (
    "lion", "train4", "mc", "s8", "tav",
    "beecount", "ex2", "ex3", "opus", "bbara",
)

#: (fault, vector) pairs per table that the serial oracle recomputes as
#: whole rows: every fault of a small table, a seeded sample otherwise.
_SERIAL_PAIRS = 1 << 10


def _suite_circuits() -> list[str]:
    if os.environ.get("REPRO_DIFF_SUITE") == "full":
        return list(suite_table_groups())
    return list(_SUITE_SUBSET)


def _tables(backend, circuit):
    """(stuck-at, bridging) tables under one backend, every fault kept."""
    return (
        backend.build_stuck_at(circuit),
        backend.build_bridging(circuit, drop_undetectable=False),
    )


def _assert_serial_rows(table, seed=0):
    """A seeded sample of ``table``'s rows equals the serial oracle's."""
    count = _SERIAL_PAIRS >> table.circuit.num_inputs
    if not count:
        return  # too wide for whole rows; the bit check covers it
    rows = sorted(random.Random(seed).sample(
        range(len(table)), min(count, len(table))
    ))
    faults = [table.faults[i] for i in rows]
    oracle = SerialBackend()
    build = (
        oracle.build_bridging if isinstance(table.faults, BridgingFaults)
        else oracle.build_stuck_at
    )
    serial = build(table.circuit, faults=faults, drop_undetectable=False)
    assert serial.packed == table.packed.take(rows), table.circuit.name


class TestKernelVsBigInt:
    """Kernel ≡ the serial oracle's big-int rows, backend by backend."""

    @pytest.mark.parametrize("name", _suite_circuits())
    def test_suite_exhaustive(self, name, check_serial_bits):
        circuit = get_circuit(name)
        for table in _tables(TableBackend(), circuit):
            _assert_serial_rows(table)
            check_serial_bits(table, bits=128)

    @pytest.mark.parametrize("name", _suite_circuits())
    def test_suite_sampled(self, name, check_serial_bits):
        circuit = get_circuit(name)
        k = min(97, 1 << circuit.num_inputs)
        backend = TableBackend(samples=k, seed=7)
        for table in _tables(backend, circuit):
            check_serial_bits(table, bits=128)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_packed_backend(self, seed):
        """Word for word: the kernel's compacted rows equal the serial
        backend's, faults included."""
        circuit = random_circuit(70 + seed, num_inputs=6, num_gates=15)
        kernel = (TableBackend().build_stuck_at(circuit),
                  TableBackend().build_bridging(circuit))
        serial = (SerialBackend().build_stuck_at(circuit),
                  SerialBackend().build_bridging(circuit))
        for mine, theirs in zip(kernel, serial, strict=True):
            assert mine.packed == theirs.packed
            assert list(mine.faults) == list(theirs.faults)

    def test_kernel_path_actually_engaged(self):
        """Both tables of a build come out of the kernel's matrix pass."""
        writer = ListTraceWriter()
        previous = obs.activate(Tracer(writer, trace_id="T"))
        try:
            _tables(TableBackend(), get_circuit("lion"))
        finally:
            obs.reset(previous)
        kinds = [
            r["attrs"]["kind"]
            for r in writer.records
            if r["name"] == "ppsfp_matrix"
        ]
        assert kinds == ["stuck_at", "bridging"], (
            "differential suite must exercise the kernel path"
        )


class TestBranchSiteFaults:
    """Stuck-at faults on BRANCH lines: serial ≡ 3-valued ≡ kernel."""

    def _branch_faults(self, circuit):
        return [
            StuckAtFault(ln.lid, v)
            for ln in circuit.lines
            if ln.kind is LineKind.BRANCH
            for v in (0, 1)
        ]

    def _three_valued_rows(self, circuit, faults):
        p = circuit.num_inputs
        cubes = [Cube.full(v, p) for v in range(1 << p)]
        return [
            sum(1 << v for v, hit in enumerate(
                cubes_detect_stuck_at(circuit, fault, cubes)
            ) if hit)
            for fault in faults
        ]

    @pytest.mark.parametrize("name", ["lion", "beecount", "train4"])
    def test_three_engines_agree(self, name):
        circuit = get_circuit(name)
        faults = self._branch_faults(circuit)
        assert faults, f"{name} has no branch lines; pick another circuit"
        serial = SerialBackend().build_stuck_at(circuit, faults=faults)
        kernel = TableBackend().build_stuck_at(circuit, faults=faults)
        assert serial.packed == kernel.packed
        assert kernel.packed.to_bigints() == self._three_valued_rows(
            circuit, faults
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits_with_branches(self, seed):
        circuit = random_circuit(90 + seed, num_inputs=5, num_gates=12)
        faults = self._branch_faults(circuit)
        if not faults:
            pytest.skip("random draw produced no branch lines")
        serial = SerialBackend().build_stuck_at(circuit, faults=faults)
        kernel = TableBackend().build_stuck_at(circuit, faults=faults)
        assert serial.packed == kernel.packed

    def test_branch_forced_value_wins_over_stem(self):
        """A branch site keeps its forced value even when its stem changes."""
        circuit = get_circuit("lion")
        branch = next(
            ln for ln in circuit.lines if ln.kind is LineKind.BRANCH
        )
        stem = circuit.lines[branch.fanin[0]]
        faults = [
            StuckAtFault(branch.lid, 0),
            StuckAtFault(branch.lid, 1),
            StuckAtFault(stem.lid, 0),
            StuckAtFault(stem.lid, 1),
        ]
        serial = SerialBackend().build_stuck_at(circuit, faults=faults)
        kernel = DetectionTable.for_stuck_at(circuit, faults=faults)
        assert serial.packed == kernel.packed
