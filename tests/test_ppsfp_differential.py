"""Differential certification of the PPSFP kernel against the big-int engines.

The kernel path (every universe of up to ``ppsfp.MAX_WORDS`` words) must
produce *bit-identical* detection tables to the big-int
cone-resimulation path (forced here by patching ``ppsfp.MAX_WORDS`` to
0) on every backend and universe, and both must agree with the
independent per-vector serial engine.  ``REPRO_DIFF_SUITE=full``
extends the suite sweep from the representative subset to every suite
circuit (the CI workflow runs that).

Includes the branch-site coverage the bugfix sweep asked for: stuck-at
faults forced on ``LineKind.BRANCH`` lines — the forced-after-evaluation
override on a line that merely aliases its stem — compared across the
serial, exhaustive big-int, and PPSFP engines.
"""

from __future__ import annotations

import os

import pytest

from repro.bench_suite.randlogic import random_circuit
from repro.bench_suite.registry import get_circuit, suite_table_groups
from repro.circuit.netlist import LineKind
from repro.faults.stuck_at import StuckAtFault
from repro.faultsim.backends import (
    SerialBackend,
    TableBackend,
)
from repro.faultsim.detection import DetectionTable
from repro.simulation import ppsfp

#: Representative tier-1 subset; REPRO_DIFF_SUITE=full sweeps them all.
_SUITE_SUBSET = (
    "lion", "train4", "mc", "s8", "tav",
    "beecount", "ex2", "ex3", "opus", "bbara",
)


def _suite_circuits() -> list[str]:
    if os.environ.get("REPRO_DIFF_SUITE") == "full":
        return list(suite_table_groups())
    return list(_SUITE_SUBSET)


def _tables(backend, circuit):
    """(stuck-at signatures, bridging signatures) under one backend."""
    stuck = backend.build_stuck_at(circuit)
    bridge = backend.build_bridging(circuit)
    return stuck.packed.to_bigints(), bridge.packed.to_bigints()


class TestKernelVsBigInt:
    """Kernel ≡ cone path (``MAX_WORDS = 0``), backend by backend."""

    @pytest.mark.parametrize("name", _suite_circuits())
    def test_suite_exhaustive(self, name, monkeypatch):
        circuit = get_circuit(name)
        backend = TableBackend()
        monkeypatch.setattr(ppsfp, "MAX_WORDS", 0)
        big = _tables(backend, circuit)
        monkeypatch.undo()
        kernel = _tables(backend, circuit)
        assert kernel == big

    @pytest.mark.parametrize("name", _suite_circuits())
    def test_suite_sampled(self, name, monkeypatch):
        circuit = get_circuit(name)
        k = min(97, 1 << circuit.num_inputs)
        backend = TableBackend(samples=k, seed=7)
        monkeypatch.setattr(ppsfp, "MAX_WORDS", 0)
        big = _tables(backend, circuit)
        monkeypatch.undo()
        kernel = _tables(backend, circuit)
        assert kernel == big

    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_packed_backend(self, seed, monkeypatch):
        """Word for word: the cone path's preallocated rows equal the
        kernel's compacted rows, faults included."""
        circuit = random_circuit(70 + seed, num_inputs=6, num_gates=15)
        backend = TableBackend()
        monkeypatch.setattr(ppsfp, "MAX_WORDS", 0)
        cone = (backend.build_stuck_at(circuit),
                backend.build_bridging(circuit))
        monkeypatch.undo()
        kernel = (backend.build_stuck_at(circuit),
                  backend.build_bridging(circuit))
        assert kernel == cone

    def test_kernel_path_actually_engaged(self):
        circuit = get_circuit("lion")
        backend = TableBackend()
        universe = backend.universe_for(circuit)
        assert ppsfp.kernel_supports(universe), (
            "differential suite must exercise the kernel path"
        )


class TestBranchSiteFaults:
    """Stuck-at faults on BRANCH lines: serial ≡ exhaustive ≡ kernel."""

    def _branch_faults(self, circuit):
        return [
            StuckAtFault(ln.lid, v)
            for ln in circuit.lines
            if ln.kind is LineKind.BRANCH
            for v in (0, 1)
        ]

    @pytest.mark.parametrize("name", ["lion", "beecount", "train4"])
    def test_three_engines_agree(self, name, monkeypatch):
        circuit = get_circuit(name)
        faults = self._branch_faults(circuit)
        assert faults, f"{name} has no branch lines; pick another circuit"
        serial = SerialBackend().build_stuck_at(circuit, faults=faults)
        monkeypatch.setattr(ppsfp, "MAX_WORDS", 0)
        big = TableBackend().build_stuck_at(circuit, faults=faults)
        monkeypatch.undo()
        kernel = TableBackend().build_stuck_at(circuit, faults=faults)
        assert serial.packed == big.packed
        assert big.packed == kernel.packed

    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits_with_branches(self, seed, monkeypatch):
        circuit = random_circuit(90 + seed, num_inputs=5, num_gates=12)
        faults = self._branch_faults(circuit)
        if not faults:
            pytest.skip("random draw produced no branch lines")
        serial = SerialBackend().build_stuck_at(circuit, faults=faults)
        monkeypatch.setattr(ppsfp, "MAX_WORDS", 0)
        big = TableBackend().build_stuck_at(circuit, faults=faults)
        monkeypatch.undo()
        kernel = TableBackend().build_stuck_at(circuit, faults=faults)
        assert serial.packed == big.packed
        assert big.packed == kernel.packed

    def test_branch_forced_value_wins_over_stem(self, monkeypatch):
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
        monkeypatch.setattr(ppsfp, "MAX_WORDS", 0)
        big = DetectionTable.for_stuck_at(circuit, faults=faults)
        monkeypatch.undo()
        kernel = DetectionTable.for_stuck_at(circuit, faults=faults)
        assert big.packed == kernel.packed
