"""Differential cross-validation of the numpy-packed backend.

The packed engine stores the *same* bits as the big-int engines, so
tables, counts, ``nmin`` records (witnesses included), and
``guaranteed_n`` must be identical on exhaustive and sampled universes
alike.  ``REPRO_DIFF_SUITE=full`` extends the suite sweep from the
default representative subset to every suite circuit (the CI workflow
does this).
"""

from __future__ import annotations

import os

import pytest

from repro.bench_suite.randlogic import random_circuit
from repro.bench_suite.registry import (
    WIDE_NAMES,
    get_circuit,
    suite_table_groups,
)
from repro.core.worst_case import WorstCaseAnalysis, nmin_for_untargeted_fault
from repro.experiments.common import get_universe, get_worst_case
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import (
    TableBackend,
)
from repro.faultsim.packed_table import PackedDetectionTable

#: Representative tier-1 subset; REPRO_DIFF_SUITE=full sweeps them all.
_SUITE_SUBSET = (
    "lion", "train4", "mc", "s8", "tav",
    "beecount", "ex2", "ex3", "opus", "bbara",
)


def _suite_circuits() -> list[str]:
    if os.environ.get("REPRO_DIFF_SUITE") == "full":
        return list(suite_table_groups())
    return list(_SUITE_SUBSET)


def _assert_same_analysis(big: WorstCaseAnalysis, packed: WorstCaseAnalysis):
    assert big.records == packed.records  # nmin, witness, and overlap
    assert big.guaranteed_n() == packed.guaranteed_n()
    assert big.nmin_values() == packed.nmin_values()


class TestPackedDifferential:
    """Property-style: packed ≡ big-int on random circuits, any universe."""

    @pytest.mark.parametrize(
        "seed,p,gates", [(1, 5, 12), (2, 6, 14), (3, 7, 16)]
    )
    def test_exhaustive_universe(self, seed, p, gates):
        circuit = random_circuit(seed, num_inputs=p, num_gates=gates)
        big = FaultUniverse(circuit, backend=TableBackend())
        pck = FaultUniverse(circuit, backend=TableBackend(packed=True))
        assert pck.target_table.signatures == big.target_table.signatures
        assert pck.untargeted_table.signatures == (
            big.untargeted_table.signatures
        )
        assert pck.target_table.counts() == big.target_table.counts()
        _assert_same_analysis(
            WorstCaseAnalysis(big.target_table, big.untargeted_table),
            WorstCaseAnalysis(pck.target_table, pck.untargeted_table),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_sampled_universe(self, seed):
        circuit = random_circuit(40 + seed, num_inputs=7, num_gates=16)
        k = 16 + 13 * seed  # sweep a range of sample sizes
        big = FaultUniverse(
            circuit, backend=TableBackend(samples=k, seed=seed)
        )
        pck = FaultUniverse(
            circuit, backend=TableBackend(samples=k, seed=seed, packed=True)
        )
        assert pck.target_table.signatures == big.target_table.signatures
        assert pck.target_table.universe == big.target_table.universe
        assert pck.untargeted_table.counts() == (
            big.untargeted_table.counts()
        )
        _assert_same_analysis(
            WorstCaseAnalysis(big.target_table, big.untargeted_table),
            WorstCaseAnalysis(pck.target_table, pck.untargeted_table),
        )

    def test_single_fault_scan_dispatch(self):
        """nmin_for_untargeted_fault agrees between table kinds."""
        circuit = random_circuit(9, num_inputs=6, num_gates=14)
        big = FaultUniverse(circuit)
        packed_targets = PackedDetectionTable.from_table(big.target_table)
        for g_sig in big.untargeted_table.signatures[:10]:
            assert nmin_for_untargeted_fault(
                packed_targets, g_sig
            ) == nmin_for_untargeted_fault(big.target_table, g_sig)

    @pytest.mark.parametrize("name", WIDE_NAMES)
    def test_wide_sampled_circuits(self, name):
        """The >24-input circuits: packed ≡ sampled big-int, record for
        record — the claim behind the packed nmin-scan benchmark."""
        circuit = get_circuit(name)
        big = FaultUniverse(circuit, backend=TableBackend(samples=256, seed=7))
        pck = FaultUniverse(
            circuit, backend=TableBackend(samples=256, seed=7, packed=True)
        )
        assert pck.target_table.signatures == big.target_table.signatures
        _assert_same_analysis(
            WorstCaseAnalysis(big.target_table, big.untargeted_table),
            WorstCaseAnalysis(pck.target_table, pck.untargeted_table),
        )


class TestPackedSuite:
    """Packed ≡ exhaustive nmin records on suite circuits.

    Tier-1 runs a representative subset; the CI workflow sets
    ``REPRO_DIFF_SUITE=full`` to prove the equivalence on *every* suite
    circuit (sharing the exhaustive analyses with the rest of the run
    via the experiments cache).
    """

    @pytest.mark.parametrize("name", _suite_circuits())
    def test_suite_circuit(self, name):
        universe = get_universe(name)
        big = get_worst_case(name)
        packed = WorstCaseAnalysis(
            PackedDetectionTable.from_table(universe.target_table),
            PackedDetectionTable.from_table(universe.untargeted_table),
        )
        _assert_same_analysis(big, packed)
