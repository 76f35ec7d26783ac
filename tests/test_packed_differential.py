"""Differential cross-validation of the packed ``nmin`` scan.

:class:`WorstCaseAnalysis` scans packed words in deduplicated blocks;
:func:`nmin_for_untargeted_fault` is the scalar ascending-``N(f)``
scan over big-int signatures, one fault at a time.  Both must give the
same ``nmin``, witness and overlap for every untargeted fault, on
exhaustive and sampled universes alike.  ``REPRO_DIFF_SUITE=full``
extends the suite sweep from the default representative subset to
every suite circuit (the CI workflow does this).
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
from repro.core.worst_case import (
    NminRecord,
    WorstCaseAnalysis,
    nmin_for_untargeted_fault,
)
from repro.experiments.common import get_universe
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import TableBackend
from repro.faultsim.detection import DetectionTable

#: Representative tier-1 subset; REPRO_DIFF_SUITE=full sweeps them all.
_SUITE_SUBSET = (
    "lion", "train4", "mc", "s8", "tav",
    "beecount", "ex2", "ex3", "opus", "bbara",
)


def _suite_circuits() -> list[str]:
    if os.environ.get("REPRO_DIFF_SUITE") == "full":
        return list(suite_table_groups())
    return list(_SUITE_SUBSET)


def _scalar_records(target, untargeted) -> list[NminRecord]:
    """The scalar oracle: one big-int scan per distinct ``T(g)``."""
    counts = target.counts()
    order = sorted(range(len(counts)), key=counts.__getitem__)
    rows = target.packed.to_bigints()
    by_signature: dict[int, tuple[int | None, int | None, int]] = {}
    records = []
    for j, g_sig in enumerate(untargeted.packed.to_bigints()):
        result = by_signature.get(g_sig)
        if result is None:
            result = by_signature[g_sig] = nmin_for_untargeted_fault(
                rows, g_sig, target_counts=counts, sorted_order=order
            )
        records.append(NminRecord(j, *result))
    return records


def _assert_scan_matches_oracle(universe: FaultUniverse) -> None:
    target, untargeted = universe.target_table, universe.untargeted_table
    analysis = WorstCaseAnalysis(target, untargeted)
    expected = _scalar_records(target, untargeted)
    assert analysis.records == expected  # nmin, witness, and overlap
    values = [r.nmin for r in expected]
    assert analysis.nmin_values() == values
    assert analysis.guaranteed_n() == (
        None if None in values else max(values, default=0)
    )


class TestPackedDifferential:
    """Property-style: array scan ≡ scalar scan on random circuits."""

    @pytest.mark.parametrize(
        "seed,p,gates", [(1, 5, 12), (2, 6, 14), (3, 7, 16)]
    )
    def test_exhaustive_universe(self, seed, p, gates):
        circuit = random_circuit(seed, num_inputs=p, num_gates=gates)
        _assert_scan_matches_oracle(FaultUniverse(circuit))

    @pytest.mark.parametrize("seed", range(8))
    def test_sampled_universe(self, seed):
        circuit = random_circuit(40 + seed, num_inputs=7, num_gates=16)
        k = 16 + 13 * seed  # sweep a range of sample sizes
        _assert_scan_matches_oracle(
            FaultUniverse(circuit, backend=TableBackend(samples=k, seed=seed))
        )

    def test_single_fault_scan_dispatch(self):
        """The scalar scan reads only a table's rows: kernel words and
        the same rows packed from big-ints give the same answers."""
        circuit = random_circuit(9, num_inputs=6, num_gates=14)
        universe = FaultUniverse(circuit)
        target = universe.target_table
        repacked = DetectionTable.from_signatures(
            target.circuit, target.faults, target.packed.to_bigints(),
            target.universe,
        )
        for g_sig in universe.untargeted_table.packed.to_bigints()[:10]:
            assert nmin_for_untargeted_fault(
                repacked.packed.to_bigints(), g_sig
            ) == nmin_for_untargeted_fault(target.packed.to_bigints(), g_sig)

    @pytest.mark.parametrize("name", WIDE_NAMES)
    def test_wide_sampled_circuits(self, name):
        """The >24-input circuits: array scan ≡ scalar scan, record for
        record — the claim behind the packed nmin-scan benchmark."""
        circuit = get_circuit(name)
        _assert_scan_matches_oracle(
            FaultUniverse(circuit, backend=TableBackend(samples=256, seed=7))
        )


class TestPackedSuite:
    """Array scan ≡ scalar scan on suite circuits.

    Tier-1 runs a representative subset; the CI workflow sets
    ``REPRO_DIFF_SUITE=full`` to prove the equivalence on *every* suite
    circuit (sharing the exhaustive analyses with the rest of the run
    via the experiments cache).
    """

    @pytest.mark.parametrize("name", _suite_circuits())
    def test_suite_circuit(self, name):
        universe = get_universe(name)
        assert universe.worst_case.records == _scalar_records(
            universe.target_table, universe.untargeted_table
        )
