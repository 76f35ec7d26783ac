"""Worst-case analysis: definitional properties, not just anchors.

The key tightness checks:

* (guarantee) every n-detection test set with ``n >= nmin(g)`` detects g —
  verified against Procedure 1 families in test_average_case.py;
* (achievability) an ``(nmin(g) - 1)``-detection test set that misses g
  exists — constructed explicitly here from the ``T(f) - T(g)`` sets.
"""

from __future__ import annotations

import pytest

from repro.bench_suite.registry import get_circuit
from repro.core.worst_case import (
    NminRecord,
    WorstCaseAnalysis,
    nmin_for_untargeted_fault,
)
from repro.errors import AnalysisError
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import TableBackend
from repro.faultsim.detection import DetectionTable
from repro.logic.bitops import iter_set_bits


@pytest.fixture(scope="module")
def analyses():
    out = {}
    for name in ("example", "majority", "c17"):
        from repro.bench_suite.example import c17, majority, paper_example

        circuit = {"example": paper_example, "majority": majority, "c17": c17}[
            name
        ]()
        u = FaultUniverse(circuit)
        out[name] = (u, WorstCaseAnalysis(u.target_table, u.untargeted_table))
    return out


class TestNminDefinition:
    def test_example_values(self, analyses):
        _u, wc = analyses["example"]
        assert [r.nmin for r in wc.records] == [3, 3, 3, 3, 1, 4, 4, 1, 1, 1]

    def test_witness_is_argmin(self, analyses):
        u, wc = analyses["example"]
        counts = u.target_table.counts()
        for rec in wc.records:
            g_sig = u.untargeted_table.packed.row_bigint(rec.fault_index)
            brute = min(
                counts[i] - (sig & g_sig).bit_count() + 1
                for i, sig in enumerate(u.target_table.packed.to_bigints())
                if sig & g_sig
            )
            assert rec.nmin == brute
            w_sig = u.target_table.packed.row_bigint(rec.witness)
            assert (
                counts[rec.witness] - (w_sig & g_sig).bit_count() + 1
                == rec.nmin
            )

    def test_early_exit_matches_bruteforce(self, analyses):
        """The sorted early-exit scan must equal the naive scan."""
        u, wc = analyses["c17"]
        counts = u.target_table.counts()
        for rec in wc.records:
            g_sig = u.untargeted_table.packed.row_bigint(rec.fault_index)
            candidates = [
                counts[i] - (sig & g_sig).bit_count() + 1
                for i, sig in enumerate(u.target_table.packed.to_bigints())
                if sig & g_sig
            ]
            assert rec.nmin == (min(candidates) if candidates else None)

    def test_undetectable_g_rejected(self, analyses):
        u, _wc = analyses["example"]
        with pytest.raises(AnalysisError):
            nmin_for_untargeted_fault(u.target_table.packed.to_bigints(), 0)


class TestAchievability:
    @pytest.mark.parametrize("name", ["example", "majority", "c17"])
    def test_adversarial_set_exists(self, analyses, name):
        """For each g, build an (nmin-1)-detection set avoiding T(g).

        Its existence is exactly what nmin(g) being the *minimum*
        guarantee means; if the construction ever failed, nmin would be
        overestimated.
        """
        u, wc = analyses[name]
        targets = u.target_table
        for rec in wc.records:
            if rec.nmin is None or rec.nmin <= 1:
                continue
            n = rec.nmin - 1
            g_sig = u.untargeted_table.packed.row_bigint(rec.fault_index)
            test_sig = 0
            for f_sig in targets.packed.to_bigints():
                available = f_sig & ~g_sig
                want = min(n, f_sig.bit_count())
                assert available.bit_count() >= want, (
                    "nmin overestimated: cannot avoid T(g)"
                )
                picked = 0
                for v in iter_set_bits(available):
                    if picked == want:
                        break
                    test_sig |= 1 << v
                    picked += 1
            # The set avoids g entirely...
            assert not (test_sig & g_sig)
            # ...and is an (nmin-1)-detection set for the targets.
            for f_sig in targets.packed.to_bigints():
                want = min(n, f_sig.bit_count())
                assert (f_sig & test_sig).bit_count() >= want


class TestThresholdQueries:
    def test_counts_consistent(self, analyses):
        _u, wc = analyses["example"]
        total = len(wc)
        for n in range(1, 12):
            assert wc.count_within(n) + wc.count_at_least(n + 1) == total

    def test_fraction_monotone(self, analyses):
        _u, wc = analyses["example"]
        fractions = [wc.fraction_within(n) for n in range(1, 15)]
        assert fractions == sorted(fractions)

    def test_guaranteed_n(self, analyses):
        _u, wc = analyses["example"]
        g = wc.guaranteed_n()
        assert g == 4  # max nmin over the example's G
        assert wc.fraction_within(g) == 1.0
        assert wc.fraction_within(g - 1) < 1.0

    def test_indices_at_least(self, analyses):
        _u, wc = analyses["example"]
        assert wc.indices_at_least(4) == [5, 6]
        assert wc.indices_at_least(5) == []

    def test_coverage_curve(self, analyses):
        _u, wc = analyses["example"]
        curve = wc.coverage_curve([1, 2, 3, 4])
        assert curve[-1] == 100.0
        assert curve == sorted(curve)

    def test_rejects_undetectable_table(self, analyses):
        u, _wc = analyses["example"]
        bad = DetectionTable.from_signatures(
            u.circuit, list(u.untargeted_table.faults),
            [0] * len(u.untargeted_table),
        )
        with pytest.raises(AnalysisError, match="undetectable"):
            WorstCaseAnalysis(u.target_table, bad)


class TestExplicitEmptyCounts:
    """Regression: an explicit empty target_counts list used to be
    silently replaced by a recompute (falsy-list defaulting)."""

    def test_empty_counts_honored(self, analyses):
        u, _wc = analyses["example"]
        g_sig = u.untargeted_table.packed.row_bigint(0)
        nmin, witness, overlap = nmin_for_untargeted_fault(
            u.target_table.packed.to_bigints(), g_sig, target_counts=[],
            sorted_order=None,
        )
        # No target counts => no targets to scan => no guarantee.
        assert (nmin, witness, overlap) == (None, None, 0)

    def test_none_counts_still_recomputed(self, analyses):
        u, _wc = analyses["example"]
        g_sig = u.untargeted_table.packed.row_bigint(0)
        rows = u.target_table.packed.to_bigints()
        with_none = nmin_for_untargeted_fault(rows, g_sig)
        explicit = nmin_for_untargeted_fault(
            rows, g_sig, target_counts=u.target_table.counts()
        )
        assert with_none == explicit
        assert with_none[0] is not None


def _scalar_records(target, untargeted):
    """Per-fault ``nmin_for_untargeted_fault`` over ``target``'s big-int
    rows: the definition the array scan must reproduce."""
    rows = target.packed.to_bigints()
    counts = [sig.bit_count() for sig in rows]
    order = sorted(range(len(counts)), key=counts.__getitem__)
    return [
        NminRecord(
            j,
            *nmin_for_untargeted_fault(
                rows, g_sig, target_counts=counts, sorted_order=order
            ),
        )
        for j, g_sig in enumerate(untargeted.packed.to_bigints())
    ]


def _oracle_tables(name, packed):
    """``(label, target, untargeted)`` cases built from one circuit:
    the full tables, one whose targets leave some ``G`` faults without a
    guarantee, and one with an empty ``G``.  ``packed`` takes the rows
    from the kernel's words; otherwise they are packed from big-ints."""
    u = FaultUniverse(get_circuit(name), backend=TableBackend())
    target, untargeted = u.target_table, u.untargeted_table

    def table(source, rows):
        rows = list(rows)
        faults = [source.faults[i] for i in rows]
        if packed:
            return DetectionTable(
                source.circuit, faults, source.packed.take(rows),
                source.universe,
            )
        return DetectionTable.from_signatures(
            source.circuit, faults,
            [source.packed.row_bigint(i) for i in rows], source.universe,
        )

    all_f, all_g = range(len(target)), range(len(untargeted))
    # Two smallest-N targets: most of G overlaps neither.
    few = sorted(all_f, key=target.counts().__getitem__)[:2]
    return [
        ("full", table(target, all_f), table(untargeted, all_g)),
        ("no-guarantee", table(target, few), table(untargeted, all_g)),
        ("empty-G", table(target, all_f), table(untargeted, [])),
    ]


def _has_witness_tie(target, untargeted, records):
    """Whether some record's nmin is reached by two or more targets."""
    counts = target.counts()
    for rec in records:
        g_sig = untargeted.packed.row_bigint(rec.fault_index)
        reaching = [
            f
            for f, sig in enumerate(target.packed.to_bigints())
            if sig & g_sig
            and counts[f] - (sig & g_sig).bit_count() + 1 == rec.nmin
        ]
        if len(reaching) > 1:
            return True
    return False


class TestArrayScanOracle:
    """The deduplicated array scan equals the per-fault scalar scan, and
    every threshold query equals its definition over those records."""

    @pytest.mark.parametrize("packed", [False, True], ids=["bigint", "packed"])
    @pytest.mark.parametrize("name", ["ex2", "bbsse"])
    def test_records_and_queries_match_definitions(self, name, packed):
        seen = set()
        for label, target, untargeted in _oracle_tables(name, packed):
            wc = WorstCaseAnalysis(target, untargeted)
            # An exact universe is scanned on words alone.
            assert "signatures" not in target.__dict__, label
            assert "signatures" not in untargeted.__dict__, label
            expected = _scalar_records(target, untargeted)
            assert wc.records == expected, label
            values = [r.nmin for r in expected]
            seen.add(label if values else "empty")
            if None in values:
                seen.add("none")
            if len(set(untargeted.packed.to_bigints())) < len(untargeted):
                seen.add("duplicate-G")
            if label == "full" and _has_witness_tie(
                target, untargeted, expected[:100]
            ):
                seen.add("tie")
            assert len(wc) == len(values)
            assert wc.nmin_values() == values
            assert all(type(v) is int for v in wc.nmin_values() if v)
            assert wc.estimated_nmin_values() == values  # exact universe
            finite = [v for v in values if v is not None]
            ns = list(range(max(finite, default=0) + 2))
            for n in ns:
                within = sum(1 for v in finite if v <= n)
                at_least = [
                    j for j, v in enumerate(values) if v is None or v >= n
                ]
                assert type(wc.count_within(n)) is int
                assert wc.count_within(n) == within
                assert wc.fraction_within(n) == (
                    within / len(values) if values else 1.0
                )
                assert wc.count_at_least(n) == len(at_least)
                assert wc.indices_at_least(n) == at_least
            assert wc.coverage_curve(ns) == [
                100.0 * wc.fraction_within(n) for n in ns
            ]
            # An empty G: guaranteed_n() == 0 and fraction_within(n) == 1.0.
            guaranteed = None if None in values else max(finite, default=0)
            assert wc.guaranteed_n() == guaranteed
            assert wc.estimated_guaranteed_n() == guaranteed
        assert seen >= {"full", "none", "duplicate-G", "tie", "empty"}, seen


class TestObjectFreeAnalyze:
    """Exhaustive ``repro analyze`` runs on arrays and packed words."""

    def test_analyze_builds_no_fault_objects_nor_bigints(
        self, monkeypatch, capsys
    ):
        import hashlib
        import json
        from pathlib import Path

        from repro.cli import main
        from repro.faults.bridging import BridgingFault
        from repro.logic.packed import PackedSignatureMatrix

        calls = {"BridgingFault": 0, "to_bigints": 0}
        check_fault = BridgingFault.__post_init__
        to_bigints = PackedSignatureMatrix.to_bigints

        def counting_check(self):
            calls["BridgingFault"] += 1
            check_fault(self)

        def counting_to_bigints(self):
            calls["to_bigints"] += 1
            return to_bigints(self)

        monkeypatch.setattr(BridgingFault, "__post_init__", counting_check)
        monkeypatch.setattr(
            PackedSignatureMatrix, "to_bigints", counting_to_bigints
        )
        assert main(["analyze", "ex2"]) == 0
        out = capsys.readouterr().out.encode()
        expected_path = (
            Path(__file__).resolve().parents[2] / "perfbench" / "expected.json"
        )
        expected = json.loads(expected_path.read_text())["analyze ex2"]
        assert hashlib.sha256(out).hexdigest() == expected["sha256"]
        assert calls == {"BridgingFault": 0, "to_bigints": 0}
        # The counters do count: one indexed fault is one construction.
        from repro.faults.bridging import four_way_bridging_faults

        four_way_bridging_faults(get_circuit("ex2"))[0]
        assert calls["BridgingFault"] == 1

    def test_forced_hash_collisions_keep_bbsse_arrays(self, monkeypatch):
        import numpy as np

        import repro.logic.packed as packed

        u = FaultUniverse(get_circuit("bbsse"))
        target, untargeted = u.target_table, u.untargeted_table
        hashed = WorstCaseAnalysis(target, untargeted)
        monkeypatch.setattr(
            packed, "_row_hashes", lambda w: np.zeros(len(w), np.uint64)
        )
        collided = WorstCaseAnalysis(target, untargeted)
        for name in ("nmin", "witness", "witness_overlap"):
            assert np.array_equal(
                getattr(collided, name), getattr(hashed, name)
            ), name
