"""Tests of the benchmark itself: op lists, metric names, output checks.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import plan  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((plan.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    first = plan.round_ops(workload, 7)
    assert first == plan.round_ops(workload, 7)
    assert first != plan.round_ops(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_order_not_work(workload):
    """Every seed runs the same multiset of ops, only in another order."""
    def work(seed):
        return sorted(op.key for op in plan.round_ops(workload, seed))

    assert work(1) == work(2)


def test_every_pool_op_has_an_expected_output():
    expected = plan.load_expected()
    for workload in WORKLOADS:
        for seed in range(5):
            for op in plan.round_ops(workload, seed):
                assert op.key in expected, op.key
    assert {op.key for op in plan.pool_ops()} == set(expected)


def test_metric_names_and_units_are_well_formed():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


def test_bounds_and_setup_metric():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_map_names_declared_metrics():
    assert set(plan.LAYER_MAP) == set(WORKLOADS)
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for layers in plan.LAYER_MAP.values():
        assert set(layers) <= per_layer
        for moved in layers.values():
            assert set(moved) <= end_to_end


def test_worker_reports_exactly_the_declared_metrics():
    phase = worker.Phase()
    for ms in (3.0, 1.0, 2.0):
        phase.add(plan.warmup_op("worst_suite"), ms, True, 1.0)
    phase.busy_s = 0.006
    end_to_end = {*phase.end_to_end(), "peak_rss_mb", "setup_s"}
    assert end_to_end == {m["name"] for m in BENCHMARK["end_to_end"]}
    empty = {"ops": [], "calls": {}, "counts": {}}
    layers = {
        *worker.layer_metrics(empty, None),
        *worker.overhead(phase, phase),
        "cli.import_ms",
    }
    assert layers == {m["name"] for m in BENCHMARK["per_layer"]}


def test_phase_reports_times_at_the_reference_speed():
    phase = worker.Phase()
    op = plan.warmup_op("worst_suite")
    for ms, scale in ((40.0, 0.5), (10.0, 1.0), (30.0, 0.5)):
        phase.add(op, ms, True, scale)
    assert phase.ms == [20.0, 10.0, 15.0]
    assert phase.raw_ms == [40.0, 10.0, 30.0]
    phase.busy_s = 0.045
    assert phase.end_to_end()["op_p50_ms"] == 15.0


def test_speed_scale_is_reference_over_mean_reading():
    assert speed.scale(2 * speed.REFERENCE_MS) == 0.5
    assert speed.scale(speed.REFERENCE_MS, 3 * speed.REFERENCE_MS) == 0.5
    cpus = os.sched_getaffinity(0)
    assert speed.machine_ms() > 0
    assert os.sched_getaffinity(0) == cpus


def test_serve_block_is_one_block_of_visits():
    assert plan.SERVE_BLOCK_OPS == len(plan._serve_block())


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 10001)]
    assert stats.tail(values) == (99.9, 9990, 9990.0)
    assert stats.tail(values[:9999])[:2] == (90.0, 9000)
    assert stats.tail(values[:100]) == (90.0, 90, 90.0)
    # Too few samples for any tail: the median, labelled as such.
    assert stats.tail(values[:99]) == (50.0, 50, 50.0)
    assert stats.tail(values[:40]) == (50.0, 20, 20.5)


def test_corrupted_output_counts_as_failed():
    op = plan.round_ops("worst_suite", 0)[0]
    expected = plan.load_expected()
    assert not plan.output_ok(expected, op, b"")
    runner = worker.InProcess("worst_suite", 0)
    good = plan.Op(key="analyze donfile", argv=("analyze", "donfile"))
    runner.expected = {good.key: {"sha256": "0" * 64}}
    assert runner.run_op(good)[1] is False
    runner.expected = plan.load_expected()
    assert runner.run_op(good)[1] is True
    crash = plan.Op(key="analyze donfile", argv=("analyze", "no-such-circuit"))
    assert runner.run_op(crash)[1] is False


def test_clean_env_drops_foreign_repro_variables(monkeypatch):
    monkeypatch.setenv("REPRO_PPSFP", "0")
    monkeypatch.setenv("REPRO_TRACE_FILE", "/tmp/trace.jsonl")
    env = plan.clean_env(REPRO_CACHE_DIR="cache")
    assert [k for k in env if k.startswith("REPRO_")] == ["REPRO_CACHE_DIR"]



def test_window_keeps_only_the_timed_phase():
    dump = {
        "ops": [{"start": 1.0, "cli.render": 5.0},
                {"start": 3.0, "cli.render": 7.0}],
        "calls": {"faultsim.build": [[1.5, 40.0], [2.5, 60.0], [4.0, 9.0]]},
        "counts": {"faults.count": 12.0},
    }
    cut = layers.window(dump, 2.0, 4.0)
    assert cut["ops"] == [{"start": 3.0, "cli.render": 7.0}]
    assert cut["calls"] == {"faultsim.build": [[2.5, 60.0]]}
    assert cut["counts"] == {}


def test_import_ms_reads_importtime_of_repro():
    # ``repro.errors`` loads the package too, so the two costs are close
    # and only their sign is stable on a noisy machine.
    assert worker.import_ms("repro.cli") > 0
    with pytest.raises(RuntimeError):
        worker.import_ms("json")
