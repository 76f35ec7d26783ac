"""CLI smoke tests (fast paths only)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in (
            ["table1"],
            ["table2"],
            ["table3"],
            ["table4"],
            ["table5"],
            ["table6"],
            ["figure2"],
            ["suite"],
            ["show-example"],
            ["partition", "lion"],
        ):
            args = parser.parse_args(cmd)
            assert args.command == cmd[0]


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "nmin(g0) = 3" in out

    def test_table4(self, capsys):
        assert main(["table4", "--k", "3", "--seed", "1"]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_show_example(self, capsys):
        assert main(["show-example"]) == 0
        out = capsys.readouterr().out
        assert "9" in out and "11" in out

    def test_table2_subset(self, capsys):
        assert main(["table2", "--circuits", "lion,train4"]) == 0
        out = capsys.readouterr().out
        assert "lion" in out and "train4" in out

    def test_table3_subset(self, capsys):
        assert main(["table3", "--circuits", "lion"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_figure2_small(self, capsys):
        assert main(["figure2", "--circuit", "lion", "--min", "100"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_partition(self, capsys):
        assert main(["partition", "paper_example", "--max-inputs", "3"]) == 0
        out = capsys.readouterr().out
        assert "Cone-partitioned" in out

    def test_escape(self, capsys):
        assert main(
            ["escape", "lion", "--k", "30", "--nmax", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "worst-case escapes" in out
        # Final row: everything guaranteed on this easy circuit.
        last = out.strip().splitlines()[-1].split()
        assert last[0] == "4"

    def test_gen_tests_podem_method(self, capsys):
        assert main(
            ["gen-tests", "paper_example", "--n", "1", "--method", "podem"]
        ) == 0
        out = capsys.readouterr().out
        assert "podem" in out.splitlines()[0]
        rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        assert all(set(r) <= {"0", "1"} for r in rows)


class TestAnalyze:
    def test_exhaustive(self, capsys):
        assert main(["analyze", "paper_example"]) == 0
        out = capsys.readouterr().out
        assert "backend=exhaustive" in out
        assert "guaranteed n: 4" in out

    def test_sampled(self, capsys):
        assert main(
            ["analyze", "lion", "--backend", "sampled", "--samples", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "sampled" in out
        assert "8 of 16 vectors" in out
        assert "confidence" in out

    def test_serial_matches_exhaustive_summary(self, capsys):
        assert main(["analyze", "paper_example"]) == 0
        exhaustive_out = capsys.readouterr().out
        assert main(["analyze", "paper_example", "--backend", "serial"]) == 0
        serial_out = capsys.readouterr().out
        # Identical analysis, only the backend label differs.
        strip = lambda s: [
            ln for ln in s.splitlines() if "backend" not in ln
        ]
        assert strip(exhaustive_out) == strip(serial_out)

    def test_wide_circuit_completes_with_sampled_backend(self, capsys):
        """Acceptance: a >24-input circuit (impossible at seed) finishes
        a worst-case analysis via the sampled backend."""
        assert main(
            [
                "analyze", "wide32",
                "--backend", "sampled",
                "--samples", "256",
                "--seed", "7",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "inputs: 32" in out
        assert "256 of 4294967296 vectors" in out
        assert "guaranteed detected at n=10" in out

    def test_escape_with_sampled_backend(self, capsys):
        assert main(
            [
                "escape", "lion",
                "--backend", "sampled",
                "--samples", "12",
                "--k", "20",
                "--nmax", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "backend=sampled" in out
        assert "worst-case escapes" in out


class TestBackendErrorPaths:
    def test_bad_backend_name_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "lion", "--backend", "warp"])
        assert "invalid choice" in capsys.readouterr().err

    def test_sampled_without_samples(self, capsys):
        assert main(["analyze", "lion", "--backend", "sampled"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--samples" in err

    def test_samples_exceeding_universe(self, capsys):
        # lion has 4 inputs: |U| = 16.
        assert main(
            ["analyze", "lion", "--backend", "sampled", "--samples", "17"]
        ) == 2
        err = capsys.readouterr().err
        assert "cannot draw 17" in err

    def test_samples_without_sampled_backend(self, capsys):
        assert main(["analyze", "lion", "--samples", "8"]) == 2
        assert "--samples only applies" in capsys.readouterr().err

    def test_replacement_without_sampled_backend(self, capsys):
        assert main(["analyze", "lion", "--replacement"]) == 2
        assert "--replacement only applies" in capsys.readouterr().err

    def test_packed_without_samples_beyond_cap(self, capsys):
        # The retired packed engine is no backend name, with or without
        # --samples: every table stores packed words, so the parser
        # rejects it (exit 2).
        for extra in ([], ["--samples", "8"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["analyze", "wide28", "--backend", "packed", *extra])
            assert excinfo.value.code == 2
            assert "invalid choice: 'packed'" in capsys.readouterr().err

    def test_packed_replacement_without_samples(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "lion", "--backend", "packed", "--replacement"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'packed'" in capsys.readouterr().err

    def test_exhaustive_beyond_cap(self, capsys):
        # The wide circuits are out of the exhaustive engine's reach.
        assert main(["analyze", "wide28"]) == 2
        err = capsys.readouterr().err
        assert "28" in err

    def test_unknown_circuit(self, capsys):
        assert main(["analyze", "does_not_exist"]) == 2
        assert "unknown circuit" in capsys.readouterr().err


class TestAdaptiveCli:
    """--backend adaptive flags, reporting, and error paths."""

    ARGS = [
        "--backend", "adaptive",
        "--target-halfwidth", "0.2",
        "--initial-samples", "8",
        "--max-samples", "48",
    ]

    def test_analyze_reports_trajectory(self, capsys):
        assert main(["analyze", "mc", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "backend=adaptive" in out
        assert "adaptive trajectory" in out
        assert "round 0: K=8 (+8)" in out
        assert "smallest N estimate" in out

    def test_analyze_stratified(self, capsys):
        assert main(
            ["analyze", "mc", *self.ARGS, "--stratify", "bridging"]
        ) == 0
        out = capsys.readouterr().out
        assert "strata" in out

    def test_partition_per_cone_adaptive(self, capsys):
        assert main(
            [
                "partition", "wide28", *self.ARGS,
                "--max-inputs", "12",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "backend=adaptive K=" in out

    def test_samples_flag_rejected(self, capsys):
        assert main(
            ["analyze", "mc", "--backend", "adaptive", "--samples", "8"]
        ) == 2
        err = capsys.readouterr().err
        assert "--samples only applies" in err
        assert "--max-samples" in err

    def test_replacement_flag_rejected(self, capsys):
        assert main(
            ["analyze", "mc", "--backend", "adaptive", "--replacement"]
        ) == 2
        assert "--replacement only applies" in capsys.readouterr().err

    def test_adaptive_flags_require_adaptive_backend(self, capsys):
        assert main(
            ["analyze", "mc", "--target-halfwidth", "0.1"]
        ) == 2
        assert "--target-halfwidth" in capsys.readouterr().err
        assert main(
            ["analyze", "mc", "--stratify", "bridging"]
        ) == 2
        assert "--stratify" in capsys.readouterr().err
        assert main(
            ["analyze", "mc", "--max-samples", "64"]
        ) == 2
        assert "--max-samples" in capsys.readouterr().err

    def test_invalid_rule_is_friendly_error(self, capsys):
        assert main(
            [
                "analyze", "mc", "--backend", "adaptive",
                "--target-halfwidth", "0",
            ]
        ) == 2
        assert "target_halfwidth" in capsys.readouterr().err
        assert main(
            [
                "analyze", "mc", "--backend", "adaptive",
                "--confidence", "1.0",
            ]
        ) == 2
        assert "confidence" in capsys.readouterr().err


class TestJobsAndCache:
    """--jobs / REPRO_JOBS threading and the `repro cache` subcommand."""

    def test_jobs_matches_single_process_summary(self, capsys, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert main(["analyze", "lion"]) == 0
        single_out = capsys.readouterr().out
        assert main(["analyze", "lion", "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        strip = lambda s: [
            ln for ln in s.splitlines() if "backend" not in ln
        ]
        assert strip(single_out) == strip(parallel_out)
        assert "jobs=2" in parallel_out

    @pytest.mark.parametrize("flags,env,suffix", [
        ([], {}, ""),
        (["--jobs", "1"], {}, ""),
        (["--jobs", "2"], {}, " jobs=2"),
        ([], {"REPRO_JOBS": "2"}, " jobs=2"),
        (["--executor", "inline"], {}, " executor=inline"),
        (["--executor", "inline", "--jobs", "4"], {}, " executor=inline"),
        (["--executor", "tcp"], {}, " executor=tcp"),
        # A pool prints its size alone, however it was named.
        (["--executor", "pool"], {}, " jobs=2"),
        (["--executor", "pool", "--jobs", "3"], {}, " jobs=3"),
        (["--executor", "pool", "--jobs", "1"], {}, " jobs=1"),
        ([], {"REPRO_EXECUTOR": "pool"}, " jobs=2"),
        ([], {"REPRO_EXECUTOR": "pool", "REPRO_JOBS": "1"}, " jobs=2"),
        ([], {"REPRO_EXECUTOR": "pool", "REPRO_JOBS": "3"}, " jobs=3"),
    ])
    @pytest.mark.parametrize("backend", ["exhaustive", "adaptive"])
    def test_execution_suffix_names_the_executor_used(
        self, backend, flags, env, suffix, capsys, tmp_path, monkeypatch
    ):
        """The ``backend=`` label names the executor the builds ran on,
        the same way for the sharded and the adaptive backend."""
        import threading
        from contextlib import ExitStack

        from repro.parallel.netqueue import BackgroundBroker, TcpWorker

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        with ExitStack() as stack:
            if "tcp" in flags:
                broker = stack.enter_context(BackgroundBroker())
                worker = TcpWorker(
                    broker=broker.address, worker_id="label",
                    cache_dir=str(tmp_path / "worker"), use_cache=False,
                )
                thread = threading.Thread(target=worker.serve, daemon=True)
                thread.start()
                stack.callback(thread.join, 30)
                stack.callback(worker.stop)
                flags = [*flags, "--broker", broker.address]
            assert main(
                ["analyze", "paper_example", "--backend", backend, *flags]
            ) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == (
            f"Worst-case analysis of paper_example "
            f"(backend={backend}{suffix})"
        )

    def test_jobs_zero_rejected(self, capsys):
        assert main(["analyze", "lion", "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--jobs" in err

    def test_jobs_negative_rejected(self, capsys):
        assert main(["analyze", "lion", "--jobs", "-3"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_malformed_repro_jobs_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert main(["analyze", "lion"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "REPRO_JOBS" in err

    def test_explicit_jobs_beats_env(self, capsys, monkeypatch):
        # With --jobs given, the (malformed) env var is never consulted.
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert main(["analyze", "lion", "--jobs", "1"]) == 0
        assert "guaranteed n" in capsys.readouterr().out

    def test_cache_info_and_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shards"))
        assert main(["analyze", "lion", "--jobs", "2"]) == 0
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and str(tmp_path) in out
        assert "entries: 0" not in out  # the analyze run stored shards
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "info"]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_dir_flag_overrides_env(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert main(
            ["cache", "info", "--cache-dir", str(tmp_path / "flag")]
        ) == 0
        assert "flag" in capsys.readouterr().out

    def test_partition_wide_backend(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(
            [
                "partition", "wide28",
                "--max-inputs", "10",
                "--backend", "sampled",
                "--samples", "32",
                "--seed", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "backend=sampled" in out  # wide cones analyzed, not skipped
        assert "Cone-partitioned" in out

    def test_partition_wide_without_backend_fails(self, capsys):
        assert main(["partition", "wide28", "--max-inputs", "10"]) == 2
        assert "cannot partition" in capsys.readouterr().err

    def test_partition_wide_sampled_tagged_correctly(self, capsys,
                                                     tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(
            [
                "partition", "wide28",
                "--max-inputs", "10",
                "--backend", "sampled",
                "--samples", "32",
                "--seed", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "backend=sampled" in out  # tag names the engine in use

    def test_partition_jobs_threaded(self, capsys, tmp_path, monkeypatch):
        # --jobs must not be dropped for the default exhaustive backend:
        # the cone builds go through the shard cache, observable on disk.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shards"))
        assert main(["partition", "paper_example", "--max-inputs", "3"]) == 0
        single_out = capsys.readouterr().out
        assert not (tmp_path / "shards").exists()
        assert main(
            ["partition", "paper_example", "--max-inputs", "3",
             "--jobs", "2"]
        ) == 0
        jobs_out = capsys.readouterr().out
        assert jobs_out == single_out  # identical analysis
        assert list((tmp_path / "shards").glob("*.pkl"))  # sharded build ran


class TestExecutorsAndQueueCLI:
    """--executor threading, `repro worker`, and `repro queue`.

    The distributed cases run against a live in-process broker; the
    ``repro worker`` / ``repro queue`` commands under test are the real
    CLI entry points talking to it over TCP.
    """

    @pytest.fixture(autouse=True)
    def _restore_event_logger(self):
        # `repro worker` binds a stderr handler to the event logger; drop
        # it with this test's captured stream, before later broker
        # threads log into the closed capture.
        import logging

        from repro.obs.tracer import EVENT_LOGGER

        logger = logging.getLogger(EVENT_LOGGER)
        handlers, level = list(logger.handlers), logger.level
        yield
        logger.handlers[:] = handlers
        logger.setLevel(level)

    @pytest.fixture()
    def broker(self, tmp_path, monkeypatch):
        from repro.parallel.netqueue import BackgroundBroker

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shards"))
        monkeypatch.delenv("REPRO_BROKER", raising=False)
        with BackgroundBroker() as running:
            yield running

    @pytest.fixture()
    def drain(self, broker, tmp_path):
        """One in-process worker serving ``broker`` for the test."""
        import threading

        from repro.parallel.netqueue import TcpWorker

        worker = TcpWorker(
            broker=broker.address,
            worker_id="drain",
            cache_dir=str(tmp_path / "worker-cache"),
            use_cache=False,
        )
        thread = threading.Thread(target=worker.serve, daemon=True)
        thread.start()
        yield worker
        worker.stop()
        thread.join(timeout=30)

    @staticmethod
    def _submit_lion_shards(broker, count=2):
        """Submit ``count`` lion shards from a background submitter and
        wait until the broker holds them all (built or queued)."""
        import threading
        import time

        from repro.bench_suite.registry import get_circuit
        from repro.errors import AnalysisError
        from repro.faults.stuck_at import collapsed_stuck_at_faults
        from repro.faultsim.backends import TableBackend
        from repro.parallel import ShardTask
        from repro.parallel.netqueue import TcpExecutor

        circuit = get_circuit("lion")
        backend = TableBackend()
        faults = collapsed_stuck_at_faults(circuit)
        tasks = [
            ShardTask(
                circuit=circuit,
                backend=backend,
                kind="stuck_at",
                faults=faults[2 * index : 2 * index + 2],
                shard_index=index,
            )
            for index in range(count)
        ]

        def submit():
            executor = TcpExecutor(broker=broker.address, wait_timeout=60.0)
            try:
                executor.submit(tasks)
            except AnalysisError:
                pass  # `repro queue clear` fails waiting submitters

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while len(broker.stats()["pending"]) < count:
            assert time.monotonic() < deadline, "shards never queued"
            time.sleep(0.01)
        return thread

    @staticmethod
    def _wait_for_results(broker, count):
        import time

        deadline = time.monotonic() + 30.0
        while broker.stats()["results"] < count:
            assert time.monotonic() < deadline, "results never arrived"
            time.sleep(0.01)

    def test_inline_executor_matches_plain_summary(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shards"))
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert main(["analyze", "lion"]) == 0
        plain_out = capsys.readouterr().out
        assert main(["analyze", "lion", "--executor", "inline"]) == 0
        inline_out = capsys.readouterr().out
        strip = lambda s: [
            ln for ln in s.splitlines() if "backend" not in ln
        ]
        assert strip(plain_out) == strip(inline_out)
        assert "executor=inline" in inline_out
        # The inline executor still runs the sharded, cached build.
        assert list((tmp_path / "shards").glob("*.pkl"))

    def test_tcp_executor_matches_plain_summary(self, capsys, broker,
                                                drain):
        assert main(["analyze", "lion"]) == 0
        plain_out = capsys.readouterr().out
        assert main(
            ["analyze", "lion", "--executor", "tcp",
             "--broker", broker.address]
        ) == 0
        tcp_out = capsys.readouterr().out
        strip = lambda s: [
            ln for ln in s.splitlines() if "backend" not in ln
        ]
        assert strip(plain_out) == strip(tcp_out)
        assert "executor=tcp" in tcp_out

    def test_env_executor_and_broker(self, capsys, broker, drain,
                                     monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "tcp")
        monkeypatch.setenv("REPRO_BROKER", broker.address)
        assert main(["analyze", "lion"]) == 0
        assert "executor=tcp" in capsys.readouterr().out

    def test_worker_drains_and_reports(self, capsys, broker):
        submitter = self._submit_lion_shards(broker, count=2)
        assert main(
            ["worker", "--broker", broker.address, "--idle-exit", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "built 2 shard(s)" in out
        assert f"@ broker {broker.address}" in out
        submitter.join(timeout=30)
        assert not submitter.is_alive()
        stats = broker.stats()
        assert stats["results"] == 2 and stats["pending"] == []

    def test_worker_max_tasks(self, capsys, broker, monkeypatch):
        # Only REPRO_BROKER names the broker: neither command gets
        # --broker, so both must fall back to the environment.
        monkeypatch.setenv("REPRO_BROKER", broker.address)
        submitter = self._submit_lion_shards(broker, count=3)
        assert main(["worker", "--max-tasks", "1"]) == 0
        assert "built 1 shard(s)" in capsys.readouterr().out
        self._wait_for_results(broker, 1)
        assert main(["queue", "info"]) == 0
        out = capsys.readouterr().out
        assert f"broker: {broker.address}" in out
        assert "results: 1" in out
        assert main(["queue", "clear"]) == 0
        submitter.join(timeout=30)

    def test_worker_without_broker(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_BROKER", raising=False)
        assert main(["worker", "--idle-exit", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "repro worker" in err and "REPRO_BROKER" in err
        assert main(["queue", "info"]) == 2
        err = capsys.readouterr().err
        assert "repro queue" in err and "REPRO_BROKER" in err

    def test_queue_info_and_clear(self, capsys, broker):
        submitter = self._submit_lion_shards(broker, count=2)
        assert main(["queue", "info", "--broker", broker.address]) == 0
        out = capsys.readouterr().out
        assert "pending tasks: 2" in out
        assert main(["queue", "clear", "--broker", broker.address]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["queue", "info", "--broker", broker.address]) == 0
        assert "pending tasks: 0" in capsys.readouterr().out
        submitter.join(timeout=30)
        assert not submitter.is_alive()

    def test_tcp_executor_without_broker(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_BROKER", raising=False)
        assert main(["analyze", "lion", "--executor", "tcp"]) == 2
        err = capsys.readouterr().err
        assert "--broker" in err and "REPRO_BROKER" in err

    def test_broker_without_tcp_executor(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert main(["analyze", "lion", "--broker", "h:1"]) == 2
        assert "--broker only applies" in capsys.readouterr().err
        assert main(
            ["analyze", "lion", "--executor", "pool", "--broker", "h:1"]
        ) == 2
        assert "--broker only applies" in capsys.readouterr().err

    def test_bad_executor_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "lion", "--executor", "cluster"])
        assert "invalid choice" in capsys.readouterr().err

    def test_cache_info_reports_format_versions(self, capsys, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shards"))
        assert main(["analyze", "lion", "--jobs", "2"]) == 0
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "format v3:" in out
        assert "stale" not in out

    def test_partition_executor_threaded(self, capsys, broker, drain):
        assert main(["partition", "paper_example", "--max-inputs", "3"]) == 0
        plain_out = capsys.readouterr().out
        assert main(
            ["partition", "paper_example", "--max-inputs", "3",
             "--executor", "tcp", "--broker", broker.address]
        ) == 0
        tcp_out = capsys.readouterr().out
        assert tcp_out == plain_out  # identical analysis
        # The cone builds really went through the broker.
        assert broker.stats()["counters"]["completed"] > 0


class TestStartup:
    def test_analyze_does_not_load_the_tcp_transport(self, tmp_path):
        """Only ``--executor tcp`` runs pay for asyncio and the broker
        transport; a plain analysis never imports them."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "shards")
        probe = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['analyze', 'paper_example']) == 0\n"
            "loaded = [m for m in ('asyncio', 'repro.parallel.netqueue')"
            " if m in sys.modules]\n"
            "print('loaded:', loaded)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "guaranteed n: 4" in proc.stdout
        assert "loaded: []" in proc.stdout
