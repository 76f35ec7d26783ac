"""AnalysisService tests: CLI byte-identity, single-flight, caching."""

from __future__ import annotations

import asyncio
import io
import threading
from contextlib import redirect_stdout

import pytest

from repro import cli
from repro.errors import AnalysisError
from repro.options import OPTIONS, backend_from_options
from repro.serve import AnalysisService, ServiceError
from repro.serve.service import _COMMAND_KEYS

#: One valid payload per option-table row, keyed by the row's dest.
ROW_PAYLOADS: dict[str, dict[str, object]] = {
    "backend": {"backend": "serial"},
    "samples": {"backend": "sampled", "samples": 16},
    "replacement": {"backend": "sampled", "samples": 16, "replacement": True},
    "jobs": {"jobs": 2},
    "executor": {"executor": "inline"},
    "broker": {"executor": "tcp", "broker": "h:1"},
    "target_halfwidth": {"backend": "adaptive", "target_halfwidth": 0.2},
    "max_samples": {"backend": "adaptive", "max_samples": 128},
    "initial_samples": {"backend": "adaptive", "initial_samples": 32},
    "stratify": {"backend": "adaptive", "stratify": "bridging"},
}

#: The payload keys each endpoint accepted before the option table
#: existed; the table must neither add nor drop one.
BACKEND_KEYS = {
    "backend", "samples", "replacement", "seed", "jobs", "executor",
    "broker", "target_halfwidth", "max_samples", "initial_samples",
    "stratify",
}


def cli_output(argv):
    """stdout of a `repro` CLI run, as the service must reproduce it."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    assert code == 0
    return buffer.getvalue()


class CountingBuilds:
    """Wrap a service's build step with a thread-safe call counter.

    Optionally gates builds on an event so tests can hold a build
    in-flight while more requests pile up behind it.
    """

    def __init__(self, service, gate=None):
        self.calls = 0
        self.gate = gate
        self._lock = threading.Lock()
        self._base = service._build_universe
        service._build_universe = self  # instance attr shadows the staticmethod

    def __call__(self, circuit, backend):
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            self.gate.wait(timeout=30.0)
        return self._base(circuit, backend)


class TestByteIdentity:
    def test_analyze_matches_cli(self):
        service = AnalysisService()
        payload = {
            "circuit": "c17",
            "backend": "sampled",
            "samples": 16,
            "seed": 7,
        }
        report = asyncio.run(service.analyze(payload))
        assert report == cli_output(
            ["analyze", "c17", "--backend", "sampled", "--samples", "16",
             "--seed", "7"]
        )

    def test_defaults_come_from_the_cli_parser(self):
        # No seed / confidence in the payload: the service must inherit
        # the CLI's own defaults (seed 2005, confidence 0.95).
        service = AnalysisService()
        report = asyncio.run(service.analyze({"circuit": "c17"}))
        assert report == cli_output(["analyze", "c17"])

    def test_escape_matches_cli(self):
        service = AnalysisService()
        payload = {"circuit": "c17", "k": 20, "nmax": 5}
        report = asyncio.run(service.escape(payload))
        assert report == cli_output(
            ["escape", "c17", "--k", "20", "--nmax", "5"]
        )

    def test_partition_matches_cli(self):
        service = AnalysisService()
        payload = {
            "circuit": "mc",
            "max_inputs": 4,
            "backend": "sampled",
            "samples": 8,
        }
        report = asyncio.run(service.partition(payload))
        assert report == cli_output(
            ["partition", "mc", "--max-inputs", "4", "--backend",
             "sampled", "--samples", "8"]
        )

    def test_inline_circuit_source(self):
        service = AnalysisService()
        bench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
        report = asyncio.run(
            service.analyze(
                {"circuit": {"format": "bench", "source": bench,
                             "name": "tiny"}}
            )
        )
        assert report.startswith("Worst-case analysis of tiny ")


class TestValidation:
    def test_unknown_option_rejected(self):
        service = AnalysisService()
        with pytest.raises(ServiceError, match="unknown option.*bogus"):
            asyncio.run(service.analyze({"circuit": "c17", "bogus": 1}))

    def test_missing_circuit_rejected(self):
        service = AnalysisService()
        with pytest.raises(ServiceError, match="missing 'circuit'"):
            asyncio.run(service.analyze({}))

    def test_cli_parser_errors_become_service_errors(self):
        service = AnalysisService()
        with pytest.raises(ServiceError, match="invalid int value"):
            asyncio.run(
                service.analyze({"circuit": "c17", "samples": "many"})
            )

    def test_backend_mismatch_names_payload_keys(self):
        service = AnalysisService()
        with pytest.raises(AnalysisError) as err:
            service._resolve("analyze", {"circuit": "c17", "samples": 8})
        assert str(err.value) == (
            "samples only applies to backend=sampled (got backend=exhaustive)"
        )

    def test_broker_errors_name_payload_keys(self):
        service = AnalysisService()
        for payload, message in (
            ({"broker": "h:1"}, "broker only applies to executor=tcp"),
            (
                {"executor": "pool", "broker": "h:1"},
                "broker only applies to executor=tcp (got executor=pool)",
            ),
        ):
            with pytest.raises(AnalysisError) as err:
                service._resolve("analyze", {"circuit": "c17", **payload})
            assert str(err.value) == message

    def test_non_object_payload_rejected(self):
        service = AnalysisService()
        with pytest.raises(ServiceError, match="JSON object"):
            asyncio.run(service.analyze(["circuit", "c17"]))

    def test_bad_inline_format_rejected(self):
        service = AnalysisService()
        with pytest.raises(ServiceError, match="'format' must be one of"):
            asyncio.run(
                service.analyze(
                    {"circuit": {"format": "vhdl", "source": "x"}}
                )
            )

    def test_payload_keys_are_pinned(self):
        pinned = {
            "analyze": BACKEND_KEYS | {"confidence"},
            "escape": BACKEND_KEYS | {"k", "nmax"},
            "partition": BACKEND_KEYS | {"max_inputs"},
        }
        assert {c: set(keys) for c, keys in _COMMAND_KEYS.items()} == pinned

    @pytest.mark.parametrize("command", sorted(_COMMAND_KEYS))
    @pytest.mark.parametrize("option", OPTIONS, ids=lambda o: o.dest)
    def test_every_row_resolves_like_its_argv(self, command, option):
        payload = {**ROW_PAYLOADS[option.dest], "seed": 7}
        circuit = "mc" if command == "partition" else "c17"
        request = AnalysisService()._resolve(
            command, {"circuit": circuit, **payload}
        )
        argv = [command, circuit]
        for key, value in payload.items():
            flag = "--" + key.replace("_", "-")
            argv += [flag] if value is True else [flag, str(value)]
        args = cli.build_parser().parse_args(argv)
        assert request.args == args
        assert request.backend == backend_from_options(vars(args))

    def test_switch_rows_take_json_booleans(self):
        service = AnalysisService()
        with pytest.raises(ServiceError, match="'replacement' must be a"):
            service._resolve(
                "analyze",
                {"circuit": "c17", "backend": "sampled", "samples": 8,
                 "replacement": "yes"},
            )
        with pytest.raises(ServiceError, match="'samples' must not be a"):
            service._resolve(
                "analyze",
                {"circuit": "c17", "backend": "sampled", "samples": True},
            )

    def test_service_level_execution_defaults_apply(self):
        service = AnalysisService(jobs=1)
        request = service._resolve("analyze", {"circuit": "c17"})
        assert request.args.jobs == 1
        explicit = service._resolve(
            "analyze", {"circuit": "c17", "jobs": 2}
        )
        assert explicit.args.jobs == 2


class TestSingleFlight:
    def test_concurrent_identical_requests_build_once(self):
        service = AnalysisService()
        gate = threading.Event()
        builds = CountingBuilds(service, gate=gate)
        payload = {
            "circuit": "c17",
            "backend": "sampled",
            "samples": 16,
            "seed": 7,
        }
        K = 6

        async def main():
            tasks = [
                asyncio.create_task(service.analyze(payload))
                for _ in range(K)
            ]
            while service.flights.joined < K - 1:
                await asyncio.sleep(0.01)
            gate.set()
            return await asyncio.gather(*tasks)

        reports = asyncio.run(main())
        expected = cli_output(
            ["analyze", "c17", "--backend", "sampled", "--samples", "16",
             "--seed", "7"]
        )
        assert builds.calls == 1
        assert reports == [expected] * K
        assert service.flights.started == 1
        assert service.flights.joined == K - 1
        assert service.flights.in_flight == 0

    def test_concurrent_endpoints_scan_worst_case_once(self, monkeypatch):
        """/analyze, /escape and /analyze/stream on one key share one
        universe, so the nmin scan runs once, inside the build."""
        from repro.core.worst_case import WorstCaseAnalysis

        scans = []
        original = WorstCaseAnalysis.__init__

        def counting_init(self, *args, **kwargs):
            scans.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(WorstCaseAnalysis, "__init__", counting_init)
        service = AnalysisService()
        gate = threading.Event()
        builds = CountingBuilds(service, gate=gate)
        escape = {"circuit": "c17", "k": 10, "nmax": 3}

        async def stream():
            return "".join(
                [chunk async for chunk in service.analyze_stream(
                    {"circuit": "c17"}
                )]
            )

        async def main():
            tasks = [
                asyncio.create_task(service.analyze({"circuit": "c17"})),
                asyncio.create_task(service.escape(escape)),
                asyncio.create_task(stream()),
            ]
            while service.flights.joined < 2:
                await asyncio.sleep(0.01)
            gate.set()
            return await asyncio.gather(*tasks)

        analyzed, escaped, streamed = asyncio.run(main())
        assert builds.calls == 1
        assert len(scans) == 1
        assert analyzed == streamed == cli_output(["analyze", "c17"])
        assert escaped == cli_output(
            ["escape", "c17", "--k", "10", "--nmax", "3"]
        )
        assert len(scans) == 3  # the two CLI runs above scan once each

    def test_warm_requests_hit_the_hot_tier(self):
        service = AnalysisService()
        builds = CountingBuilds(service)
        payload = {"circuit": "c17"}
        first = asyncio.run(service.analyze(payload))
        second = asyncio.run(service.analyze(payload))
        assert first == second
        assert builds.calls == 1
        assert service.cache.hits == 1
        assert service.cache.hit_rate > 0

    def test_distinct_configurations_do_not_alias(self):
        service = AnalysisService()
        builds = CountingBuilds(service)
        asyncio.run(
            service.analyze(
                {"circuit": "c17", "backend": "sampled", "samples": 16}
            )
        )
        asyncio.run(
            service.analyze(
                {"circuit": "c17", "backend": "sampled", "samples": 16,
                 "seed": 9}
            )
        )
        assert builds.calls == 2

    def test_escape_shares_tables_with_analyze(self):
        service = AnalysisService()
        builds = CountingBuilds(service)
        asyncio.run(service.analyze({"circuit": "c17"}))
        asyncio.run(
            service.escape({"circuit": "c17", "k": 10, "nmax": 3})
        )
        assert builds.calls == 1

    def test_cancellation_mid_build_leaves_flight_reusable(self):
        service = AnalysisService()
        gate = threading.Event()
        builds = CountingBuilds(service, gate=gate)
        payload = {"circuit": "c17"}

        async def main():
            task = asyncio.create_task(service.analyze(payload))
            while service.flights.started < 1:
                await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert service.flights.in_flight == 0
            # Release the (abandoned) first build thread, then rebuild.
            gate.set()
            return await service.analyze(payload)

        report = asyncio.run(main())
        assert report == cli_output(["analyze", "c17"])
        assert builds.calls == 2
        assert service.flights.started == 2


class TestStreaming:
    def test_stream_interleaves_progress_then_identical_report(self):
        service = AnalysisService()
        payload = {
            "circuit": "wide28",
            "backend": "adaptive",
            "target_halfwidth": 0.5,
            "initial_samples": 32,
            "max_samples": 64,
        }

        async def main():
            chunks = []
            async for chunk in service.analyze_stream(payload):
                chunks.append(chunk)
            return chunks

        chunks = asyncio.run(main())
        progress = [c for c in chunks if c.startswith("progress: ")]
        assert progress, "adaptive build produced no progress lines"
        assert all(c.startswith("progress: round ") for c in progress)
        report = "".join(c for c in chunks if not c.startswith("progress: "))
        assert report == cli_output(
            ["analyze", "wide28", "--backend", "adaptive",
             "--target-halfwidth", "0.5", "--initial-samples", "32",
             "--max-samples", "64"]
        )

    def test_warm_stream_skips_progress(self):
        service = AnalysisService()
        payload = {
            "circuit": "wide28",
            "backend": "adaptive",
            "target_halfwidth": 0.5,
            "initial_samples": 32,
            "max_samples": 64,
        }

        async def collect():
            return [c async for c in service.analyze_stream(payload)]

        cold = asyncio.run(collect())
        warm = asyncio.run(collect())
        assert any(c.startswith("progress: ") for c in cold)
        assert not any(c.startswith("progress: ") for c in warm)
        # Identical final report either way.
        assert cold[-1] == warm[-1]
        assert len(warm) == 1

    def test_stream_with_non_adaptive_backend_is_just_the_report(self):
        service = AnalysisService()
        payload = {"circuit": "c17"}

        async def collect():
            return [c async for c in service.analyze_stream(payload)]

        chunks = asyncio.run(collect())
        assert len(chunks) == 1
        assert chunks[0] == cli_output(["analyze", "c17"])

    def test_streamed_and_plain_requests_share_cache_keys(self):
        # on_round must not leak into cache identity: a streamed run
        # warms the cache for a later plain request of the same config.
        service = AnalysisService()
        payload = {
            "circuit": "wide28",
            "backend": "adaptive",
            "target_halfwidth": 0.5,
            "initial_samples": 32,
            "max_samples": 64,
        }

        async def main():
            async for _chunk in service.analyze_stream(payload):
                pass
            before = service.flights.started
            await service.analyze(payload)
            return before

        started_after_stream = asyncio.run(main())
        assert service.flights.started == started_after_stream


class TestHotTier:
    def test_every_endpoint_shares_one_hot_tier_path(self):
        """Partition and table requests probe, count, single-flight and
        store alike; the counter's help text does not depend on which
        endpoint registers it first."""
        from repro import obs

        registry = obs.metrics()
        registry.reset()
        try:
            service = AnalysisService()
            partition = {"circuit": "paper_example", "max_inputs": 3}
            first = asyncio.run(service.partition(partition))
            assert asyncio.run(service.partition(partition)) == first
            asyncio.run(service.analyze({"circuit": "c17"}))
            asyncio.run(service.escape({"circuit": "c17"}))
            lookups = registry.snapshot()["repro_hot_tier_lookups_total"]
            assert lookups == {'{outcome="hit"}': 2, '{outcome="miss"}': 2}
            assert service.flights.started == 2
            assert service.cache.hits == 2
            assert (
                "# HELP repro_hot_tier_lookups_total Hot-tier probes on "
                "the request path"
            ) in registry.render()
        finally:
            registry.reset()


class TestCacheKeys:
    def test_execution_label_default_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        service = AnalysisService()
        request = service._resolve("analyze", {"circuit": "c17"})
        assert not hasattr(request.backend, "executor")
        assert cli.execution_label(None) == ""
        assert request.cache_key[-1] == ""

    def test_partition_key_separates_max_inputs(self):
        service = AnalysisService()
        a = service._resolve(
            "partition", {"circuit": "mc", "max_inputs": 4}
        )
        b = service._resolve(
            "partition", {"circuit": "mc", "max_inputs": 5}
        )
        assert a.cache_key != b.cache_key

    def test_stats_snapshot_shape(self):
        service = AnalysisService()
        snapshot = service.stats_snapshot()
        assert set(snapshot) == {
            "requests", "endpoints", "hot_tier", "flights"
        }
        assert snapshot["flights"] == {
            "started": 0, "joined": 0, "in_flight": 0
        }
