"""Socket-level tests of the HTTP transport (`repro serve`)."""

from __future__ import annotations

import io
import json
import re
import socket
import threading
import urllib.error
import urllib.request
from contextlib import redirect_stdout

import pytest

from repro import cli
from repro.serve import AnalysisService, BackgroundServer


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(AnalysisService()) as running:
        yield running


def get(server, path):
    with urllib.request.urlopen(server.address + path, timeout=60) as resp:
        return resp.status, resp.read()


def post(server, path, payload):
    request = urllib.request.Request(
        server.address + path, data=json.dumps(payload).encode()
    )
    with urllib.request.urlopen(request, timeout=120) as resp:
        return resp.status, resp.read()


def cli_output(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    assert code == 0
    return buffer.getvalue()


class TestPlumbing:
    def test_healthz(self, server):
        status, body = get(server, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/nope")
        assert err.value.code == 404

    def test_invalid_json_400(self, server):
        request = urllib.request.Request(
            server.address + "/analyze", data=b"{not json"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=60)
        assert err.value.code == 400
        assert "JSON" in json.loads(err.value.read())["error"]

    def test_bad_request_400_with_cli_error_text(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/analyze", {"circuit": "no_such_circuit"})
        assert err.value.code == 400
        assert "unknown circuit" in json.loads(err.value.read())["error"]

    def test_retired_packed_backend_is_a_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/analyze", {
                "circuit": "c17", "backend": "packed", "samples": 16,
            })
        assert err.value.code == 400
        assert "invalid choice: 'packed'" in (
            json.loads(err.value.read())["error"]
        )

    def test_garbage_request_line_just_closes(self, server):
        host, port = server.host, server.port
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            assert sock.recv(1024) == b""  # closed without a response


class TestEndpoints:
    def test_analyze_byte_identical_to_cli(self, server):
        payload = {
            "circuit": "c17",
            "backend": "sampled",
            "samples": 16,
            "seed": 7,
        }
        status, body = post(server, "/analyze", payload)
        assert status == 200
        assert body.decode() == cli_output(
            ["analyze", "c17", "--backend", "sampled", "--samples", "16",
             "--seed", "7"]
        )

    def test_escape_byte_identical_to_cli(self, server):
        status, body = post(
            server, "/escape", {"circuit": "c17", "k": 10, "nmax": 3}
        )
        assert status == 200
        assert body.decode() == cli_output(
            ["escape", "c17", "--k", "10", "--nmax", "3"]
        )

    def test_partition_byte_identical_to_cli(self, server):
        payload = {
            "circuit": "mc",
            "max_inputs": 4,
            "backend": "sampled",
            "samples": 8,
        }
        status, body = post(server, "/partition", payload)
        assert status == 200
        assert body.decode() == cli_output(
            ["partition", "mc", "--max-inputs", "4", "--backend",
             "sampled", "--samples", "8"]
        )

    def test_cli_analysis_error_is_a_400(self, server):
        # Exhaustive partitioning fails on a cone wider than the bound;
        # the service mirrors the CLI's error as a client error.
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/partition", {"circuit": "mc", "max_inputs": 4})
        assert err.value.code == 400
        assert "cannot partition" in json.loads(err.value.read())["error"]

    def test_stream_progress_then_identical_report(self, server):
        payload = {
            "circuit": "wide28",
            "backend": "adaptive",
            "target_halfwidth": 0.5,
            "initial_samples": 32,
            "max_samples": 64,
            "seed": 1,
        }
        status, body = post(server, "/analyze/stream", payload)
        assert status == 200
        lines = body.decode().splitlines(keepends=True)
        progress = [l for l in lines if l.startswith("progress: ")]
        assert progress
        report = "".join(l for l in lines if not l.startswith("progress: "))
        assert report == cli_output(
            ["analyze", "wide28", "--backend", "adaptive",
             "--target-halfwidth", "0.5", "--initial-samples", "32",
             "--max-samples", "64", "--seed", "1"]
        )

    def test_stream_validation_error_is_a_clean_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/analyze/stream", {"circuit": "nope"})
        assert err.value.code == 400


class TestStats:
    def test_stats_reflect_traffic_and_flights(self, server):
        payload = {"circuit": "c17", "seed": 11}
        K = 4
        results = []

        def client():
            results.append(post(server, "/analyze", payload))

        threads = [threading.Thread(target=client) for _ in range(K)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({body for _status, body in results}) == 1

        status, body = get(server, "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["requests"] >= K
        endpoint = stats["endpoints"]["POST /analyze"]
        assert endpoint["requests"] >= K
        latency = endpoint["latency"]
        assert latency["count"] >= K
        assert latency["p99_s"] >= latency["p50_s"] > 0
        assert "buckets" in latency
        flights = stats["flights"]
        # seed=11 is unique to this test: exactly one build happened,
        # however the K concurrent requests interleaved.
        assert flights["started"] >= 1
        assert flights["in_flight"] == 0
        hot = stats["hot_tier"]
        assert hot["capacity"] >= 1
        assert hot["hits"] + hot["misses"] >= K


class TestObservability:
    def test_metrics_is_parseable_prometheus_text(self, server):
        get(server, "/healthz")  # ensure at least one observed request
        with urllib.request.urlopen(
            server.address + "/metrics", timeout=60
        ) as resp:
            assert resp.status == 200
            content_type = resp.headers["Content-Type"]
            body = resp.read().decode()
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        series = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$"
        )
        for line in body.splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                assert series.match(line), line
                float(line.rsplit(" ", 1)[1])  # the sample value parses
        assert "repro_http_requests_total" in body
        assert "repro_http_request_seconds_bucket" in body
        assert 'le="+Inf"' in body
        assert "repro_hot_tier_" in body
        assert "repro_flights_" in body

    def test_untraced_responses_have_no_trace_headers(self, server):
        # Tracing off (the default): zero tracer overhead, no headers.
        with urllib.request.urlopen(
            server.address + "/healthz", timeout=60
        ) as resp:
            assert resp.headers["X-Repro-Trace-Id"] is None
            assert resp.headers["X-Repro-Span-Id"] is None

    def test_traced_responses_carry_trace_headers(self):
        from repro import obs
        from repro.obs.tracer import ListTraceWriter, Tracer

        previous = obs.activate(Tracer(ListTraceWriter(), trace_id="SRV"))
        try:
            with BackgroundServer(AnalysisService()) as fresh:
                with urllib.request.urlopen(
                    fresh.address + "/healthz", timeout=60
                ) as resp:
                    assert resp.headers["X-Repro-Trace-Id"] == "SRV"
                    first_span = resp.headers["X-Repro-Span-Id"]
                with urllib.request.urlopen(
                    fresh.address + "/healthz", timeout=60
                ) as resp:
                    # Same serving trace, a distinct span per request.
                    assert resp.headers["X-Repro-Trace-Id"] == "SRV"
                    assert resp.headers["X-Repro-Span-Id"] != first_span
        finally:
            obs.reset(previous)

    def test_idle_endpoint_stats_report_null_quantiles(self):
        # Regression: an endpoint with zero completed requests must
        # serve null p50/p99, not the lowest bucket bound.  The very
        # first GET /stats sees its own route registered but not yet
        # observed, so a fresh server exposes the empty histogram.
        with BackgroundServer(AnalysisService()) as fresh:
            status, body = get(fresh, "/stats")
        assert status == 200
        endpoint = json.loads(body)["endpoints"]["GET /stats"]
        assert endpoint["requests"] == 0
        latency = endpoint["latency"]
        assert latency["count"] == 0
        assert latency["p50_s"] is None
        assert latency["p99_s"] is None
