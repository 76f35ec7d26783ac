"""Load benchmark for the ``repro serve`` analysis service.

``test_serve_load`` is the acceptance benchmark of the service
subsystem: it starts the service in-process (``BackgroundServer`` — a
real socket listener on a daemon thread), then

1. fires ``REPRO_BENCH_SERVE_CLIENTS`` *simultaneous identical* cold
   requests and proves single-flight collapsed them into exactly one
   table build (the ``/stats`` flight counters are the witness);
2. proves the service response is byte-identical to the CLI's stdout
   for the same analysis;
3. drives a warm closed-loop load (``CLIENTS × REQUESTS`` requests over
   persistent-thread clients), measuring client-side latency and
   throughput;
4. scrapes ``/stats`` and asserts the hot-tier hit rate is positive —
   the warm phase must be served from the in-memory tier, not rebuilt.

The numbers land in ``benchmarks/out/BENCH_serve.json`` (requests/s,
p50/p99 latency, cache hit rate, flight counters) so CI accumulates a
service-performance trajectory alongside ``BENCH_faultsim.json``.

Environment knobs (CI smoke uses small values):
``REPRO_BENCH_SERVE_CLIENTS`` (default 4) concurrent clients,
``REPRO_BENCH_SERVE_REQUESTS`` (default 25) warm requests per client,
``REPRO_BENCH_SERVE_CIRCUIT`` (default ``wide28``) registry circuit,
``REPRO_BENCH_SERVE_SAMPLES`` (default 128) sampled-universe size.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import threading
import time
import urllib.request
from pathlib import Path

from conftest import env_int

OUT_PATH = Path(__file__).parent / "out" / "BENCH_serve.json"

CLIENTS = env_int("REPRO_BENCH_SERVE_CLIENTS", 4)
REQUESTS = env_int("REPRO_BENCH_SERVE_REQUESTS", 25)
CIRCUIT = os.environ.get("REPRO_BENCH_SERVE_CIRCUIT") or "wide28"
SAMPLES = env_int("REPRO_BENCH_SERVE_SAMPLES", 128)

PAYLOAD = {
    "circuit": CIRCUIT,
    "backend": "sampled",
    "samples": SAMPLES,
    "seed": 7,
}


def _post(base: str, route: str, payload: dict) -> bytes:
    req = urllib.request.Request(
        f"{base}{route}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=300) as resp:
        assert resp.status == 200, resp.status
        return resp.read()


def _get_json(base: str, route: str) -> dict:
    with urllib.request.urlopen(f"{base}{route}", timeout=60) as resp:
        assert resp.status == 200, resp.status
        return json.loads(resp.read())


def _cli_stdout(argv: list[str]) -> bytes:
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"CLI exited {code} for {argv}"
    return out.getvalue().encode()


def _quantile(sorted_values: list[float], q: float) -> float:
    return sorted_values[int(q * (len(sorted_values) - 1))]


def test_serve_load(record_speedup):
    from repro.serve import BackgroundServer

    with BackgroundServer() as server:
        base = server.address

        # -- phase 1: cold burst; single-flight must collapse it -------
        barrier = threading.Barrier(CLIENTS)
        cold_bodies: list[bytes] = []
        cold_lock = threading.Lock()

        def cold_client() -> None:
            barrier.wait()
            body = _post(base, "/analyze", PAYLOAD)
            with cold_lock:
                cold_bodies.append(body)

        cold_t0 = time.perf_counter()
        threads = [
            threading.Thread(target=cold_client) for _ in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cold_s = time.perf_counter() - cold_t0

        assert len(set(cold_bodies)) == 1, "cold responses diverged"
        flights = _get_json(base, "/stats")["flights"]
        assert flights["started"] == 1, (
            f"single-flight failed: {flights['started']} builds for "
            f"{CLIENTS} identical concurrent requests"
        )
        assert flights["in_flight"] == 0

        # -- phase 2: byte-identity against the CLI --------------------
        cli_bytes = _cli_stdout(
            [
                "analyze",
                CIRCUIT,
                "--backend",
                "sampled",
                "--samples",
                str(SAMPLES),
                "--seed",
                "7",
            ]
        )
        assert cold_bodies[0] == cli_bytes, (
            "service response is not byte-identical to the CLI"
        )

        # -- phase 3: warm closed-loop load ----------------------------
        latencies: list[float] = []
        lat_lock = threading.Lock()

        def warm_client() -> None:
            local: list[float] = []
            for _ in range(REQUESTS):
                t0 = time.perf_counter()
                body = _post(base, "/analyze", PAYLOAD)
                local.append(time.perf_counter() - t0)
                assert body == cli_bytes
            with lat_lock:
                latencies.extend(local)

        warm_t0 = time.perf_counter()
        threads = [
            threading.Thread(target=warm_client) for _ in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        warm_s = time.perf_counter() - warm_t0

        total = CLIENTS * REQUESTS
        assert len(latencies) == total
        latencies.sort()
        rps = total / warm_s
        p50 = _quantile(latencies, 0.50)
        p99 = _quantile(latencies, 0.99)

        # -- phase 4: the warm phase must have been cache-served -------
        stats = _get_json(base, "/stats")
        hot = stats["hot_tier"]
        hit_rate = hot["hit_rate"]
        assert hit_rate > 0, f"warm hot-tier hit rate is {hit_rate}"
        assert stats["flights"]["started"] == 1, (
            "warm requests triggered fresh builds"
        )

    entry = {
        "name": "serve_load",
        "circuit": CIRCUIT,
        "samples": SAMPLES,
        "clients": CLIENTS,
        "requests_per_client": REQUESTS,
        "cold_burst_s": cold_s,
        "cold_builds": flights["started"],
        "warm_total_requests": total,
        "warm_wall_s": warm_s,
        "rps": rps,
        "p50_s": p50,
        "p99_s": p99,
        "cache_hit_rate": hit_rate,
        "cache_hits": hot["hits"],
        "cache_misses": hot["misses"],
    }
    record_speedup(dict(entry, name="serve_load_summary"))

    payload = {
        "schema": 1,
        "created_unix": time.time(),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "load": entry,
        "stats": stats,
    }
    OUT_PATH.parent.mkdir(exist_ok=True)
    OUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(
        f"\n[artifact] {OUT_PATH}\n"
        f"serve load ({CIRCUIT}, {CLIENTS} clients x {REQUESTS} req): "
        f"{rps:.0f} req/s   p50 {p50 * 1e3:.1f} ms   "
        f"p99 {p99 * 1e3:.1f} ms   hit rate {hit_rate:.3f}\n"
    )
