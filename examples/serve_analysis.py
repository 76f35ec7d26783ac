"""The always-on analysis service: one build, many clients.

``repro serve`` keeps the expensive part of every analysis — the
detection tables — resident behind an HTTP/JSON API.  Three properties
make it more than a CLI wrapper:

* **Byte-identity** — a service response is byte-for-byte the output
  of the equivalent CLI invocation (same renderers, same parser, same
  defaults), so scripts can switch transports without re-validating.
* **Single-flight** — N concurrent identical requests cost exactly one
  table build; the other N-1 await the same in-flight future.
* **Tiered cache** — built tables land in a bounded in-memory hot tier
  (above the on-disk shard cache), so warm requests are served in
  milliseconds.

This example starts the service in-process (``BackgroundServer`` — the
same object ``repro serve`` runs in the foreground), then demonstrates
each property with real sockets: a cold burst of identical concurrent
requests, a warm re-request, a streamed adaptive analysis with
round-by-round progress, and the ``/stats`` document.

Equivalent CLI invocations:

    repro serve --port 8765 &
    curl -s -X POST localhost:8765/analyze \
        -d '{"circuit": "wide28", "backend": "sampled", "samples": 256, "seed": 7}'
    curl -sN -X POST localhost:8765/analyze/stream \
        -d '{"circuit": "wide28", "backend": "adaptive", "target_halfwidth": 0.5, "seed": 7}'
    curl -s localhost:8765/stats

Workers can build service shards too: start the service with
``repro serve --broker-port 8766`` (an embedded broker; requests
default to ``--executor tcp``) and attach ``repro worker --broker
HOST:8766`` processes on any host — see examples/fleet_analysis.py.

Run:  python examples/serve_analysis.py
"""

import json
import threading
import time
import urllib.request

from repro.serve import BackgroundServer

CIRCUIT = "wide28"
CLIENTS = 4


def get_stats(base: str) -> dict:
    with urllib.request.urlopen(f"{base}/stats", timeout=60) as resp:
        return json.loads(resp.read())


def post(base: str, route: str, payload: dict) -> bytes:
    req = urllib.request.Request(
        f"{base}{route}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=300) as resp:
        return resp.read()


def main() -> int:
    with BackgroundServer() as server:
        base = server.address
        print(f"service listening at {base}\n")

        # -- single-flight: a cold burst of identical requests --------
        payload = {
            "circuit": CIRCUIT,
            "backend": "sampled",
            "samples": 256,
            "seed": 7,
        }
        barrier = threading.Barrier(CLIENTS)
        bodies = []
        lock = threading.Lock()

        def client():
            barrier.wait()
            body = post(base, "/analyze", payload)
            with lock:
                bodies.append(body)

        start = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cold = time.perf_counter() - start

        flights = get_stats(base)["flights"]
        print(
            f"{CLIENTS} concurrent identical requests: "
            f"{flights['started']} build, {flights['joined']} joined "
            f"({cold:.2f}s total)"
        )
        assert len(set(bodies)) == 1

        # -- warm re-request: served from the hot tier ----------------
        start = time.perf_counter()
        warm_body = post(base, "/analyze", payload)
        warm = time.perf_counter() - start
        assert warm_body == bodies[0]
        print(f"warm re-request: {warm * 1e3:.1f} ms (byte-identical)\n")

        # -- streamed adaptive analysis: progress, then the report ----
        adaptive = {
            "circuit": CIRCUIT,
            "backend": "adaptive",
            "target_halfwidth": 0.5,
            "initial_samples": 32,
            "max_samples": 128,
            "seed": 7,
        }
        print("streamed adaptive analysis:")
        text = post(base, "/analyze/stream", adaptive).decode()
        progress = [
            line for line in text.splitlines() if line.startswith("progress: ")
        ]
        for line in progress:
            print(f"  {line}")
        report = "\n".join(
            line for line in text.splitlines()
            if not line.startswith("progress: ")
        )
        print(f"  ... {len(progress)} rounds, then the full report "
              f"({len(report)} bytes, byte-identical to the CLI)\n")

        # -- the /stats document --------------------------------------
        stats = get_stats(base)
        hot = stats["hot_tier"]
        print(
            f"/stats: {stats['requests']} requests, hot tier "
            f"{hot['hits']} hits / {hot['misses']} misses "
            f"(hit rate {hot['hit_rate']:.2f})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
