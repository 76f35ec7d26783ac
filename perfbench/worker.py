"""One workload run: set up, print ``READY``, run the timed ops, report.

Started by ``run.py`` (which times set-up from this process's launch to
the ``READY`` line) as::

    python perfbench/worker.py WORKLOAD --seed N --seconds T --trace 0|1
        --out DIR [--setup-only]

The last stdout line is one JSON object: end-to-end metrics (untraced)
or per-layer metrics (traced), the op counts, and the run's bases.

Closed loops only: in-process workloads run one op at a time;
``serve_mix`` drives the server from :data:`SERVE_CLIENTS` connections.
Untraced and traced phases run the same op list; a traced run first
measures an untraced half, then a traced half, and reports the
difference of their median ops as the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import http.client
import io
import json
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

import plan
import speed
import stats
from layers import Recorder, install, window

SERVE_CLIENTS = 2
OP_TIMEOUT_S = 120.0
TRACED_MAIN = str(plan.HERE / "traced_main.py")
IMPORT_SAMPLES = 3


class Phase:
    """Latencies and outcomes of one timed phase.

    ``ms`` and ``busy_s`` are at the reference speed of :mod:`speed`:
    each op's measured time (``raw_ms``) times the scale of the speed
    readings around it.
    """

    def __init__(self) -> None:
        self.ops: list[plan.Op] = []
        self.ms: list[float] = []
        self.raw_ms: list[float] = []
        self.scales: list[float] = []
        self.ok: list[bool] = []
        self.busy_s = 0.0

    def add(self, op: plan.Op, ms: float, ok: bool, scale: float) -> None:
        self.ops.append(op)
        self.ms.append(ms * scale)
        self.raw_ms.append(ms)
        self.scales.append(scale)
        self.ok.append(ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def p50(self, path: str | None = None) -> float:
        return stats.median_or_zero([
            ms for op, ms in zip(self.ops, self.ms, strict=True)
            if path is None or op.path == path
        ])

    def end_to_end(self) -> dict[str, float]:
        _, _, tail_ms = stats.tail(self.ms)
        return {
            "ops_per_s": len(self.ms) / self.busy_s,
            "op_p50_ms": statistics.median(self.ms),
            "op_tail_ms": tail_ms,
        }

    def bases(self, expected: dict[str, dict[str, Any]]) -> dict[str, Any]:
        """Input sizes behind the rates: per-op circuit, |F|, |G|, K."""
        sizes = {
            op.key: {
                k: expected.get(op.key, {}).get(k)
                for k in ("circuit", "F", "G_raw", "G", "K")
            }
            for op in self.ops
        }
        by_key: dict[str, list[tuple[float, float]]] = {}
        for op, ms, raw in zip(self.ops, self.ms, self.raw_ms, strict=True):
            by_key.setdefault(op.key, []).append((ms, raw))
        for key, entry in sizes.items():
            entry["median_ms"] = statistics.median(m for m, _ in by_key[key])
            entry["median_raw_ms"] = statistics.median(
                raw for _, raw in by_key[key]
            )
        totals = {
            k: sum(int(expected.get(op.key, {}).get(k) or 0)
                   for op in self.ops)
            for k in ("F", "G_raw", "G", "K")
        }
        pct, rank, _ = stats.tail(self.ms)
        return {
            "ops": len(self.ops),
            "failed": self.failed,
            "busy_s": self.busy_s,
            "scale": {
                "median": statistics.median(self.scales),
                "min": min(self.scales),
                "max": max(self.scales),
            },
            "tail": {"percentile": pct, "rank": rank},
            "totals": totals,
            "sizes": sizes,
        }


def ready() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()


def run_rounds(
    ops: list[plan.Op],
    seconds: float,
    run_op: Callable[[plan.Op], tuple[float, bool, float]],
) -> Phase:
    """Whole rounds of ``ops`` for about ``seconds``.

    At least one round runs; the next is skipped when, as long as the
    last, it would end more than half a round past ``seconds``.  So a
    run overshoots its length by at most about half a round.
    """
    phase = Phase()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for op in ops:
            phase.add(op, *run_op(op))
        now = time.perf_counter()
        if (now - start) + (now - round_start) / 2 > seconds:
            break
    phase.busy_s = sum(phase.ms) / 1000.0
    return phase


# ----------------------------------------------------------------------
# Layer metrics from a recorder dump
# ----------------------------------------------------------------------
LAYER_COUNTS = ("faults.count", "adaptive.rounds", "adaptive.final_samples")
SERVE_LAYERS = (
    "serve.hit_ratio", "serve.builds", "serve.analyze_p50_ms",
    "serve.escape_p50_ms", "serve.build_s", "parallel.shard_hit_ratio",
)


def layer_metrics(
    dump: dict[str, Any], round_len: int | None
) -> dict[str, float]:
    """Per-layer medians per op, rates and first-round counts.

    A layer's time is the median over ops that ran it (else over its
    calls: service builds and lookups happen outside any render op);
    a layer that never ran reads 0.  Counts cover the first round of
    ops only, so they repeat exactly for a seed; workloads without
    in-process rounds (``round_len`` None) report them as 0.
    """
    ops, calls, counts = dump["ops"], dump["calls"], dump["counts"]

    def per_op(layer: str) -> float:
        values = [op[layer] for op in ops if layer in op]
        return stats.median_or_zero(
            values or [ms for _, ms in calls.get(layer, [])]
        )

    def rate(count_key: str, layer: str) -> float:
        seconds = sum(ms for _, ms in calls.get(layer, [])) / 1000.0
        return counts.get(count_key, 0.0) / seconds if seconds else 0.0

    first = ops[:round_len] if round_len else []
    metrics = {
        "bench_suite.load_ms": per_op("bench_suite.load"),
        "faults.enum_ms": per_op("faults.enum"),
        "faultsim.build_ms": per_op("faultsim.build"),
        "faultsim.faults_per_s": rate("faultsim.faults", "faultsim.build"),
        "worst_case.scan_ms": per_op("worst_case.scan"),
        "worst_case.records_per_s": rate(
            "worst_case.records", "worst_case.scan"
        ),
        "worst_case.estimate_ms": per_op("worst_case.estimate"),
        "adaptive.run_ms": per_op("adaptive.run"),
        "procedure1.ms": per_op("procedure1"),
        "escape.ms": per_op("escape"),
        "cli.render_ms": per_op("cli.render"),
    }
    for key in LAYER_COUNTS:
        metrics[key] = float(sum(op.get(key, 0.0) for op in first))
    # Service-side layers: ServeMix fills them in; elsewhere never run.
    for key in SERVE_LAYERS:
        metrics[key] = 0.0
    return metrics


def import_ms(modules: str) -> float:
    """Median ``python -X importtime`` cost of importing ``modules``.

    The sum of the cumulative times of the top-level ``repro`` imports,
    so it covers everything ``repro`` pulls in (numpy included) that the
    interpreter had not loaded at start.
    """
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {modules}"],
            capture_output=True, text=True, env=plan.clean_env(),
            cwd=plan.ROOT, check=True,
        )
        found = re.findall(
            r"^import time:\s+\d+ \|\s+(\d+) \| (repro(?:\.\S+)?)$",
            proc.stderr, re.M,
        )
        if not found:
            raise RuntimeError(f"no repro import in -X importtime of {modules}")
        samples.append(sum(int(us) for us, _ in found) / 1000.0)
    return statistics.median(samples)


def overhead(untraced: Phase, traced: Phase) -> dict[str, float]:
    return {
        "trace.op_p50_ms": traced.p50(),
        "trace.overhead_ms": traced.p50() - untraced.p50(),
    }


# ----------------------------------------------------------------------
# In-process workloads: repro.cli.main in this interpreter
# ----------------------------------------------------------------------
#: glibc ``mallopt`` parameter: the size from which blocks are mmapped.
M_MMAP_THRESHOLD = -3


def _fix_malloc() -> Callable[[], None]:
    """Pin glibc's mmap threshold; return its ``malloc_trim(0)``.

    glibc raises the threshold each time a large mmapped block is freed,
    after which blocks of that size come from the heap instead, so the
    peak RSS depended on the op order (86 or 96 MB on ``adaptive_wide``
    by seed).  Pinned at its 128 KiB default it read 84.5-84.6 MB.
    Where libc lacks either call, that call is skipped.
    """
    name = ctypes.util.find_library("c")
    libc = ctypes.CDLL(name) if name else None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, 128 * 1024)
    trim = getattr(libc, "malloc_trim", None)
    if trim is None:
        return lambda: None
    return lambda: trim(0) and None


class InProcess:
    """``repro.cli.main`` ops, each from a collected heap and cold caches.

    Before each op the heap is collected and its free pages handed back
    to the OS, as a fresh CLI process would start: otherwise the free
    memory an op leaves behind depends on the op order, and so does the
    peak RSS of the next.
    """

    def __init__(self, workload: str, seed: int) -> None:
        import repro.cli
        from repro.bench_suite import registry

        self.main = repro.cli.main
        # A CLI run synthesizes its circuit afresh; so does every op.
        self.caches = (registry.get_circuit, registry.get_fsm)
        self.trim = _fix_malloc()
        self.expected = plan.load_expected()
        self.ops = plan.round_ops(workload, seed)
        self.recorder: Recorder | None = None
        _, ok, _ = self.run_op(plan.warmup_op(workload), check=False)
        if not ok:
            raise RuntimeError("warm-up op failed")

    def run_op(
        self, op: plan.Op, check: bool = True
    ) -> tuple[float, bool, float]:
        """``(ms, ok, scale)``: the op's time, its check, and the speed
        scale read around it."""
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        self.trim()
        # Single-threaded: the op runs where the readings run.
        before = speed.loop_ms()
        out, err = io.StringIO(), io.StringIO()
        span = self.recorder.op() if self.recorder else contextlib.nullcontext()
        rc = -1
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.main(list(op.argv))
        except (Exception, SystemExit):  # noqa: BLE001 - a crashed op is a failed op
            pass
        ms = (time.perf_counter() - start) * 1000.0
        scale = speed.scale(before, speed.loop_ms())
        data = out.getvalue().encode("utf-8")
        ok = rc == 0 and (
            not check or plan.output_ok(self.expected, op, data)
        )
        return ms, ok, scale

    def run(self, args: argparse.Namespace) -> dict[str, Any]:
        ready()
        if args.setup_only:
            return {}
        if not args.trace:
            phase = run_rounds(self.ops, args.seconds, self.run_op)
            return {
                "phases": [phase],
                "metrics": {
                    **phase.end_to_end(),
                    "peak_rss_mb": resource.getrusage(
                        resource.RUSAGE_SELF
                    ).ru_maxrss / 1024.0,
                },
            }
        untraced = run_rounds(self.ops, args.seconds / 2, self.run_op)
        self.recorder = Recorder()
        install(self.recorder)
        traced = run_rounds(self.ops, args.seconds / 2, self.run_op)
        metrics = layer_metrics(self.recorder.dump(), len(self.ops))
        metrics["cli.import_ms"] = import_ms("repro.cli")
        metrics.update(overhead(untraced, traced))
        return {"phases": [untraced, traced], "metrics": metrics}


# ----------------------------------------------------------------------
# serve_mix: a `repro serve` process and SERVE_CLIENTS connections
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` child process on an OS-assigned port."""

    def __init__(self, out_dir: Path, tag: str, spans: Path | None) -> None:
        env = plan.clean_env(REPRO_CACHE_DIR=str(out_dir / f"cache-{tag}"))
        argv = [
            "serve", "--port", "0",
            "--jobs", str(plan.SERVE_JOBS),
            "--table-lru", str(plan.SERVE_TABLE_LRU),
        ]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, TRACED_MAIN, "--out", str(spans), "--",
                   *argv]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=plan.ROOT
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        match = re.search(r"http://([0-9.]+):([0-9]+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def request(
        self, method: str, path: str, payload: object = None
    ) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=OP_TIMEOUT_S
        )
        try:
            body = None if payload is None else json.dumps(payload).encode()
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> Any:
        return json.loads(self.request("GET", path)[1])

    def shard_lookups(self) -> dict[str, float]:
        text = self.request("GET", "/metrics")[1].decode()
        found = re.findall(
            r'^repro_shard_cache_lookups_total\{outcome="(\w+)"\} (\S+)$',
            text, re.M,
        )
        return {outcome: float(value) for outcome, value in found}

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+([0-9]+) kB", status, re.M)
        if match is None:
            raise RuntimeError("no VmHWM in the server's /proc status")
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class ServeMix:
    """Zipf ``/analyze`` + ``/escape`` traffic against ``repro serve``."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.out = Path(args.out)
        self.expected = plan.load_expected()
        self.ops = plan.round_ops("serve_mix", args.seed)

    def post(self, server: Server, op: plan.Op) -> tuple[float, bool]:
        assert op.path is not None
        start = time.perf_counter()
        try:
            status, body = server.request("POST", op.path, op.payload)
        except (OSError, http.client.HTTPException):
            status, body = 0, b""
        ms = (time.perf_counter() - start) * 1000.0
        return ms, status == 200 and plan.output_ok(self.expected, op, body)

    def start(
        self, tag: str, spans: Path | None, count_pass: bool
    ) -> tuple[Server, int]:
        """A server past its set-up: started, then warmed by the seed-free
        warm-up requests.  With ``count_pass``, one single-client pass over
        the first :data:`plan.SERVE_COUNT_PASS` requests follows; its table
        builds are returned (sequential, so the count repeats exactly)."""
        server = Server(self.out, tag, spans)
        try:
            warm = [self.post(server, op)[1] for op in plan.serve_warmup_ops()]
            builds = 0
            if count_pass:
                before = server.get_json("/stats")["flights"]["started"]
                warm += [
                    self.post(server, op)[1]
                    for op in self.ops[:plan.SERVE_COUNT_PASS]
                ]
                after = server.get_json("/stats")["flights"]["started"]
                builds = after - before
            if not all(warm):
                raise RuntimeError("serve warm-up returned a bad output")
        except BaseException:
            server.stop()
            raise
        return server, builds

    def timed(self, server: Server, seconds: float) -> Phase:
        """Blocks of the request stream until ``seconds`` have passed.

        The clients share each block of :data:`plan.SERVE_BLOCK_OPS`
        requests and drain it; speed readings on every CPU, taken while
        the server is idle, come before and after it.
        """
        phase = Phase()
        lock = threading.Lock()
        cursor = plan.SERVE_COUNT_PASS
        start = time.perf_counter()

        def client(block: Iterator[plan.Op], done: list[Any]) -> None:
            while True:
                with lock:
                    op = next(block, None)
                if op is None:
                    return
                ms, ok = self.post(server, op)
                with lock:
                    done.append((op, ms, ok))

        while time.perf_counter() - start < seconds:
            done: list[tuple[plan.Op, float, bool]] = []
            before = speed.machine_ms()
            block = iter([
                self.ops[i % len(self.ops)]
                for i in range(cursor, cursor + plan.SERVE_BLOCK_OPS)
            ])
            cursor += plan.SERVE_BLOCK_OPS
            threads = [
                threading.Thread(target=client, args=(block, done))
                for _ in range(SERVE_CLIENTS)
            ]
            block_start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            block_s = time.perf_counter() - block_start
            scale = speed.scale(before, speed.machine_ms())
            for op, ms, ok in done:
                phase.add(op, ms, ok, scale)
            phase.busy_s += block_s * scale
        return phase

    def run(self, args: argparse.Namespace) -> dict[str, Any]:
        server, _ = self.start("a", None, bool(args.trace))
        try:
            ready()
            if args.setup_only:
                return {}
            seconds = args.seconds / 2 if args.trace else args.seconds
            untraced = self.timed(server, seconds)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        if not args.trace:
            return {
                "phases": [untraced],
                "metrics": {**untraced.end_to_end(), "peak_rss_mb": rss},
            }
        spans = self.out / "serve-spans.json"
        server, builds = self.start("b", spans, True)
        # Hot-tier, shard-cache and build figures are deltas over the
        # timed phase: the warm-up and count pass before it are set-up.
        try:
            tier0 = server.get_json("/stats")["hot_tier"]
            shards0 = server.shard_lookups()
            start = time.monotonic()
            traced = self.timed(server, seconds)
            end = time.monotonic()
            tier1 = server.get_json("/stats")["hot_tier"]
            shards1 = server.shard_lookups()
        finally:
            server.stop()
        with open(spans) as fh:
            dump = window(json.load(fh), start, end)
        tier = {k: tier1[k] - tier0[k] for k in ("hits", "misses", "evictions")}
        hits = tier["hits"]
        lookups = hits + tier["misses"]
        shard_hits, shard_misses = (
            shards1.get(k, 0.0) - shards0.get(k, 0.0) for k in ("hit", "miss")
        )
        shard_total = shard_hits + shard_misses
        metrics = layer_metrics(dump, None)
        metrics.update({
            "cli.import_ms": import_ms("repro.cli, repro.serve"),
            "serve.hit_ratio": hits / lookups if lookups else 0.0,
            "serve.builds": float(builds),
            "serve.analyze_p50_ms": traced.p50("/analyze"),
            "serve.escape_p50_ms": traced.p50("/escape"),
            "serve.build_s": sum(
                ms for _, ms in dump["calls"].get("faultsim.build", [])
            ) / 1000.0,
            "parallel.shard_hit_ratio": (
                shard_hits / shard_total if shard_total else 0.0
            ),
            **overhead(untraced, traced),
        })
        return {
            "phases": [untraced, traced], "metrics": metrics, "hot_tier": tier,
        }


RUNNERS: dict[str, Callable[[argparse.Namespace], Any]] = {
    "worst_suite": lambda a: InProcess("worst_suite", a.seed),
    "adaptive_wide": lambda a: InProcess("adaptive_wide", a.seed),
    "serve_mix": ServeMix,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = RUNNERS[args.workload](args).run(args)
    if args.setup_only:
        return 0
    expected = plan.load_expected()
    phases: list[Phase] = result["phases"]
    report = {
        "attempted": sum(len(p.ms) for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": result["metrics"],
        "phases": [p.bases(expected) for p in phases],
        "hot_tier": result.get("hot_tier"),
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
