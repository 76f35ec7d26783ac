"""The benchmark's entry point: one run of one workload.

Usage (from the root of a repository checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads and metrics are declared in ``BENCHMARK.json``; pools, op
lists and output checks in ``plan.py``; the timed loops in
``worker.py``.  With ``--trace 0`` the run reports the end-to-end
metrics.  ``setup_s`` is the median of :data:`SETUP_SAMPLES` worker
launches, each timed from interpreter launch to the first timed op and
taken to the reference speed of ``speed.py`` by a speed reading just
before the launch; the set-up-only launches are split before and after
the measured one.  All timings are at that reference speed.
With ``--trace 1`` it reports the per-layer metrics from spans recorded
around the program's public functions (``layers.py``), plus the tracing
overhead.

The last stdout line is the JSON result; the line before it names every
metric with its unit and the error rate.  A full record of the run with
its provenance (git sha, CPU count, Python and numpy versions, seed,
per-op input sizes) is written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Any

import plan
import speed

SETUP_SAMPLES = 5
#: Wall budget for all workers of one run (the run must end in 180 s).
RUN_BUDGET_S = 170.0
OUT_ROOT = plan.ROOT / ".perfbench"


def _kill_group(proc: subprocess.Popen[str]) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(
    args: argparse.Namespace, out_dir: Path, setup_only: bool, deadline: float
) -> tuple[float | None, list[str], int]:
    """Launch one worker; return its set-up time, stdout lines and code.

    The set-up time is measured and taken to the reference speed by a
    speed reading just before the launch.  The worker leads its own
    process group, which is killed once the worker exits (or the
    deadline passes), so no server or op process it started outlives
    the run.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(plan.HERE / "worker.py"), args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = plan.clean_env(REPRO_CACHE_DIR=str(out_dir / "cache"))
    scale = speed.scale(speed.machine_ms())
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=plan.ROOT,
        start_new_session=True,
    )
    timer = threading.Timer(
        max(1.0, deadline - time.monotonic()), _kill_group, [proc]
    )
    timer.start()
    setup_s = None
    lines = []
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line == "READY\n" and setup_s is None:
                setup_s = (time.perf_counter() - start) * scale
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        _kill_group(proc)
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    return setup_s, lines, code


def cpu_jiffies() -> tuple[int, int]:
    """``(stolen, total)`` CPU jiffies of the machine so far.

    On a virtual machine another guest's load shows up as steal; a run's
    stolen share explains a slow run without touching its metrics.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def provenance(
    args: argparse.Namespace, bench: dict[str, Any]
) -> dict[str, Any]:
    sha = None
    if (plan.ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=plan.ROOT,
        )
        sha = probe.stdout.strip() or None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload,
        "why": next(
            w["why"] for w in bench["workloads"] if w["name"] == args.workload
        ),
        "layers": plan.LAYER_MAP[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (plan.ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail("no src/repro next to perfbench/: run from a checkout")
    with open(plan.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = OUT_ROOT / f"run-{os.getpid()}"
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setups = []

    def probe(i: int) -> bool:
        setup_s, _, code = run_worker(
            args, run_dir / f"setup{i}", True, deadline
        )
        if code != 0 or setup_s is None:
            return False
        setups.append(setup_s)
        return True

    try:
        if not all(probe(i) for i in range(probes // 2)):
            return fail("set-up probe failed")
        stolen0, total0 = cpu_jiffies()
        setup_s, lines, code = run_worker(
            args, run_dir / "main", False, deadline
        )
        stolen1, total1 = cpu_jiffies()
        if code != 0 or setup_s is None or not lines:
            return fail(f"worker failed (exit {code})")
        setups.append(setup_s)
        if not all(probe(i) for i in range(probes // 2, probes)):
            return fail("set-up probe failed")
        report = json.loads(lines[-1])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = report["metrics"]
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    result = {
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec
        },
    }
    error_rate = report["failed"] / max(1, report["attempted"])
    record = {
        **provenance(args, bench),
        "setup_samples_s": setups,
        "error_rate": error_rate,
        "steal_share": (stolen1 - stolen0) / max(1, total1 - total0),
        "result": result,
        "phases": report["phases"],
        "hot_tier": report["hot_tier"],
    }
    OUT_ROOT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_ROOT / name, "w") as fh:
        json.dump(record, fh, indent=1)
    shown = [f"{k}={v['value']:.6g} {v['unit']}"
             for k, v in result["metrics"].items()]
    shown.append(f"error_rate={error_rate:.6g} ratio")
    print(f"perfbench {args.workload} seed={args.seed}: " + ", ".join(shown))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
