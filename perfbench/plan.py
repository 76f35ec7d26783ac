"""Workload definitions: input pools, seeded op lists, and output checks.

Every workload draws its ops from a finite pool with a seeded
``random.Random`` (the stable, sorted sample of SNIPPETS snippet 1), so
one ``--seed`` always yields the same op list.  Every seed yields the
same multiset of ops (per round, or per block of requests): the seed
changes their order, not how much work a run holds.  The program only ever
sees the generated argv or request payloads.

Each op's output bytes are compared against the SHA-256 digest stored
for its key in ``expected.json`` (regenerate with ``make_expected.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"

#: Mid-size MCNC circuits, ~20k-120k raw bridging faults each.  s1a and
#: dvram stay out: one ~10 s op of theirs swings by seconds in a process.
#: log, mark1 and rie (1.2-2.3 s an op) stay out too: without them a round
#: takes about four seconds, so every input repeats five to seven times
#: in a run.
WORST_POOL = ("bbsse", "cse", "dk16", "donfile", "ex2", "ex4", "keyb")

#: Beyond the exhaustive cap; analyzed by the adaptive controller only.
ADAPTIVE_CIRCUITS = ("wide28", "wide32", "wide40")
#: ``--seed`` values of the adaptive ops.  Each round runs every circuit
#: with every one of them (the workload seed orders them): one
#: ``--seed`` can cost 40% more than another on the same circuit, so
#: drawing a few per round made the work depend on the workload seed.
#: Two keep a round near five seconds, so every input repeats four to
#: six times in a run.
ADAPTIVE_SEEDS = (1, 2)
#: ``--max-samples`` budget: keeps each op within about two seconds.
ADAPTIVE_BUDGET = 512

#: The small end of the suite: the twelve MCNC circuits with the fewest
#: raw bridging faults (264-4,128; the five hand-made toy circuits stay
#: out).  Popularity follows size: rank 1, the most requested, is the
#: smallest circuit.
SERVE_CIRCUITS = (
    "lion", "train4", "mc", "tav", "dk27", "modulo12",
    "dk15", "s8", "firstex", "lion9", "bbtas", "beecount",
)
#: Zipf's law in its plain form: rank r is requested in proportion to 1/r.
SERVE_ZIPF_S = 1.0
#: Hot-tier capacity: half the distinct circuits, so it holds the most
#: popular tables while the LRU still evicts and the shard cache serves
#: rebuilds.
SERVE_TABLE_LRU = len(SERVE_CIRCUITS) // 2
SERVE_JOBS = 2
#: ``/escape`` options: the paper's Table 4 experiment, K=10 random
#: n-detection sets for n up to nmax=2 (``repro table4``).
SERVE_ESCAPE_K, SERVE_ESCAPE_NMAX = 10, 2
#: Circuit visits per block.  A visit is the paper's two analyses of one
#: circuit: ``/analyze`` (worst case) and ``/escape`` (average case).
#: Every block holds the Zipf quotas exactly and the seed shuffles it,
#: so seeds differ in order, not in mix.  20 is the smallest round block
#: in which the least popular circuit still gets a visit.
SERVE_BLOCK_VISITS = 20
#: Blocks in one seeded request stream (cycled if a run outlasts it).
SERVE_BLOCKS = 40
#: Length of the single-client pass whose table builds a traced run
#: counts (sequential, so the count repeats exactly for a seed).
SERVE_COUNT_PASS = 24
#: Requests per timed block: two per visit of one block of visits.  A
#: block starts with a speed reading (``speed.py``) taken while the
#: server is idle.
SERVE_BLOCK_OPS = 42

#: Per workload, the end-to-end metrics each layer metric should move
#: (the one-line reason a workload exists is its ``why`` in
#: BENCHMARK.json).
LAYER_MAP: dict[str, dict[str, list[str]]] = {
    "worst_suite": {
        "bench_suite.load_ms": ["op_p50_ms", "setup_s"],
        "faults.enum_ms": ["op_p50_ms", "peak_rss_mb"],
        "faults.count": ["op_p50_ms", "peak_rss_mb"],
        "faultsim.build_ms": ["ops_per_s", "op_p50_ms"],
        "faultsim.faults_per_s": ["ops_per_s", "op_p50_ms"],
        "worst_case.scan_ms": ["ops_per_s"],
        "worst_case.records_per_s": ["ops_per_s"],
        "cli.import_ms": ["setup_s"],
    },
    "adaptive_wide": {
        "worst_case.estimate_ms": ["op_p50_ms"],
        "adaptive.run_ms": ["op_p50_ms"],
        "adaptive.rounds": ["op_p50_ms"],
        "adaptive.final_samples": ["op_p50_ms"],
        "cli.import_ms": ["setup_s"],
    },
    "serve_mix": {
        "procedure1.ms": ["op_p50_ms"],
        "escape.ms": ["op_p50_ms"],
        "cli.render_ms": ["op_p50_ms"],
        "serve.hit_ratio": ["ops_per_s", "op_tail_ms"],
        "serve.builds": ["ops_per_s", "op_tail_ms"],
        "serve.analyze_p50_ms": ["op_p50_ms"],
        "serve.escape_p50_ms": ["op_p50_ms"],
        "serve.build_s": ["op_tail_ms"],
        "parallel.shard_hit_ratio": ["op_tail_ms"],
        "cli.import_ms": ["setup_s"],
    },
}


@dataclass(frozen=True)
class Op:
    """One unit of work: a CLI argv, or a service request.

    ``key`` is the equivalent ``repro`` argv as one string; it names the
    expected output digest (service responses are byte-identical to the
    CLI run of that argv).
    """

    key: str
    argv: tuple[str, ...]
    path: str | None = None
    payload: dict[str, object] | None = field(default=None, hash=False)


def _cli_op(*argv: str) -> Op:
    return Op(key=" ".join(argv), argv=tuple(argv))


def _adaptive_argv(circuit: str, seed: int) -> tuple[str, ...]:
    return (
        "analyze", circuit, "--backend", "adaptive",
        "--stratify", "bridging", "--seed", str(seed),
        "--max-samples", str(ADAPTIVE_BUDGET),
    )


def _serve_op(circuit: str, command: str) -> Op:
    argv: tuple[str, ...] = (command, circuit)
    payload: dict[str, object] = {"circuit": circuit}
    if command == "escape":
        argv += ("--k", str(SERVE_ESCAPE_K), "--nmax", str(SERVE_ESCAPE_NMAX))
        payload.update(k=SERVE_ESCAPE_K, nmax=SERVE_ESCAPE_NMAX)
    # The server's --jobs default reaches every request's argv.
    argv += ("--jobs", str(SERVE_JOBS))
    return Op(
        key=" ".join(argv), argv=argv, path=f"/{command}", payload=payload
    )


def _serve_block() -> list[Op]:
    """:data:`SERVE_BLOCK_VISITS` visits in Zipf quotas over the circuits."""
    weights = [
        1.0 / rank**SERVE_ZIPF_S
        for rank in range(1, len(SERVE_CIRCUITS) + 1)
    ]
    ops = []
    for circuit, weight in zip(SERVE_CIRCUITS, weights, strict=True):
        visits = max(1, round(SERVE_BLOCK_VISITS * weight / sum(weights)))
        ops += [
            _serve_op(circuit, command)
            for command in ("analyze", "escape")
        ] * visits
    return ops


def serve_warmup_ops() -> list[Op]:
    """Seed-free server warm-up: every circuit once, least popular first,
    so the hot tier ends holding the most popular tables."""
    return [_serve_op(c, "analyze") for c in reversed(SERVE_CIRCUITS)]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def round_ops(workload: str, seed: int) -> list[Op]:
    """The op list of one round of ``workload`` under ``seed``.

    In-process workloads repeat this list round after round, so
    every run holds the same multiset of ops whatever its round count.
    ``serve_mix`` instead draws a long request stream (one "round").
    """
    rng = _rng(workload, seed)
    if workload == "worst_suite":
        return [
            _cli_op("analyze", c)
            for c in rng.sample(WORST_POOL, len(WORST_POOL))
        ]
    if workload == "adaptive_wide":
        ops = [
            _cli_op(*_adaptive_argv(c, s))
            for c in ADAPTIVE_CIRCUITS
            for s in ADAPTIVE_SEEDS
        ]
        return rng.sample(ops, len(ops))
    if workload == "serve_mix":
        ops = []
        for _ in range(SERVE_BLOCKS):
            block = _serve_block()
            rng.shuffle(block)
            ops += block
        return ops
    raise KeyError(f"unknown workload {workload!r}")


def pool_ops() -> list[Op]:
    """Every op any seed of any workload can produce (digest coverage)."""
    ops = [_cli_op("analyze", c) for c in WORST_POOL]
    ops += [
        _cli_op(*_adaptive_argv(c, s))
        for c in ADAPTIVE_CIRCUITS
        for s in ADAPTIVE_SEEDS
    ]
    ops += [
        _serve_op(c, command)
        for c in SERVE_CIRCUITS
        for command in ("analyze", "escape")
    ]
    return ops


def warmup_op(workload: str) -> Op:
    """An op outside the pool that loads each workload's code paths."""
    if workload == "adaptive_wide":
        return _cli_op(
            "analyze", "wide28", "--backend", "adaptive", "--stratify",
            "bridging", "--seed", "0", "--max-samples", "128",
        )
    return _cli_op("analyze", "paper_example")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, dict[str, object]]:
    """``{op key: {"sha256", "circuit", "F", "G_raw", "G", "K"}}``."""
    with open(path) as fh:
        data: dict[str, dict[str, object]] = json.load(fh)
    return data


def output_ok(
    expected: dict[str, dict[str, object]], op: Op, output: bytes
) -> bool:
    """Whether ``output`` is the stored correct output of ``op``."""
    entry = expected.get(op.key)
    return entry is not None and entry["sha256"] == digest(output)


def clean_env(**extra: str) -> dict[str, str]:
    """The inherited environment minus every ``REPRO_*`` variable.

    A stray ``REPRO_TRACE_FILE``, ``REPRO_PPSFP=0`` or ``REPRO_JOBS``
    from the caller's shell would silently change the program under
    measurement; workloads add back only what they set themselves.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed str hashing: set/dict orders, and so timings, repeat.
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: on a 2-vCPU host a second thread bought no speed
    # on the adaptive ops (3.16 s vs 3.17 s on wide40), only exposure to
    # whatever else runs on the other CPU.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.update(extra)
    return env
