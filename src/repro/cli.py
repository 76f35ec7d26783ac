"""Command-line interface: ``repro <command>`` / ``python -m repro``.

Commands regenerate the paper's artifacts::

    repro table1                     # example-circuit overlap analysis
    repro table2 [--circuits a,b]    # worst-case coverage, small n
    repro table3                     # worst-case tails, large n
    repro table4 [--k 10]            # example random test sets
    repro table5 [--k 1000]          # average-case histograms (Def. 1)
    repro table6 [--k 200]           # Definition 1 vs Definition 2
    repro figure2 [--circuit dvram]  # nmin distribution
    repro suite                      # circuit inventory with fault counts
    repro show-example               # Figure 1 circuit
    repro partition CIRCUIT          # Section 4 cone-partitioned analysis
    repro analyze CIRCUIT            # one-circuit worst-case analysis
    repro cache info|clear           # inspect / empty the shard cache
    repro broker [--port P]          # run the TCP shard broker
    repro worker --broker HOST:PORT  # build shards pushed by a broker
    repro queue info|stats|clear     # inspect / empty a broker's queue
    repro serve [--port P]           # always-on HTTP analysis service
    repro trace summary|tree PATH    # profile a --trace JSONL capture

``analyze``, ``escape``, and ``partition`` share the backend and
execution flags declared once in :mod:`repro.options`, which also
lists their ``REPRO_*`` environment overrides and generates the
analysis service's payload keys.  ``--backend sampled --samples K``
analyzes circuits beyond the 24-input exhaustive cap on Monte-Carlo
sampled-U tables; ``--backend adaptive`` grows ``K`` until the
confidence intervals of the smallest ``N(f)`` estimates meet
``--target-halfwidth`` (``--stratify bridging`` adds importance
strata over rare bridging activation regions).  Every engine stores
its tables as numpy ``uint64`` words and runs the worst-case ``nmin``
scan vectorized.  ``--jobs N`` /
``--executor {inline,pool,tcp}`` shard table construction across
local processes or, through a ``repro broker`` (``--broker
HOST:PORT``), ``repro worker`` processes on any host.  Results are
bit-for-bit identical to the single-process build, and shard results
persist in an on-disk cache (``REPRO_CACHE_DIR``) that the ``cache``
subcommand inspects and clears.

``repro serve`` (which resolves its execution flags once, before
binding) and ``repro broker`` run under :func:`repro.daemon.run_foreground`.

``repro --trace PATH <command>`` records a span trace of the run:
every table build, shard, executor round-trip, and kernel batch lands
in PATH as JSONL, stitched across worker processes (pool children and
``repro worker`` drains alike carry the submitter's trace id).
``repro trace summary PATH`` profiles the capture.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro import obs

from repro.bench_suite.example import paper_example_ascii
from repro.bench_suite.registry import circuit_names, get_circuit
from repro.errors import ReproError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--circuits",
        help="comma-separated circuit subset (default: paper's list)",
    )
    parser.add_argument("--seed", type=int, default=2005)
    _add_format(parser)


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=["text", "csv", "markdown"],
        default="text",
        help="output format (text mirrors the paper's layout)",
    )


def _format_result(result, fmt: str) -> str:
    if fmt == "text":
        return result.render()
    from repro.experiments.export import to_csv, to_markdown

    return to_csv(result) if fmt == "csv" else to_markdown(result)


def _circuit_list(args: argparse.Namespace) -> list[str] | None:
    if getattr(args, "circuits", None):
        return [c.strip() for c in args.circuits.split(",") if c.strip()]
    return None


def build_parser() -> argparse.ArgumentParser:
    from repro.options import add_arguments

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Pomeranz & Reddy, 'Worst-Case and "
            "Average-Case Analysis of n-Detection Test Sets' (DATE 2005)"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "record a JSONL span trace of this run to PATH "
            "(truncated first; worker processes append to the same "
            "file and inherit the trace id via REPRO_TRACE_FILE)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Table 1 (example circuit)")
    p.add_argument("--fault", type=int, default=0, help="index of g in G")
    _add_format(p)

    p = sub.add_parser("table2", help="Table 2 (worst case, small n)")
    _add_common(p)

    p = sub.add_parser("table3", help="Table 3 (worst case, large n)")
    _add_common(p)

    p = sub.add_parser("table4", help="Table 4 (example test sets)")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=2005)
    _add_format(p)

    p = sub.add_parser("table5", help="Table 5 (average case, Def. 1)")
    _add_common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)

    p = sub.add_parser("table6", help="Table 6 (Def. 1 vs Def. 2)")
    _add_common(p)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--nmax", type=int, default=None)

    p = sub.add_parser("figure2", help="Figure 2 (nmin distribution)")
    p.add_argument("--circuit", default="dvram")
    p.add_argument("--min", type=int, default=100, dest="minimum")
    _add_format(p)

    sub.add_parser("suite", help="circuit inventory with fault counts")
    sub.add_parser("show-example", help="print the Figure 1 circuit")

    p = sub.add_parser("partition", help="Section 4 cone-partitioned analysis")
    p.add_argument("circuit")
    p.add_argument("--max-inputs", type=int, default=12)
    p.add_argument("--seed", type=int, default=2005)
    add_arguments(p)

    p = sub.add_parser(
        "cache", help="inspect or clear the persistent shard cache"
    )
    p.add_argument("action", choices=["info", "clear"])
    p.add_argument(
        "--cache-dir",
        help="shard-cache directory (default: REPRO_CACHE_DIR or the "
        "user cache directory)",
    )

    p = sub.add_parser(
        "worker", help="build shard tasks pushed by a TCP broker"
    )
    p.add_argument(
        "--broker", help="broker HOST:PORT (default: REPRO_BROKER)"
    )
    p.add_argument(
        "--max-tasks",
        type=int,
        help="exit after building this many shards (default: serve on)",
    )
    p.add_argument(
        "--idle-exit",
        type=float,
        help=(
            "exit after this many seconds without a pushed build "
            "(default: serve forever)"
        ),
    )
    p.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        help=(
            "the broker's lease timeout; the worker heartbeats every "
            "quarter of it (at most once a second) while building"
        ),
    )

    p = sub.add_parser(
        "queue", help="inspect or clear a TCP broker's shard queue"
    )
    p.add_argument(
        "action",
        choices=["info", "stats", "clear"],
        help="stats adds per-shard builders, workers, and errors",
    )
    p.add_argument(
        "--broker", help="broker HOST:PORT (default: REPRO_BROKER)"
    )

    p = sub.add_parser(
        "broker",
        help="run the TCP shard broker (--executor tcp submits to it)",
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help=(
            "bind address (default loopback; bind wider only on a "
            "trusted network, and set REPRO_BROKER_SECRET on every "
            "peer to require authenticated frames)"
        ),
    )
    p.add_argument(
        "--port",
        type=int,
        default=8766,
        help="listening port (0 picks a free one, printed on start)",
    )
    p.add_argument(
        "--no-steal",
        action="store_true",
        help="disable work stealing (stale leases only requeue on death)",
    )
    p.add_argument(
        "--steal-after",
        type=float,
        default=0.5,
        help=(
            "lease age in seconds beyond which an idle worker "
            "duplicates a peer's in-flight shard"
        ),
    )
    p.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        help=(
            "heartbeat age after which a busy worker is presumed dead "
            "and its shard requeued"
        ),
    )

    p = sub.add_parser(
        "trace",
        help="profile a JSONL trace captured with --trace",
    )
    p.add_argument(
        "action",
        choices=["summary", "tree"],
        help="summary: per-span-name totals and the critical path; "
        "tree: the full span hierarchy",
    )
    p.add_argument("path", help="JSONL trace file written by --trace")
    p.add_argument(
        "--top",
        type=int,
        default=10,
        help="span-name rows in the summary table (default 10)",
    )

    p = sub.add_parser(
        "serve", help="always-on HTTP analysis service"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8765,
        help="listening port (0 picks a free one, printed on start)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        help="default worker count for requests that don't set one",
    )
    from repro.parallel import EXECUTOR_NAMES

    p.add_argument(
        "--executor",
        choices=list(EXECUTOR_NAMES),
        help="default shard execution substrate for requests",
    )
    p.add_argument(
        "--broker",
        help=(
            "broker HOST:PORT used with --executor tcp; `repro worker "
            "--broker` processes attached to it build service shards"
        ),
    )
    p.add_argument(
        "--broker-port",
        type=int,
        help=(
            "embed a TCP shard broker on this port (0 picks a free "
            "one) and default requests to --executor tcp against it"
        ),
    )
    p.add_argument(
        "--table-lru",
        type=int,
        help=(
            "hot-tier capacity in cached table pairs "
            "(default: REPRO_TABLE_LRU, else 40)"
        ),
    )

    p = sub.add_parser(
        "gen-tests", help="generate a compact n-detection test set"
    )
    p.add_argument("circuit")
    p.add_argument("--n", type=int, default=1)
    p.add_argument(
        "--method", choices=["greedy", "podem"], default="greedy"
    )
    p.add_argument("--out", help="write vectors to this file")
    p.add_argument("--seed", type=int, default=2005)

    p = sub.add_parser(
        "escape", help="expected untargeted-fault escapes vs n"
    )
    p.add_argument("circuit")
    p.add_argument("--k", type=int, default=200)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--seed", type=int, default=2005)
    add_arguments(p)

    p = sub.add_parser(
        "analyze",
        help="worst-case analysis of one circuit (any backend)",
    )
    p.add_argument("circuit")
    p.add_argument("--seed", type=int, default=2005)
    p.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level for sampled-backend interval reporting",
    )
    add_arguments(p)
    return parser


def _cmd_suite() -> str:
    from repro.experiments.common import render_rows
    from repro.faults.universe import FaultUniverse

    rows = []
    for name in circuit_names():
        c = get_circuit(name)
        stats = c.stats()
        u = FaultUniverse(c)
        rows.append(
            [
                name,
                str(stats["inputs"]),
                str(stats["outputs"]),
                str(stats["gates"]),
                str(stats["lines"]),
                str(len(u.target_faults)),
                str(len(u.untargeted_faults)),
            ]
        )
    header = ["circuit", "PI", "PO", "gates", "lines", "|F|", "|G raw|"]
    return render_rows(header, rows) + "\n"


def _cmd_partition(args: argparse.Namespace) -> str:
    from repro.options import backend_from_options

    with obs.span("partition_analysis", circuit=args.circuit):
        return partition_report(
            get_circuit(args.circuit),
            backend_from_options(vars(args)),
            circuit_name=args.circuit,
            max_inputs=args.max_inputs,
        )


def partition_report(
    circuit: Any,
    backend: Any,
    *,
    circuit_name: str,
    max_inputs: int,
) -> str:
    """Render the Section 4 cone-partitioned analysis.

    The rendering half of ``repro partition``, shared with the analysis
    service (:mod:`repro.serve`) so service responses stay byte-
    identical to the CLI's.
    """
    from repro.adaptive import AdaptiveBackend
    from repro.core.partition import PartitionedAnalysis
    from repro.faultsim.backends import SerialBackend, TableBackend
    from repro.parallel import ParallelBackend

    base = backend.base if isinstance(backend, ParallelBackend) else backend
    # Exhaustive/serial cannot cover cones wider than the bound; keep
    # the legacy strict behavior (wide outputs raise).  The executor is
    # orthogonal and runs every cone's builds.
    strict = base == TableBackend() or isinstance(base, SerialBackend)
    analysis = PartitionedAnalysis(
        circuit,
        max_inputs=max_inputs,
        backend=None if strict else backend,
        executor=getattr(backend, "executor", None),
    )
    lines = [
        f"Cone-partitioned analysis of {circuit_name} "
        f"(max {max_inputs} inputs)"
    ]
    for key, value in analysis.summary().items():
        lines.append(f"  {key}: {value}")
    for cone in analysis.cones:
        worst = cone.worst_case
        g = worst.guaranteed_n()
        vu = worst.universe
        tag = "" if vu.exact else f" backend={base.name}"
        if not vu.exact and isinstance(base, AdaptiveBackend):
            # Per-cone adaptive K: each wide cone picked its own size.
            tag += f" K={vu.size}"
        lines.append(
            f"  cone {cone.circuit.name}: inputs={cone.circuit.num_inputs} "
            f"faults={len(worst)} guaranteed_n={g}{tag}"
        )
    return "\n".join(lines) + "\n"


def _cmd_cache(args: argparse.Namespace) -> str:
    from repro.parallel import ShardCache

    cache = ShardCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        return f"removed {removed} shard entries from {cache.root}\n"
    entries = cache.entries()
    lines = [
        f"shard cache: {cache.root}",
        f"  entries: {len(entries)}",
        f"  size: {cache.total_bytes()} bytes",
    ]
    for version, count in cache.versions().items():
        lines.append(f"  format {version}: {count}")
    return "\n".join(lines) + "\n"


def _install_event_logging() -> None:
    """Show structured obs events on stderr for long-lived daemons.

    Lease reclaims, requeues, steals, and poisoned-shard parks are
    structured one-line events on the obs logger; a long-lived worker
    or broker should show them even with no logging configured by the
    operator.
    """
    import logging

    from repro.obs.tracer import EVENT_LOGGER

    logger = logging.getLogger(EVENT_LOGGER)
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        logger.addHandler(handler)
        if logger.level == logging.NOTSET:
            logger.setLevel(logging.INFO)


def _cmd_worker(args: argparse.Namespace) -> str:
    from repro.parallel.netqueue import TcpWorker, resolve_broker

    _install_event_logging()
    host, port = resolve_broker(args.broker, what="repro worker")
    worker = TcpWorker(
        broker=f"{host}:{port}", lease_timeout=args.lease_timeout
    )
    stats = worker.serve(max_tasks=args.max_tasks, idle_exit=args.idle_exit)
    return (
        f"worker {worker.worker_id} @ broker {worker.broker}: "
        f"built {stats['built']} shard(s) "
        f"({stats['stolen']} stolen), "
        f"skipped {stats['skipped']} already-cached, "
        f"{stats['failed']} failed attempt(s)\n"
    )


def _cmd_broker(args: argparse.Namespace) -> int:
    from repro.daemon import run_foreground
    from repro.parallel.netqueue import Broker

    _install_event_logging()
    broker = Broker(
        args.host,
        args.port,
        steal=not args.no_steal,
        steal_after=args.steal_after,
        lease_timeout=args.lease_timeout,
    )
    steal = "on" if broker.scheduler.steal else "off"
    return run_foreground(broker, "broker", f"steal={steal}")


def _cmd_queue(args: argparse.Namespace) -> str:
    """``repro queue {info,stats,clear}`` against a live broker."""
    from repro.parallel.netqueue import (
        broker_clear,
        broker_stats,
        resolve_broker,
    )

    host, port = resolve_broker(args.broker, what="repro queue")
    broker = f"{host}:{port}"
    if args.action == "clear":
        removed = broker_clear(broker)
        return f"removed {removed} queue entries from broker {broker}\n"
    stats = broker_stats(broker)
    counters = stats["counters"]
    lines = [
        f"broker: {stats['address']} "
        f"(steal={'on' if stats['steal'] else 'off'})",
        f"  pending tasks: {len(stats['pending'])}",
        f"  building: {len(stats['building'])}",
        f"  workers: {len(stats['workers'])}",
        f"  results: {stats['results']}",
        f"  failed: {len(stats['failed'])}",
        f"  steals: {counters['steals']}",
    ]
    if args.action == "info":
        return "\n".join(lines) + "\n"
    for entry in stats["building"]:
        builders = ", ".join(
            f"{b['worker']} (age={b['age_s']:.1f}s)"
            for b in entry["builders"]
        )
        lines.append(
            f"    {entry['key']}  attempts={entry['attempts']}  "
            f"builders: {builders}"
        )
    for worker in stats["workers"]:
        current = worker["current"] or "idle"
        lines.append(f"    worker {worker['worker']}: {current}")
    for failure in stats["failed"]:
        error = str(failure["error"] or "").splitlines()
        lines.append(
            f"    failed {failure['key']}  {error[0] if error else ''}"
        )
    lines.append(
        "  counters: "
        + ", ".join(
            f"{key}={counters[key]}" for key in sorted(counters)
        )
    )
    return "\n".join(lines) + "\n"


def _cmd_trace(args: argparse.Namespace) -> str:
    from repro.obs.summary import (
        load_trace,
        render_summary,
        render_tree,
        summarize,
    )

    summary = summarize(load_trace(args.path))
    if args.action == "summary":
        return render_summary(summary, top=args.top) + "\n"
    return render_tree(summary) + "\n"


def _cmd_serve(args: argparse.Namespace) -> int:
    import contextlib

    from repro.daemon import run_foreground
    from repro.errors import AnalysisError
    from repro.options import executor_from_options
    from repro.serve import AnalysisService, HttpServer

    values = {
        "jobs": args.jobs, "executor": args.executor, "broker": args.broker
    }
    with contextlib.ExitStack() as stack:
        if args.broker_port is not None:
            # Embedded broker: the service builds on the tcp executor
            # against its own broker, stopped when the service stops.
            if args.broker is not None or args.executor not in (None, "tcp"):
                raise AnalysisError(
                    "--broker-port embeds the broker of --executor tcp: "
                    "it takes no --broker and no other --executor"
                )
            from repro.parallel.netqueue import BackgroundBroker, Broker

            embedded = BackgroundBroker(Broker(args.host, args.broker_port))
            stack.enter_context(embedded)
            values.update(executor="tcp", broker=embedded.address)
        # Resolved once, before binding: a bad setting exits 2 here
        # instead of failing every request.
        service = AnalysisService(
            executor=executor_from_options(values), table_lru=args.table_lru
        )
        if args.broker_port is not None:
            sys.stdout.write(
                f"repro serve: embedded broker on {values['broker']} (attach "
                f"workers with `repro worker --broker {values['broker']}`)\n"
            )
            sys.stdout.flush()
        return run_foreground(
            HttpServer(service, args.host, args.port),
            "serve",
            f"hot tier: {service.cache.capacity} tables",
        )


def _cmd_gen_tests(args: argparse.Namespace) -> str:
    import random

    from repro.atpg.ndetect import greedy_ndetection_set, podem_ndetection_set
    from repro.faults.universe import FaultUniverse
    from repro.io_formats.vectors import write_vectors

    circuit = get_circuit(args.circuit)
    universe = FaultUniverse(circuit)
    if args.method == "greedy":
        tests = greedy_ndetection_set(
            universe.target_table, args.n, rng=random.Random(args.seed)
        )
    else:
        tests = podem_ndetection_set(
            circuit, universe.target_faults, args.n, seed=args.seed
        )
    text = write_vectors(
        sorted(tests),
        circuit.num_inputs,
        comment=(
            f"{args.n}-detection test set for {args.circuit} "
            f"({args.method}, {len(tests)} vectors)"
        ),
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        return f"wrote {len(tests)} vectors to {args.out}\n"
    return text


def _built_universe(args: argparse.Namespace) -> Any:
    """The fault universe ``repro analyze|escape`` reports on, with its
    tables and worst-case scan built inside the ``build_tables`` span."""
    from repro.faults.universe import FaultUniverse
    from repro.options import backend_from_options

    circuit = get_circuit(args.circuit)
    # Backend resolution sits inside the span: ``--executor tcp`` loads
    # the transport (asyncio, sockets) here, on first use.
    with obs.span("build_tables", circuit=args.circuit):
        backend = backend_from_options(vars(args))
        universe = FaultUniverse(circuit, backend=backend)
        universe.worst_case
    return universe


def _cmd_escape(args: argparse.Namespace) -> str:
    universe = _built_universe(args)
    with obs.span("report", circuit=args.circuit):
        return escape_report(
            universe,
            circuit_name=args.circuit,
            backend_name=args.backend,
            k=args.k,
            nmax=args.nmax,
            seed=args.seed,
        )


def escape_report(
    universe: Any,
    *,
    circuit_name: str,
    backend_name: str,
    k: int,
    nmax: int,
    seed: int,
) -> str:
    """Render the expected-escapes analysis of a built universe.

    The rendering half of ``repro escape``, shared with the analysis
    service (:mod:`repro.serve`) so a cached universe produces
    responses byte-identical to the CLI's.
    """
    from repro.core.average_case import AverageCaseAnalysis
    from repro.core.escape import EscapeAnalysis
    from repro.core.procedure1 import build_random_ndetection_sets

    family = build_random_ndetection_sets(
        universe.target_table,
        n_max=nmax,
        num_sets=k,
        seed=seed,
    )
    avg = AverageCaseAnalysis(family, universe.untargeted_table)
    worst = universe.worst_case
    escape = EscapeAnalysis(worst, avg)
    head = (
        f"Escape analysis of {circuit_name} "
        f"(backend={backend_name}, {len(worst)} untargeted faults, "
        f"K={k}):\n"
    )
    return head + escape.render() + "\n"


def _cmd_analyze(args: argparse.Namespace) -> str:
    universe = _built_universe(args)
    # The report phase owns the worst-case scans (nmin, fractions),
    # which dominate after the tables are hot — span it so the trace
    # attributes that time instead of leaving it in the root's self.
    with obs.span("report", circuit=args.circuit):
        return analyze_report(
            universe,
            circuit_name=args.circuit,
            backend_name=args.backend,
            seed=args.seed,
            confidence=args.confidence,
        )


def execution_label(executor: Any) -> str:
    """The suffix :func:`analyze_report` adds to its ``backend=`` label
    for the executor a run built on: ``""`` for none, `` jobs=N`` for a
    pool of ``N`` processes, `` executor=<name>`` for any other.  The
    analysis service keys its hot tier on it, so each entry stays
    byte-identical to its CLI run.
    """
    from repro.parallel import PoolExecutor

    if executor is None:
        return ""
    if isinstance(executor, PoolExecutor):
        return f" jobs={executor.jobs}"
    return f" executor={executor.name}"


def analyze_report(
    universe: Any,
    *,
    circuit_name: str,
    backend_name: str,
    seed: int,
    confidence: float,
) -> str:
    """Render the worst-case analysis summary of a built universe.

    The rendering half of ``repro analyze``: ``universe`` is a
    :class:`~repro.faults.universe.FaultUniverse`, reported through its
    :attr:`~repro.faults.universe.FaultUniverse.worst_case`.  The
    analysis service (:mod:`repro.serve`) calls this with hot-tier
    cached universes, so service responses stay byte-identical to the
    CLI.
    """
    from repro.adaptive import AdaptiveBackend

    circuit = universe.circuit
    backend = universe.backend
    worst = universe.worst_case
    label = backend_name + execution_label(
        getattr(backend, "executor", None)
    )
    vu = worst.universe
    lines = [
        f"Worst-case analysis of {circuit_name} (backend={label})",
        f"  inputs: {circuit.num_inputs}  |U| = 2**{circuit.num_inputs}",
        f"  vector universe: {vu.size} of {vu.space} vectors"
        + ("" if vu.exact else f" (sampled, seed={seed})"),
        f"  target faults |F|: {len(universe.target_table)} "
        f"({universe.target_table.num_detectable()} detectable)",
        f"  untargeted faults |G|: {len(worst)}",
    ]
    if isinstance(backend, AdaptiveBackend):
        report = backend.report_for(circuit)
        lines.append(
            "  adaptive trajectory"
            + (
                f" ({report.plan.num_strata} strata over "
                f"{len(report.plan.support)} support inputs)"
                if report.stratified
                else " (uniform growth)"
            )
            + ":"
        )
        lines.extend(f"    {line}" for line in report.trajectory_lines())
        for fe in report.focus:
            est = fe.estimate
            lines.append(
                f"    smallest N estimate [{fe.kind} "
                f"#{fe.fault_index}]: {est.estimate:.4g} "
                f"[{est.low:.4g}, {est.high:.4g}] "
                f"half-width/estimate = {fe.relative_halfwidth:.4f} "
                f"at {est.confidence:.0%}"
            )
    guaranteed = worst.guaranteed_n()
    if vu.exact:
        lines.append(f"  guaranteed n: {guaranteed}")
    else:
        est = worst.estimated_guaranteed_n()
        est_text = "none" if est is None else f"{est:.1f}"
        lines.append(
            f"  guaranteed n (sample space): {guaranteed}  "
            f"estimated over |U|: {est_text}"
        )
        # Spread of the estimator at this K, shown for the largest N(f).
        # Ranked and intervalled through the table's own estimator, so
        # stratified universes get their weighted (unbiased) version.
        estimates = universe.target_table.estimated_counts()
        if estimates:
            top = max(range(len(estimates)), key=estimates.__getitem__)
            ci = universe.target_table.count_estimate(
                top, confidence
            )
            lines.append(
                f"  largest N(f) estimate: {ci.estimate:.1f} "
                f"[{ci.low:.1f}, {ci.high:.1f}] "
                f"at {confidence:.0%} confidence"
            )
    values = [v for v in worst.nmin_values() if v is not None]
    no_guarantee = len(worst) - len(values)
    if values:
        label = "nmin" if vu.exact else "nmin (sample space)"
        lines.append(
            f"  {label}: min={min(values)} max={max(values)}"
        )
    lines.append(f"  faults with no guarantee at any n: {no_guarantee}")
    qualifier = "" if vu.exact else " (sample space)"
    for n in (1, 2, 5, 10):
        lines.append(
            f"  guaranteed detected at n={n}{qualifier}: "
            f"{100.0 * worst.fraction_within(n):.1f}%"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    previous: obs.Tracer | obs.NullTracer | None = None
    tracing = bool(getattr(args, "trace", None))
    if tracing:
        previous = _activate_trace(args.trace)
    try:
        if tracing:
            # One root span per run: everything the command does (table
            # builds, shard round-trips, rendering) nests under it, so
            # `repro trace summary` attributes the whole wall time.
            with obs.span(args.command):
                return _dispatch(args)
        return _dispatch(args)
    except ReproError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        if tracing:
            obs.current_tracer().close()
            obs.reset(previous)


def _activate_trace(path: str) -> obs.Tracer | obs.NullTracer | None:
    """Start tracing this process and every worker it spawns.

    The path lands in ``REPRO_TRACE_FILE`` so spawned children (pool
    workers on platforms without fork, service subprocesses) lazily
    join the same file; fork children inherit the activated tracer
    directly (a pool forked under another tracer is replaced on the
    next build); ``repro worker`` processes pick the trace id out of
    the build frame.
    """
    import os

    from repro.obs.tracer import TRACE_FILE_ENV

    os.environ[TRACE_FILE_ENV] = path
    writer = obs.JsonlTraceWriter(path, truncate=True)
    return obs.activate(obs.Tracer(writer))


def _dispatch(args: argparse.Namespace) -> int:
    # Imports are deferred: experiment modules pull in the whole analysis
    # stack, which only some commands need.
    if args.command == "table1":
        from repro.experiments.table1 import run_table1

        out = _format_result(run_table1(args.fault), args.format)
    elif args.command == "table2":
        from repro.experiments.table2 import run_table2

        out = _format_result(run_table2(_circuit_list(args)), args.format)
    elif args.command == "table3":
        from repro.experiments.table3 import run_table3

        out = _format_result(run_table3(_circuit_list(args)), args.format)
    elif args.command == "table4":
        from repro.experiments.table4 import run_table4

        out = _format_result(
            run_table4(num_sets=args.k, seed=args.seed), args.format
        )
    elif args.command == "table5":
        from repro.experiments.table5 import run_table5

        result = run_table5(
            _circuit_list(args), k=args.k, n_max=args.nmax, seed=args.seed
        )
        out = _format_result(result, args.format)
    elif args.command == "table6":
        from repro.experiments.table6 import run_table6

        result = run_table6(
            _circuit_list(args), k=args.k, n_max=args.nmax, seed=args.seed
        )
        out = _format_result(result, args.format)
    elif args.command == "figure2":
        from repro.experiments.figure2 import run_figure2

        out = _format_result(
            run_figure2(args.circuit, minimum=args.minimum), args.format
        )
    elif args.command == "suite":
        out = _cmd_suite()
    elif args.command == "show-example":
        out = paper_example_ascii() + "\n"
    elif args.command == "partition":
        out = _cmd_partition(args)
    elif args.command == "cache":
        out = _cmd_cache(args)
    elif args.command == "worker":
        out = _cmd_worker(args)
    elif args.command == "queue":
        out = _cmd_queue(args)
    elif args.command == "trace":
        out = _cmd_trace(args)
    elif args.command == "serve":
        # Blocks until interrupted; the ready line prints from inside.
        return _cmd_serve(args)
    elif args.command == "broker":
        # Blocks until interrupted; the ready line prints from inside.
        return _cmd_broker(args)
    elif args.command == "gen-tests":
        out = _cmd_gen_tests(args)
    elif args.command == "escape":
        out = _cmd_escape(args)
    elif args.command == "analyze":
        out = _cmd_analyze(args)
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(2)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
