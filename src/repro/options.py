"""The backend/execution option table: one declaration, three front ends.

Each :data:`OPTIONS` row is a flag of ``repro analyze|escape|partition``
and a payload key of the analysis service; the analysis rows also name
the ``REPRO_*`` variable the experiment tables read.  All three resolve
through :func:`backend_from_options`.  No env name, deliberately:
``jobs``, ``executor`` and ``broker`` are deployment settings, which
:func:`executor_from_options` resolves once, with ``REPRO_JOBS`` and
``REPRO_EXECUTOR``, into the one executor every layer below takes
(``REPRO_BROKER`` stays the tcp executor's default address); and
``replacement`` / ``initial_samples`` never had one.  ``--seed`` and
``--confidence`` are per command (their CLI defaults differ; the env
reads ``REPRO_SEED``).
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from functools import partial
from types import EllipsisType
from typing import Any, Mapping

from repro.errors import AnalysisError
from repro.faultsim.backends import (
    BACKEND_NAMES,
    DetectionBackend,
    make_backend,
    spell_flag,
)
from repro.parallel import (
    EXECUTOR_NAMES,
    PoolExecutor,
    ShardExecutor,
    make_executor,
)

__all__ = [
    "OPTIONS",
    "Option",
    "add_arguments",
    "backend_from_options",
    "executor_from_options",
]


@dataclass(frozen=True)
class Option:
    """One option: its dest, its flag's ``argparse`` kwargs, and its
    environment variable (None when the environment does not set it)."""

    dest: str
    kwargs: Mapping[str, Any]
    env: str | None = None

    def spell(self, front_end: str, value: object = None) -> str:
        """The option, set to ``value`` if given, as ``front_end``
        (``cli``, ``env`` or ``service``) writes it."""
        name = {"env": self.env, "service": self.dest}.get(front_end)
        if name is None:
            return spell_flag(self.dest, value)
        return name if value is None else f"{name}={value}"


#: The option table, in ``--help`` order.
OPTIONS: tuple[Option, ...] = (
    Option("backend", {
        "choices": list(BACKEND_NAMES),
        "default": "exhaustive",
        "help": "detection-table engine (sampled breaks the 24-input cap)",
    }, env="REPRO_BACKEND"),
    Option("samples", {
        "type": int,
        "help": "sampled backend: number K of random vectors to draw",
    }, env="REPRO_SAMPLES"),
    Option("replacement", {
        "action": "store_true",
        "help": "sampled backend: draw vectors with replacement",
    }),
    Option("jobs", {
        "type": int,
        "help": (
            "worker processes for detection-table construction "
            "(default: REPRO_JOBS, else 1; results are identical at "
            "any value)"
        ),
    }),
    Option("executor", {
        "choices": list(EXECUTOR_NAMES),
        "help": (
            "shard execution substrate (default: REPRO_EXECUTOR, else "
            "derived from --jobs); tcp distributes shards through a "
            "broker to `repro worker --broker` processes"
        ),
    }),
    Option("broker", {
        "help": "broker HOST:PORT for --executor tcp (default: REPRO_BROKER)",
    }),
    Option("target_halfwidth", {
        "type": float,
        "help": (
            "adaptive backend: grow K until the smallest-N(f) "
            "confidence intervals are this tight (relative precision, "
            "default 0.05)"
        ),
    }, env="REPRO_TARGET_HALFWIDTH"),
    Option("max_samples", {
        "type": int,
        "help": "adaptive backend: total vector budget (default 16384)",
    }, env="REPRO_MAX_SAMPLES"),
    Option("initial_samples", {
        "type": int,
        "help": "adaptive backend: first-round draw size (default 64)",
    }),
    Option("stratify", {
        "choices": ["none", "bridging"],
        "help": (
            "adaptive backend: importance strata over rare bridging "
            "activation regions"
        ),
    }, env="REPRO_STRATIFY"),
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Add every row of :data:`OPTIONS` to ``parser`` as a flag."""
    for option in OPTIONS:
        parser.add_argument(option.spell("cli"), **option.kwargs)


def _spell(front_end: str, dest: str, value: object = None) -> str:
    """The option ``dest``, set to ``value`` if given, as ``front_end``
    writes it."""
    (option,) = (option for option in OPTIONS if option.dest == dest)
    return option.spell(front_end, value)


def _env_jobs() -> int:
    """``REPRO_JOBS`` as an integer (1 when unset)."""
    raw = os.environ.get("REPRO_JOBS")
    if not raw:
        return 1
    try:
        return int(raw)
    except ValueError:
        raise AnalysisError(
            f"REPRO_JOBS must be a positive integer, got {raw!r}"
        ) from None


def executor_from_options(
    values: Mapping[str, Any], front_end: str = "cli"
) -> ShardExecutor | None:
    """The one executor ``jobs`` / ``executor`` / ``broker`` name.

    The executor is ``executor`` or ``REPRO_EXECUTOR``.  A named pool
    takes ``jobs`` as given, else ``REPRO_JOBS`` when it asks for a
    real pool, else 2.  Unnamed, a worker count above 1 (``jobs``,
    else ``REPRO_JOBS``) means a pool of that size and anything else
    means None: no wrapper, a single-process build.
    """
    explicit = values.get("jobs")
    jobs = _env_jobs() if explicit is None else explicit
    if jobs < 1:
        setting = "REPRO_JOBS" if explicit is None else _spell(
            front_end, "jobs"
        )
        raise AnalysisError(f"{setting} must be >= 1, got {jobs}")
    name = values.get("executor") or os.environ.get("REPRO_EXECUTOR")
    broker = values.get("broker")
    if broker is not None and name != "tcp":
        got = f" (got {_spell(front_end, 'executor', name)})" if name else ""
        raise AnalysisError(
            f"{_spell(front_end, 'broker')} only applies to "
            f"{_spell(front_end, 'executor', 'tcp')}{got}"
        )
    if not name:
        return PoolExecutor(jobs) if jobs > 1 else None
    if name == "pool" and explicit is None:
        jobs = max(jobs, 2)
    return make_executor(name, jobs=jobs, broker=broker)


def backend_from_options(
    values: Mapping[str, Any],
    front_end: str = "cli",
    executor: ShardExecutor | None | EllipsisType = ...,
) -> DetectionBackend:
    """The detection backend named by option values keyed by dest.

    ``front_end`` (``cli``, ``env`` or ``service``) says where the
    values came from, so errors name the options as the user wrote
    them.  The engine builds on ``executor``; ``...`` (the default)
    resolves it from ``values`` with :func:`executor_from_options`.
    """
    if isinstance(executor, EllipsisType):
        executor = executor_from_options(values, front_end)
    return make_backend(
        values["backend"],
        samples=values.get("samples"),
        seed=values.get("seed", 0),
        replacement=values.get("replacement", False),
        executor=executor,
        target_halfwidth=values.get("target_halfwidth"),
        # ``is None``, not truthiness: an explicit --confidence 0.0 must
        # reach the stopping rule's validation, not silently become 95%.
        confidence=values.get("confidence"),
        max_samples=values.get("max_samples"),
        initial_samples=values.get("initial_samples"),
        stratify=values.get("stratify"),
        spell=partial(_spell, front_end),
    )
