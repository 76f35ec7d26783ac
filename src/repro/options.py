"""The backend/execution option table: one declaration, three front ends.

Each :data:`OPTIONS` row is a flag of ``repro analyze|escape|partition``
and a payload key of the analysis service; the analysis rows also name
the ``REPRO_*`` variable the experiment tables read.  All three resolve
through :func:`backend_from_options`.  No env name, deliberately:
``jobs``, ``executor`` and ``broker`` are deployment settings that
:mod:`repro.parallel` reads from ``REPRO_JOBS`` / ``REPRO_EXECUTOR`` /
``REPRO_BROKER`` for every front end, and ``replacement`` /
``initial_samples`` never had one.  ``--seed`` and ``--confidence`` are
per command (their CLI defaults differ; the env reads ``REPRO_SEED``).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import AnalysisError
from repro.faultsim.backends import (
    BACKEND_NAMES,
    DetectionBackend,
    make_backend,
    spell_flag,
)
from repro.parallel import EXECUTOR_NAMES, resolve_executor, resolve_jobs

__all__ = ["OPTIONS", "Option", "add_arguments", "backend_from_options"]


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


def backend_from_options(
    values: Mapping[str, Any], front_end: str = "cli"
) -> DetectionBackend:
    """The detection backend named by option values keyed by dest.

    ``front_end`` (``cli``, ``env`` or ``service``) says where the
    values came from, so errors name the options as the user wrote
    them.  ``jobs`` passes through unresolved: an explicit value sizes
    the pool executor verbatim (even 1), while None lets the factory
    fall back to ``REPRO_JOBS`` / a real pool of 2.
    """
    by_dest = {option.dest: option for option in OPTIONS}

    def spell(dest: str, value: object = None) -> str:
        return by_dest[dest].spell(front_end, value)

    jobs = values.get("jobs")
    if jobs is not None and jobs < 1:
        raise AnalysisError(f"{spell('jobs')} must be >= 1, got {jobs}")
    executor = resolve_executor(
        values.get("executor"), jobs=jobs, broker=values.get("broker")
    )
    return make_backend(
        values["backend"],
        samples=values.get("samples"),
        seed=values.get("seed", 0),
        replacement=values.get("replacement", False),
        jobs=resolve_jobs(jobs),
        executor=executor,
        target_halfwidth=values.get("target_halfwidth"),
        # ``is None``, not truthiness: an explicit --confidence 0.0 must
        # reach the stopping rule's validation, not silently become 95%.
        confidence=values.get("confidence"),
        max_samples=values.get("max_samples"),
        initial_samples=values.get("initial_samples"),
        stratify=values.get("stratify"),
        spell=spell,
    )
