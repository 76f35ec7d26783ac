"""Shared infrastructure for the experiment harness.

Universes (tables and worst-case analysis included) are memoized per
circuit name with a small LRU (detection tables of the largest suite
circuits weigh tens of megabytes, so an unbounded cache is not an
option).  Default circuit lists mirror the paper's tables; heavyweight
parameters (``K``, ``nmax``) accept environment overrides so benches
can run quick while the CLI can reproduce the full-size experiment:

``REPRO_K``          overrides the number of random test sets.
``REPRO_NMAX``       overrides nmax (paper: 10).
``REPRO_CIRCUITS``   comma-separated circuit subset for suite tables.
``REPRO_SEED``       sampled/adaptive backends: universe draw seed.
``REPRO_TABLE_LRU``  capacity of the in-memory universe LRU (default
                     40 — holds the whole 35-circuit suite).  The
                     analysis service's hot tier reads the same knob.

The backend comes from the env names of the option table,
:data:`repro.options.OPTIONS`, checked exactly as their flags are;
that module also lists the flags that deliberately have none.

Backends are frozen dataclasses, so the universe cache keys on the
exact backend configuration: ``exhaustive`` and ``sampled`` both name
a :class:`~repro.faultsim.backends.TableBackend`, whose ``samples`` /
``seed`` / ``replacement`` fields fix the draw.  The
exhaustive engine ignores ``REPRO_SEED`` (its seed is canonicalized),
so every exhaustive run shares one entry.  One deliberate exception: a
parallel-wrapped backend produces tables *bit-for-bit identical* to its
base engine's, so the cache keys on the unwrapped base — the cache key
is executor-normalized, meaning a ``jobs=4`` run, a broker-distributed
run, and a single-process run of the same engine all share one
in-memory table instead of holding identical multi-hundred-MB copies.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from repro.bench_suite.registry import get_circuit, suite_table_groups
from repro.caching import LRUCache, table_lru_capacity
from repro.errors import AnalysisError
from repro.faults.universe import FaultUniverse
from repro.faultsim.backends import (
    DetectionBackend,
    TableBackend,
    table_identity,
)
from repro.options import OPTIONS, backend_from_options

#: The paper reports Tables 3/5/6 only for circuits that have faults with
#: nmin >= 11; these are the Table 5 rows of the paper (the analogues in
#: our suite are discovered dynamically, but the defaults start here).
PAPER_TABLE5_CIRCUITS: tuple[str, ...] = (
    "beecount",
    "ex2",
    "ex3",
    "ex6",
    "mark1",
    "bbara",
    "ex4",
    "keyb",
    "opus",
    "bbsse",
    "cse",
    "dvram",
    "fetch",
    "log",
    "rie",
    "s1a",
)

#: Table 6 of the paper uses the same circuits with K = 1000.
PAPER_TABLE6_CIRCUITS = PAPER_TABLE5_CIRCUITS

NMAX_DEFAULT = 10
THRESHOLD_NOT_GUARANTEED = 11  # faults with nmin >= 11 escape a 10-detection set


def backend_from_env() -> DetectionBackend | None:
    """Detection backend from the option table's env overrides.

    Each value is converted and checked like its flag (a malformed one
    raises :class:`AnalysisError` naming the variable), then resolved
    as the CLI resolves its flags.  None (caller default) when that is
    the default single-process exhaustive engine.
    """
    values: dict[str, object] = {"seed": env_int("REPRO_SEED", 0)}
    for option in OPTIONS:
        if option.env is None:
            continue
        value = _env_value(option.env, option.kwargs.get("type", str))
        choices = option.kwargs.get("choices")
        if choices is not None and value not in (None, *choices):
            raise AnalysisError(
                f"{option.env}: unknown {option.dest} {value!r}; choose "
                f"from {', '.join(choices)}"
            )
        values[option.dest] = (
            option.kwargs.get("default") if value is None else value
        )
    backend = backend_from_options(values, front_end="env")
    return None if backend == TableBackend() else backend


def get_universe(
    name: str, backend: DetectionBackend | None = None
) -> FaultUniverse:
    """Fault universe (with detection tables) for a suite circuit.

    ``backend`` defaults to the REPRO_BACKEND / REPRO_JOBS env
    overrides, then the exhaustive engine.  The env overrides are
    resolved *before* the cache lookup, so changing them mid-process
    switches universes instead of silently replaying the first
    backend's cached tables.
    """
    backend = backend or backend_from_env()
    key = (name, table_identity(backend))
    universe = _UNIVERSE_CACHE.get(key)
    if universe is None:
        universe = FaultUniverse(get_circuit(name), backend=backend)
        # Touch the tables so the cache holds fully-built universes.
        universe.target_table
        universe.untargeted_table
        _UNIVERSE_CACHE.put(key, universe)
    return universe


#: Backend-identity-keyed LRU (backends are frozen dataclasses; the
#: identity normalization lives in
#: :func:`repro.faultsim.backends.table_identity`).  The bounded LRU
#: itself is :class:`repro.caching.LRUCache` — the same implementation
#: the analysis service (:mod:`repro.serve`) uses as its hot tier —
#: sized by ``REPRO_TABLE_LRU`` (default 40: the whole 35-circuit
#: suite; total footprint stays within a few GB).
_UNIVERSE_CACHE: LRUCache = LRUCache(table_lru_capacity())


def env_int(var: str, default: int) -> int:
    """Integer environment override with a fallback."""
    value = _env_value(var, int)
    return default if value is None else value


def _env_value(var: str, convert: Callable[[str], Any]) -> Any:
    """``var`` through ``convert`` (None when unset or empty); a
    malformed value raises :class:`AnalysisError` naming ``var``."""
    raw = os.environ.get(var)
    if not raw:
        return None
    try:
        return convert(raw)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise AnalysisError(f"{var} must be {kind}, got {raw!r}") from None


def suite_circuits(default: tuple[str, ...] | None = None) -> list[str]:
    """Circuit list for suite-wide tables (REPRO_CIRCUITS override)."""
    raw = os.environ.get("REPRO_CIRCUITS")
    if raw:
        return [c.strip() for c in raw.split(",") if c.strip()]
    if default is not None:
        return list(default)
    return list(suite_table_groups())


def render_rows(
    header: list[str], rows: list[list[str]], indent: str = ""
) -> str:
    """Fixed-width text table (right-aligned data columns)."""
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append(
        indent
        + "  ".join(h.ljust(widths[i]) if i == 0 else h.rjust(widths[i])
                    for i, h in enumerate(header))
    )
    lines.append(indent + "-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in rows:
        lines.append(
            indent
            + "  ".join(
                cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                for i, cell in enumerate(row)
            )
        )
    return "\n".join(lines)
