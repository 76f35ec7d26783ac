"""Persistent, content-addressed shard cache.

A shard's detection rows are a pure function of three things: the
circuit's structure, the backend configuration (which fixes the vector
universe — engine, ``K``, seed, replacement), and the fault slice.  The
cache keys on a digest of exactly those inputs — the slice as its fault
array's columns, hashed as fixed-width little-endian bytes, so keying
builds no per-fault object — so

* repeated experiments (the ``table1``–``table6`` drivers re-analyze the
  same circuits run after run) reload shards instead of re-simulating;
* runs with different ``--jobs`` values share entries, because the shard
  layout itself never depends on the worker count
  (:mod:`repro.parallel.plan`);
* any change to the circuit, the backend parameters, or the fault slice
  changes the key — stale results are unreachable, never returned.

An entry is a 16-byte header (magic, format version) and then the
payload, opaque ``bytes`` here.  Nothing is unpickled: a file without
the current header (a format-v1 pickle, junk) is a miss.
Entries are written atomically (temp file + ``os.replace`` in the same
directory), so a crashed or concurrent writer can never leave a
partially-written entry behind; a corrupt or unreadable entry is treated
as a miss and overwritten.  The directory is ``REPRO_CACHE_DIR`` when
set, else ``$XDG_CACHE_HOME/repro/shards`` (``~/.cache/repro/shards``).
``repro cache info`` / ``repro cache clear`` inspect and empty it.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.circuit.netlist import Circuit

if TYPE_CHECKING:
    from repro.faults.arrays import FaultArray
    from repro.faultsim.backends import DetectionBackend

#: Bumped whenever the cached payload layout or the key material changes;
#: part of every key, so old entries simply stop being addressed
#: (3: the fault slice is keyed by its columns' bytes).
CACHE_FORMAT_VERSION = 3

#: Entry prefix: magic, then the format version as a little-endian
#: ``uint64`` — 16 bytes, so the payload words start 8-byte aligned.
_MAGIC = b"RPSHARD\0"
_HEADER = _MAGIC + CACHE_FORMAT_VERSION.to_bytes(8, "little")

#: Process-wide counters, aggregated over every :class:`ShardCache`
#: instance (one is created per table build, so per-instance counters
#: alone could not observe "the second build hit the cache").
_GLOBAL_STATS = {"hits": 0, "misses": 0, "stores": 0}


def cache_stats() -> dict[str, int]:
    """Snapshot of the process-wide hit/miss/store counters."""
    return dict(_GLOBAL_STATS)


def reset_cache_stats() -> None:
    """Zero the process-wide counters (test isolation)."""
    for key in _GLOBAL_STATS:
        _GLOBAL_STATS[key] = 0


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` or the platform user-cache shard directory."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "shards"


# ----------------------------------------------------------------------
# Key material
# ----------------------------------------------------------------------
def circuit_digest(circuit: Circuit) -> str:
    """Structural digest of a netlist (names excluded).

    Detection signatures depend on connectivity, gate functions, and the
    input/output orders — never on line names — so structurally identical
    circuits share cache entries regardless of naming.
    """
    h = hashlib.sha256()
    for line in circuit.lines:
        gate = line.gate_type.name if line.gate_type is not None else "-"
        h.update(
            (
                f"{line.lid}:{line.kind.value}:{gate}:"
                f"{','.join(map(str, line.fanin))}:{int(line.is_output)};"
            ).encode()
        )
    h.update(("I" + ",".join(map(str, circuit.inputs))).encode())
    h.update(("O" + ",".join(map(str, circuit.outputs))).encode())
    return h.hexdigest()


def backend_cache_key(backend: DetectionBackend) -> str:
    """Canonical text form of a frozen backend dataclass.

    ``repr`` of a frozen dataclass lists every field deterministically,
    which is exactly the configuration that fixes the vector universe.
    """
    return f"{type(backend).__name__}({backend!r})"


def shard_key(
    digest: str,
    backend: DetectionBackend,
    kind: str,
    faults: FaultArray[Any],
) -> str:
    """Content-addressed key for one shard's payload.

    ``digest`` is the circuit's :func:`circuit_digest`: callers hash the
    netlist once per build and share it across that build's shards.
    ``faults`` enters as its columns, each as little-endian ``int64``.
    """
    h = hashlib.sha256(
        "|".join(
            (
                f"v{CACHE_FORMAT_VERSION}",
                digest,
                backend_cache_key(backend),
                kind,
                str(len(faults)),
            )
        ).encode()
    )
    for column in faults.columns():
        h.update(column.astype("<i8").tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
class ShardCache:
    """Directory of shard payloads, addressed by :func:`shard_key`.

    Instance counters (``hits`` / ``misses`` / ``stores``) track one
    build; the module-level :func:`cache_stats` aggregates across
    instances for cross-build assertions.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        # The format-v1 suffix, kept so one glob lists (and ``clear``
        # removes) entries of every format.
        return self.root / f"{key}.pkl"

    def _load(self, key: str) -> bytes | None:
        """Read one entry without touching the hit/miss counters."""
        try:
            with open(self._path(key), "rb") as fh:
                if fh.read(len(_HEADER)) != _HEADER:
                    return None
                return fh.read()
        except OSError:
            return None

    def get(self, key: str) -> bytes | None:
        """Cached shard payload, or ``None`` on miss/corruption."""
        payload = self._load(key)
        if payload is None:
            self.misses += 1
            _GLOBAL_STATS["misses"] += 1
            return None
        self.hits += 1
        _GLOBAL_STATS["hits"] += 1
        return payload

    def put(self, key: str, payload: bytes) -> None:
        """Atomically persist one shard's payload (best effort).

        Concurrent multi-writer safe: every writer dumps to its own
        unique temp name (``mkstemp``) and publishes with ``os.replace``
        — racing writers of the same key each install a complete,
        identical payload, never a torn one.  A writer that finds the
        same payload already present lost such a race (the content is
        content-addressed, so the existing bytes *are* its bytes) and
        treats the entry as a hit instead of rewriting it; any other
        entry (torn by a crashed host, stale format, wrong length) is
        overwritten — ``put`` is the cache's only self-heal path, and
        skipping on bare existence would wedge the key forever.  A
        read-only or full filesystem never fails the build — the cache
        silently degrades to a no-op.
        """
        if self._load(key) == payload:
            self.hits += 1
            _GLOBAL_STATS["hits"] += 1
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(_HEADER)
                    fh.write(payload)
                os.replace(tmp, self._path(key))
            except BaseException:  # noqa: BLE001 - temp-file cleanup, re-raised
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self.stores += 1
        _GLOBAL_STATS["stores"] += 1

    # -- inspection (the `repro cache` subcommand) ---------------------
    def entries(self) -> list[Path]:
        """Entry files currently in the cache directory (sorted)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.pkl"))

    def versions(self) -> dict[str, int]:
        """Entry count per payload format version (``repro cache info``).

        Reads only each entry's header.  Entries without one — format-v1
        pickles, torn or unreadable files — are tallied under
        ``"stale"``: :meth:`get` treats every one of them as a miss, so
        the report shows how much of the cache is actually servable.
        """
        counts: dict[str, int] = {}
        for path in self.entries():
            try:
                with open(path, "rb") as fh:
                    header = fh.read(len(_HEADER))
            except OSError:
                header = b""
            if len(header) == len(_HEADER) and header.startswith(_MAGIC):
                label = f"v{int.from_bytes(header[len(_MAGIC):], 'little')}"
            else:
                label = "stale"
            counts[label] = counts.get(label, 0) + 1
        return dict(sorted(counts.items()))

    def total_bytes(self) -> int:
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def clear(self) -> int:
        """Delete every entry (and stray temp file); returns the count."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in list(self.root.glob("*.pkl")) + list(
            self.root.glob("*.tmp")
        ):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed
