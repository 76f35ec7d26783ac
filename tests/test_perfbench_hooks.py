"""The benchmark's layer hooks still name real functions and methods.

``perfbench/layers.py`` times the program from outside by wrapping the
dotted paths in its ``TARGETS`` table.  Moving or renaming one of those
functions would only break the benchmark's traced phase; this test runs
the same lookup ``layers.install`` does, so the break shows up here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

sys.path.insert(0, PERFBENCH)
try:
    import layers
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("target", [entry[0] for entry in layers.TARGETS])
def test_target_resolves_like_install(target):
    owner, name = layers._resolve(target)
    assert callable(owner.__dict__[name])


def test_table_backend_aliases_share_one_set_of_methods():
    from repro.faultsim.backends import TableBackend

    for alias in ("ExhaustiveBackend", "FixedUniverseBackend"):
        owner, _ = layers._resolve(
            f"repro.faultsim.backends.{alias}.build_stuck_at"
        )
        assert owner is TableBackend
