"""reprolint — determinism-invariant static analysis for this repo.

The repository's headline guarantee is that every execution substrate
(tcp ≡ pool ≡ inline ≡ serial) produces bit-for-bit identical
detection tables.  The differential test suite enforces that guarantee
*dynamically* — after a nondeterminism bug has already been written.
``reprolint`` encodes the invariant classes those bugs came from as
named AST rules and checks them *statically*, before the code runs:

========  ==========================================================
RPL001    unseeded RNG construction outside tests
RPL002    unordered (set) iteration where order feeds signatures,
          shard plans, or cache keys (``repro.parallel`` /
          ``repro.faultsim``)
RPL003    dataclasses with ``init=False`` cache fields and no
          ``__getstate__`` (derived state leaking into executor
          pickles — the PR 6 ``VectorUniverse`` bug class)
RPL004    ``.exists()`` followed by an act on the same path
          (TOCTOU) inside ``repro.parallel``
RPL005    numpy ``uint64`` hazards (signed dtypes, silent float
          promotion) in the packed/PPSFP kernels
RPL006    float ``==``/``!=`` comparisons in the CI-estimator and
          stopping-rule code
RPL007    direct clock reads in ``repro.obs`` and the tcp transport
          ``repro.parallel.sched`` / ``netqueue`` (time is injected)
========  ==========================================================

Run it as ``python -m reprolint src`` (with ``tools/`` on the path).
Suppress a finding with a justified pragma on the flagged line::

    if path.exists():  # reprolint: ignore[RPL004] -- probe only, no act

The justification after ``--`` is mandatory; a bare suppression is
itself reported (RPL000).
"""

from __future__ import annotations

from reprolint.engine import Finding, lint_file, lint_paths
from reprolint.rules import ALL_RULES, Rule

__version__ = "1.0"

__all__ = [
    "ALL_RULES",
    "Finding",
    "Rule",
    "lint_file",
    "lint_paths",
]
