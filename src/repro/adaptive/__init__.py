"""Adaptive sampling: grow ``K`` until the estimates are certified.

The sampled backends of :mod:`repro.faultsim` estimate ``N(f)`` and
``nmin`` from a *fixed* ``K``-vector draw; this package closes the loop
on choosing ``K``:

``controller``
    :class:`AdaptiveSampler` / :class:`StoppingRule` — seeded rounds of
    incremental universe growth (old vectors are never re-simulated:
    each round's numpy-packed delta columns are spliced into the
    accumulated blocks, and the delta build can shard across worker
    processes) until the confidence
    intervals of the ``k``-smallest ``N(f)`` estimates meet a target
    half-width or the budget runs out; returns an
    :class:`AdaptiveReport` with the per-round trajectory.
``strata``
    :class:`StrataPlan` / :class:`StratifiedVectorUniverse` — a
    partition of ``U`` by rare bridging-fault activation predicates
    (exact populations from enumerated support cones), per-stratum
    Neyman sample allocation, and finite-population-corrected
    estimators that recombine into unbiased ``N(f)`` estimates.
``backend``
    :class:`AdaptiveBackend` — the controller behind the standard
    :class:`~repro.faultsim.backends.DetectionBackend` protocol (CLI:
    ``--backend adaptive --target-halfwidth H [--stratify bridging]``).

Entry points: ``repro analyze CIRCUIT --backend adaptive``,
``make_backend("adaptive", ...)``, ``FaultUniverse(circuit,
backend=AdaptiveBackend(...))``, and ``REPRO_BACKEND=adaptive`` in the
experiment harness.
"""

from repro.adaptive.backend import AdaptiveBackend
from repro.adaptive.controller import (
    DEFAULT_RULE,
    STRATIFY_SCHEMES,
    AdaptiveReport,
    AdaptiveRound,
    AdaptiveSampler,
    FocusEstimate,
    StoppingRule,
)
from repro.adaptive.strata import (
    ActivationPredicate,
    StrataPlan,
    StratifiedVectorUniverse,
    Stratum,
    build_bridging_strata,
    neyman_allocation,
    stratified_interval,
)

__all__ = [
    "AdaptiveBackend",
    "DEFAULT_RULE",
    "STRATIFY_SCHEMES",
    "AdaptiveReport",
    "AdaptiveRound",
    "AdaptiveSampler",
    "FocusEstimate",
    "StoppingRule",
    "ActivationPredicate",
    "StrataPlan",
    "StratifiedVectorUniverse",
    "Stratum",
    "build_bridging_strata",
    "neyman_allocation",
    "stratified_interval",
]
