"""Name-based access to every benchmark circuit (with caching).

``get_circuit("paper_example")`` returns the Figure 1 circuit;
``get_circuit("keyb")`` synthesizes the KISS2 source embedded in
:mod:`repro.bench_suite.mcnc` into combinational logic (primary inputs =
FSM inputs followed by state bits) and caches the result.

The ``wide*`` entries are seeded random multilevel circuits whose input
counts exceed :data:`~repro.logic.bitops.MAX_EXHAUSTIVE_INPUTS` — they
are deliberately *not* analyzable by the exhaustive engine and exist to
exercise the sampling engines (``--backend sampled --samples K``, or
``--backend adaptive``).
"""

from __future__ import annotations

from functools import lru_cache

from repro.bench_suite import example as _example
from repro.bench_suite.mcnc import MCNC_SUITE, kiss2_source
from repro.bench_suite.randlogic import random_circuit
from repro.circuit.netlist import Circuit
from repro.errors import ReproError
from repro.fsm.machine import Fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.io_formats.kiss2 import parse_kiss2

_EXAMPLES = {
    "paper_example": _example.paper_example,
    "c17": _example.c17,
    "majority3": _example.majority,
    "and_or_3": lambda: _example.and_or_example(3),
    "xor_tree_3": lambda: _example.xor_tree(3),
}

#: Wide random circuits: (seed, inputs, gates).  Inputs > 24 on purpose.
_WIDE_SPECS: dict[str, tuple[int, int, int]] = {
    "wide28": (20050428, 28, 72),
    "wide32": (20050432, 32, 96),
    "wide40": (20050440, 40, 128),
}

#: Names of the >MAX_EXHAUSTIVE_INPUTS circuits (sampled backend only).
WIDE_NAMES: tuple[str, ...] = tuple(sorted(_WIDE_SPECS))


def circuit_names() -> list[str]:
    """Every name accepted by :func:`get_circuit` (examples + suites)."""
    return sorted(_EXAMPLES) + list(MCNC_SUITE) + list(WIDE_NAMES)


@lru_cache(maxsize=None)
def get_fsm(name: str) -> Fsm:
    """The KISS2 finite-state machine behind an MCNC suite entry."""
    if name not in MCNC_SUITE:
        raise ReproError(f"no FSM named {name!r} in the suite")
    return parse_kiss2(kiss2_source(name), name=name)


@lru_cache(maxsize=None)
def get_circuit(name: str) -> Circuit:
    """Benchmark circuit by name (synthesized and cached on first use)."""
    maker = _EXAMPLES.get(name)
    if maker is not None:
        return maker()
    if name in MCNC_SUITE:
        return synthesize_fsm(get_fsm(name))
    spec = _WIDE_SPECS.get(name)
    if spec is not None:
        seed, num_inputs, num_gates = spec
        return random_circuit(
            seed, num_inputs=num_inputs, num_gates=num_gates, name=name
        )
    raise ReproError(
        f"unknown circuit {name!r}; known: {', '.join(circuit_names())}"
    )


def suite_table_groups() -> list[str]:
    """The MCNC circuit names in the paper's Table 2 order."""
    return list(MCNC_SUITE)
