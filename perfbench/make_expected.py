"""Regenerate ``expected.json``: the correct output of every pool op.

Usage (from the repository root)::

    PYTHONPATH=src python perfbench/make_expected.py

Runs each op of :func:`plan.pool_ops` once in-process through
``repro.cli.main`` and stores its output's SHA-256 digest with the op's
input sizes: the circuit, ``|F|``, raw and detectable ``|G|``, and the
vector-universe size ``K``.  Run it only when a change is meant to alter
the program's output; the benchmark counts any other difference as a
failed op.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import plan


def main() -> int:
    from repro.bench_suite.registry import get_circuit
    from repro.cli import main as cli_main
    from repro.faults.bridging import four_way_bridging_faults
    from repro.faults.stuck_at import collapsed_stuck_at_faults

    expected: dict[str, dict[str, object]] = {}
    for op in plan.pool_ops():
        if op.key in expected:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli_main(list(op.argv))
        if rc != 0:
            raise SystemExit(f"{op.key!r} exited {rc}")
        text = out.getvalue()
        circuit = get_circuit(op.argv[1])
        g_match = re.search(
            r"untargeted faults \|G\|: (\d+)|(\d+) untargeted faults", text
        )
        k_match = re.search(r"vector universe: (\d+) of", text)
        assert g_match is not None
        expected[op.key] = {
            "sha256": plan.digest(text.encode("utf-8")),
            "circuit": circuit.name,
            "F": len(collapsed_stuck_at_faults(circuit)),
            "G_raw": len(four_way_bridging_faults(circuit)),
            "G": int(g_match.group(1) or g_match.group(2)),
            "K": int(k_match.group(1)) if k_match else 2**circuit.num_inputs,
        }
        print(op.key, expected[op.key]["sha256"][:12], flush=True)
    with open(plan.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
