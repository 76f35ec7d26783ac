"""Golden bytes of `repro analyze` on adaptive paths.

`perfbench/expected.json` pins the stratified `--max-samples 512`
trajectories of the benchmark.  These digests pin the other ways an
adaptive run ends: a uniform run that exhausts its budget, uniform and
stratified runs that complete the universe exactly, and a stratified
run that meets its target.  Any change to a round's draws, splice,
intervals, allocation or stopping decision changes the report bytes.
The header names the executor, so each case clears the execution
variables of the caller's environment.
"""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from repro import cli

GOLDEN = {
    "wide28 --backend adaptive --seed 1 --max-samples 512":
        "1a0622539d11b1441998c84918aa981f27a1bf3a283fbaa9afc71e372511ce86",
    "bbara --backend adaptive --seed 1":
        "4685dce48fb266d83c720ff5f1e1417938c062d5103415971520e57eb2d0b329",
    "bbara --backend adaptive --stratify bridging --seed 1":
        "6da8747a70c9f668194f18e9b9f400429c8e3f8647e462a91933dbe2cee00b81",
    "wide28 --backend adaptive --stratify bridging --target-halfwidth 0.5 "
    "--initial-samples 32 --max-samples 1024 --seed 7":
        "eec2fdf514242c729fd2d57aca3149b0421fd4896ca879de1dc056dfd9c23ade",
}

#: The stopping reason each golden run must end with.
REASONS = {
    "wide28 --backend adaptive --seed 1 --max-samples 512":
        "sample budget exhausted",
    "bbara --backend adaptive --seed 1": "exact (universe exhausted)",
    "bbara --backend adaptive --stratify bridging --seed 1":
        "exact (universe exhausted)",
    "wide28 --backend adaptive --stratify bridging --target-halfwidth 0.5 "
    "--initial-samples 32 --max-samples 1024 --seed 7": "target met",
}


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_analyze_report_bytes(args, monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["analyze", *args.split()])
    assert code == 0
    report = buffer.getvalue()
    assert f"{REASONS[args]}:" in report
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == GOLDEN[args], report
