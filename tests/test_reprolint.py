"""reprolint: per-rule fixture pairs, suppressions, and the HEAD self-check.

Each rule gets a *flag* fixture (a distilled version of the historical
bug it protects against — the pre-PR-6 pickle leak, the pre-fix
``WorkQueue.enqueue`` probe windows) and an *ok* fixture (the repaired
idiom).  Fixture trees embed an ``src/repro/...`` layout so the engine
scopes them exactly like the real tree.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TOOLS = REPO / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from reprolint import ALL_RULES, lint_file, lint_paths  # noqa: E402
from reprolint.engine import (  # noqa: E402
    MISSING_JUSTIFICATION,
    module_parts,
)

FIXTURES = REPO / "tests" / "fixtures" / "reprolint"
FLAG = FIXTURES / "flag" / "src"
OK = FIXTURES / "ok" / "src"

#: rule code -> (flag fixture, ok fixture), repo-relative under the trees
PAIRS = {
    "RPL001": ("repro/seeding.py", "repro/seeding.py"),
    "RPL002": (
        "repro/parallel/ordering.py",
        "repro/parallel/ordering.py",
    ),
    "RPL003": (
        "repro/faultsim/sampling_universe.py",
        "repro/faultsim/sampling_universe.py",
    ),
    "RPL004": (
        "repro/parallel/queue_probe.py",
        "repro/parallel/queue_probe.py",
    ),
    "RPL005": ("repro/logic/packed.py", "repro/logic/packed.py"),
    "RPL006": ("repro/adaptive/stopping.py", "repro/adaptive/stopping.py"),
    "RPL007": ("repro/obs/span_timing.py", "repro/obs/span_timing.py"),
}

#: rule code -> (flag fixture, ok fixture) for the ``repro.serve`` tree.
#: Kept separate from PAIRS (one canonical pair per rule); these pin the
#: service-scoping added when ``repro serve`` landed.
SERVE_PAIRS = {
    "RPL001": ("repro/serve/jitter.py", "repro/serve/jitter.py"),
    "RPL002": ("repro/serve/hub_order.py", "repro/serve/hub_order.py"),
    "RPL004": ("repro/serve/cache_spill.py", "repro/serve/cache_spill.py"),
}

#: minimum finding count the serve flag fixture must produce, per rule
SERVE_MIN_FINDINGS = {
    "RPL001": 2,  # random.Random() and np.random.default_rng()
    "RPL002": 3,  # for-loop, list() call, comprehension over a union
    "RPL004": 2,  # probed-read and probed-write windows
}

#: rule code -> (flag fixture, ok fixture) for the TCP transport.
#: Distilled from the ``repro.parallel.netqueue`` hazards: hash-ordered
#: broker dispatch/steal decisions (RPL002) and probe-then-act on the
#: shard cache two workers share after a steal (RPL004).
NETQUEUE_PAIRS = {
    "RPL002": (
        "repro/parallel/broker_order.py",
        "repro/parallel/broker_order.py",
    ),
    "RPL004": (
        "repro/parallel/worker_cache_probe.py",
        "repro/parallel/worker_cache_probe.py",
    ),
}

#: minimum finding count the netqueue flag fixture must produce, per rule
NETQUEUE_MIN_FINDINGS = {
    "RPL002": 3,  # set comprehension source, dict for-loop, set for-loop
    "RPL004": 2,  # probed-read and probed-write windows
}

#: minimum finding count the flag fixture must produce, per rule
MIN_FINDINGS = {
    "RPL001": 2,  # random.Random() and np.random.default_rng()
    "RPL002": 3,  # for-loop, list() call, comprehension source
    "RPL003": 1,
    "RPL004": 2,  # probed-unlink and probed-write windows
    "RPL005": 5,  # /, **, astype(int64), view("int64"), -uint64, +int
    "RPL006": 2,  # == 0.0 and != 0.95
    "RPL007": 4,  # time.monotonic(), time.time(), bare monotonic(), pc()
}


class TestRulePairs:
    @pytest.mark.parametrize("code", sorted(PAIRS))
    def test_flag_fixture_is_flagged(self, code):
        flag_path = FLAG / PAIRS[code][0]
        findings = lint_file(flag_path, select=[code])
        assert findings, f"{code}: flag fixture produced no findings"
        assert all(f.rule == code for f in findings)
        assert len(findings) >= MIN_FINDINGS[code], [
            f.render() for f in findings
        ]

    @pytest.mark.parametrize("code", sorted(PAIRS))
    def test_ok_fixture_is_clean(self, code):
        ok_path = OK / PAIRS[code][1]
        findings = lint_file(ok_path, select=[code])
        assert findings == [], [f.render() for f in findings]

    def test_every_rule_has_a_pair(self):
        assert sorted(PAIRS) == sorted(r.code for r in ALL_RULES)


class TestServePairs:
    """The analysis service is in scope for the determinism rules.

    ``repro.serve`` renders byte-diffed documents (RPL002), shares the
    shard cache / queue directories with ``repro worker`` processes
    (RPL004), and must never jitter from OS entropy (RPL001).
    """

    @pytest.mark.parametrize("code", sorted(SERVE_PAIRS))
    def test_flag_fixture_is_flagged(self, code):
        flag_path = FLAG / SERVE_PAIRS[code][0]
        findings = lint_file(flag_path, select=[code])
        assert findings, f"{code}: serve flag fixture produced no findings"
        assert all(f.rule == code for f in findings)
        assert len(findings) >= SERVE_MIN_FINDINGS[code], [
            f.render() for f in findings
        ]

    @pytest.mark.parametrize("code", sorted(SERVE_PAIRS))
    def test_ok_fixture_is_clean(self, code):
        ok_path = OK / SERVE_PAIRS[code][1]
        findings = lint_file(ok_path, select=[code])
        assert findings == [], [f.render() for f in findings]

    def test_serve_tree_is_in_scope_for_order_and_toctou_rules(self):
        by_code = {r.code: r for r in ALL_RULES}
        serve_parts = ("repro", "serve", "service")
        assert by_code["RPL002"].applies_to(serve_parts)
        assert by_code["RPL004"].applies_to(serve_parts)

    def test_serve_tree_stays_out_of_scope_for_kernel_rules(self):
        # The uint64 lane rule has nothing to say about the service; the
        # RPL002-rotten fixture must come back clean under it.
        findings = lint_file(
            FLAG / "repro/serve/hub_order.py", select=["RPL005"]
        )
        assert findings == []


class TestNetqueuePairs:
    """The TCP transport is in scope for the determinism rules.

    ``repro.parallel.netqueue`` decides who builds what (dispatch order,
    steal victims — RPL002) and shares the content-addressed shard
    cache across workers that may double-complete a stolen shard
    (RPL004).
    """

    @pytest.mark.parametrize("code", sorted(NETQUEUE_PAIRS))
    def test_flag_fixture_is_flagged(self, code):
        flag_path = FLAG / NETQUEUE_PAIRS[code][0]
        findings = lint_file(flag_path, select=[code])
        assert findings, f"{code}: netqueue flag fixture produced no findings"
        assert all(f.rule == code for f in findings)
        assert len(findings) >= NETQUEUE_MIN_FINDINGS[code], [
            f.render() for f in findings
        ]

    @pytest.mark.parametrize("code", sorted(NETQUEUE_PAIRS))
    def test_ok_fixture_is_clean(self, code):
        ok_path = OK / NETQUEUE_PAIRS[code][1]
        findings = lint_file(ok_path, select=[code])
        assert findings == [], [f.render() for f in findings]

    def test_netqueue_module_is_in_scope_for_order_and_toctou_rules(self):
        by_code = {r.code: r for r in ALL_RULES}
        netqueue_parts = ("repro", "parallel", "netqueue")
        assert by_code["RPL002"].applies_to(netqueue_parts)
        assert by_code["RPL004"].applies_to(netqueue_parts)


class TestScoping:
    def test_module_parts_strips_through_last_src(self):
        parts = module_parts(
            Path("tests/fixtures/reprolint/flag/src/repro/parallel/x.py")
        )
        assert parts == ("repro", "parallel", "x")
        assert module_parts(Path("src/repro/logic/packed.py")) == (
            "repro",
            "logic",
            "packed",
        )

    def test_tests_modules_are_exempt_from_rng_rule(self):
        findings = lint_file(
            OK / "tests" / "entropy_ok.py", select=["RPL001"]
        )
        assert findings == []

    def test_obs_clock_module_is_exempt_from_clock_rule(self):
        # repro.obs.clock is the single audited time call site; every
        # other repro.obs module is in scope.
        by_code = {r.code: r for r in ALL_RULES}
        assert not by_code["RPL007"].applies_to(("repro", "obs", "clock"))
        assert by_code["RPL007"].applies_to(("repro", "obs", "tracer"))
        assert not by_code["RPL007"].applies_to(("repro", "serve", "http"))

    def test_clock_rule_covers_the_broker_scheduler(self, tmp_path):
        # The scheduler takes ``now`` from its caller; a clock read there
        # would put wall time back into its lease and steal decisions.
        by_code = {r.code: r for r in ALL_RULES}
        assert by_code["RPL007"].applies_to(("repro", "parallel", "sched"))
        assert not by_code["RPL007"].applies_to(
            ("repro", "parallel", "backend")
        )
        module = tmp_path / "src" / "repro" / "parallel" / "sched.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "import time\n\n\ndef tick(sched):\n"
            "    return sched.tick(time.monotonic())\n"
        )
        findings = lint_file(module, select=["RPL007"])
        assert [(f.rule, f.line) for f in findings] == [("RPL007", 5)]

    def test_clock_rule_covers_the_tcp_clients(self, tmp_path):
        # The socket adapter reads time through obs.system_clock() only,
        # so a ManualClock reaches the stall and idle deadlines it feeds
        # the client machines.
        by_code = {r.code: r for r in ALL_RULES}
        assert by_code["RPL007"].applies_to(
            ("repro", "parallel", "netqueue")
        )
        module = tmp_path / "src" / "repro" / "parallel" / "netqueue.py"
        module.parent.mkdir(parents=True)
        module.write_text(
            "import time\n\nfrom repro import obs\n\n\n"
            "def idle(machine):\n"
            "    return machine.idle_expired(time.monotonic())\n\n\n"
            "def idle_ok(machine):\n"
            "    return machine.idle_expired(obs.system_clock().monotonic())\n"
            "\n\n_sleep = time.sleep\n"
        )
        findings = lint_file(module, select=["RPL007"])
        assert [(f.rule, f.line) for f in findings] == [("RPL007", 7)]

    def test_scoped_rule_ignores_out_of_scope_modules(self):
        # The RPL004 flag fixture is rotten with probe windows, but the
        # rule only applies under repro.parallel — select a rule scoped
        # elsewhere and the same file must come back clean.
        findings = lint_file(
            FLAG / "repro/parallel/queue_probe.py", select=["RPL005"]
        )
        assert findings == []


class TestInheritance:
    def test_getstate_inherited_across_files(self):
        # StratifiedVectorUniverse (no own __getstate__) inherits the
        # dropper from VectorUniverse defined in a sibling file; linted
        # together, the project index resolves the base class.
        findings = lint_paths(
            [OK / "repro" / "faultsim"], select=["RPL003"]
        )
        assert findings == [], [f.render() for f in findings]

    def test_subclass_alone_is_flagged(self):
        # Linted in isolation the base class is invisible, so the
        # subclass's init=False cache has no visible dropper.
        findings = lint_file(
            OK / "repro" / "faultsim" / "stratified.py", select=["RPL003"]
        )
        assert len(findings) == 1
        assert "StratifiedVectorUniverse" in findings[0].message


class TestSuppressions:
    def test_justified_pragma_suppresses(self):
        findings = lint_file(OK / "repro" / "adaptive" / "suppressed.py")
        assert findings == [], [f.render() for f in findings]

    def test_bare_pragma_reports_rpl000_and_does_not_suppress(self):
        findings = lint_file(FLAG / "repro" / "adaptive" / "bad_pragma.py")
        codes = sorted(f.rule for f in findings)
        assert MISSING_JUSTIFICATION in codes
        assert "RPL006" in codes

    def test_unknown_rule_code_rejected(self):
        with pytest.raises(ValueError, match="RPL999"):
            lint_paths([OK], select=["RPL999"])


class TestSelfCheck:
    def test_src_is_clean_at_head(self):
        """The determinism invariants hold on the real tree, by fiat."""
        findings = lint_paths([REPO / "src"])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_rule_catalog_is_complete(self):
        codes = [r.code for r in ALL_RULES]
        assert len(codes) == len(set(codes))
        assert len(codes) >= 6
        for rule in ALL_RULES:
            assert rule.code.startswith("RPL")
            assert rule.description

    def test_cli_reports_findings_with_exit_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "reprolint", str(FLAG)],
            env={"PYTHONPATH": str(TOOLS), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            cwd=str(REPO),
        )
        assert proc.returncode == 1
        assert "RPL004" in proc.stdout

    def test_cli_clean_run_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "reprolint", "src"],
            env={"PYTHONPATH": str(TOOLS), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            cwd=str(REPO),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == ""
