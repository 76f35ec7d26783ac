"""The daemon host (`repro.daemon`): background hosts and the
`repro serve` / `repro broker` foreground entry points.

The entry-point tests run real subprocesses, each bounded by
:data:`DEADLINE_S` from launch to exit.
"""

from __future__ import annotations

import contextlib
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import AnalysisError
from repro.parallel.netqueue import BackgroundBroker, Broker
from repro.serve import BackgroundServer

SRC = Path(__file__).resolve().parents[1] / "src"

#: Seconds an entry-point subprocess may live, launch to exit.
DEADLINE_S = 5.0

#: ``python -m repro`` with Python's SIGINT handler installed even when
#: the test runner was started with SIGINT ignored (a background shell
#: job), so the SIGINT the tests send always reaches the daemon.
LAUNCH = (
    "import runpy, signal; "
    "signal.signal(signal.SIGINT, signal.default_int_handler); "
    "runpy.run_module('repro', run_name='__main__', alter_sys=True)"
)

HOSTS = {
    "serve": lambda port=0: BackgroundServer(port=port),
    "broker": lambda port=0: BackgroundBroker(Broker(port=port)),
}


def _env() -> dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_BROKER", "REPRO_EXECUTOR", "REPRO_JOBS")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def _repro(*argv: str) -> list[str]:
    return [sys.executable, "-c", LAUNCH, *argv]


@contextlib.contextmanager
def daemon(*argv: str):
    """A ``repro`` subprocess, killed once :data:`DEADLINE_S` passes."""
    with subprocess.Popen(
        _repro(*argv),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    ) as proc:
        watchdog = threading.Timer(DEADLINE_S, proc.kill)
        watchdog.start()
        try:
            yield proc
        finally:
            watchdog.cancel()
            proc.kill()  # a no-op once it has exited


def interrupt(proc: subprocess.Popen) -> str:
    """SIGINT ``proc``; return the rest of its stdout once it exits 0."""
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=DEADLINE_S)
    assert (proc.returncode, err) == (0, "")
    return out


@pytest.mark.parametrize("kind", sorted(HOSTS))
class TestBackgroundHost:
    def test_second_stop_is_a_noop(self, kind):
        HOSTS[kind]().stop()  # never started
        host = HOSTS[kind]().start()
        assert host.port > 0
        host.stop()
        host.stop()

    def test_start_on_a_bound_port_fails(self, kind):
        with HOSTS[kind]() as running:
            clash = HOSTS[kind](running.port)
            with pytest.raises(
                AnalysisError, match=f"repro {kind} failed to start"
            ):
                clash.start()
            clash.stop()

    def test_call_runs_on_the_loop_until_stopped(self, kind):
        host = HOSTS[kind]().start()

        async def loop_thread() -> str:
            return threading.current_thread().name

        assert host.call(loop_thread()) == f"repro-{kind}"
        host.stop()

        async def unused() -> None:
            raise AssertionError("never awaited")

        with pytest.raises(
            AnalysisError, match=f"repro {kind} is not running"
        ):
            host.call(unused())


class TestForeground:
    @pytest.mark.parametrize("name, ready", [
        ("serve", r"repro serve listening on http://127\.0\.0\.1:\d+ "
                  r"\(hot tier: \d+ tables\)"),
        ("broker", r"repro broker listening on 127\.0\.0\.1:\d+ "
                   r"\(steal=on\)"),
    ], ids=["serve", "broker"])
    def test_ready_line_then_clean_sigint_exit(self, name, ready):
        with daemon(name, "--port", "0") as proc:
            assert re.fullmatch(ready + "\n", proc.stdout.readline())
            assert interrupt(proc) == f"repro {name}: shutting down\n"

    def test_embedded_broker_answers_queue_info(self):
        with daemon("serve", "--port", "0", "--broker-port", "0") as proc:
            embedded = re.fullmatch(
                r"repro serve: embedded broker on (127\.0\.0\.1:\d+) "
                r"\(attach workers with `repro worker --broker \1`\)\n",
                proc.stdout.readline(),
            )
            assert embedded is not None
            assert proc.stdout.readline().startswith(
                "repro serve listening on http://127.0.0.1:"
            )
            info = subprocess.run(
                _repro("queue", "info", "--broker", embedded.group(1)),
                capture_output=True, text=True, env=_env(),
                timeout=DEADLINE_S,
            )
            assert info.returncode == 0, info.stderr
            assert info.stdout.startswith(
                f"broker: {embedded.group(1)} (steal=on)\n"
            )
            assert interrupt(proc) == "repro serve: shutting down\n"

    @pytest.mark.parametrize("setting, error", [
        (("--broker", "h:1"), "--broker only applies to --executor tcp"),
        (("--jobs", "0"), "--jobs must be >= 1, got 0"),
        (("--executor", "tcp"), "the tcp executor needs a broker address"),
        (("--broker-port", "0", "--executor", "pool"),
         "--broker-port embeds the broker of --executor tcp: it takes no "
         "--broker and no other --executor"),
    ], ids=["broker-without-tcp", "jobs-zero", "tcp-without-broker",
            "broker-port-with-pool"])
    def test_serve_rejects_a_bad_execution_setting_before_binding(
        self, setting, error
    ):
        # At start-up, in the CLI's spelling: not on every request,
        # naming payload keys the client never sent.
        with daemon("serve", "--port", "0", *setting) as proc:
            out, err = proc.communicate(timeout=DEADLINE_S)
        assert (proc.returncode, out) == (2, "")
        assert err.startswith(f"error: {error}")
        assert err.count("\n") == 1

    def test_bind_failure_is_an_error_line(self):
        with BackgroundBroker() as running:
            with daemon("broker", "--port", str(running.port)) as proc:
                out, err = proc.communicate(timeout=DEADLINE_S)
        assert (proc.returncode, out) == (2, "")
        assert err.startswith("error: repro broker failed to start: ")
        assert err.count("\n") == 1
