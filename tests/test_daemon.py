"""The daemon host (`repro.daemon`): background hosts and the
`repro serve` / `repro broker` foreground entry points.

The entry-point tests run real subprocesses, each bounded by
:data:`DEADLINE_S` from launch to exit.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
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
def daemon(*argv: str, **env: str):
    """A ``repro`` subprocess, killed once :data:`DEADLINE_S` passes;
    ``env`` adds variables to its environment."""
    with subprocess.Popen(
        _repro(*argv),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**_env(), **env},
    ) as proc:
        watchdog = threading.Timer(DEADLINE_S, proc.kill)
        watchdog.start()
        try:
            yield proc
        finally:
            watchdog.cancel()
            proc.kill()  # a no-op once it has exited


def interrupt(proc: subprocess.Popen, sig: int = signal.SIGINT) -> str:
    """Send ``proc`` ``sig``; return the rest of its stdout once it
    exits 0."""
    proc.send_signal(sig)
    out, err = proc.communicate(timeout=DEADLINE_S)
    assert (proc.returncode, err) == (0, "")
    return out


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _pool_workers_after_a_cold_request(proc: subprocess.Popen) -> set[int]:
    """Send ``repro serve --jobs 2`` one cold pooled ``/analyze``; return
    the pids of the pool workers it forked, read from ``/proc``."""
    port = re.search(r":(\d+) ", proc.stdout.readline()).group(1)
    conn = http.client.HTTPConnection("127.0.0.1", int(port))
    conn.request("POST", "/analyze", body=json.dumps({"circuit": "lion"}))
    assert conn.getresponse().status == 200
    conn.close()
    workers = {
        int(pid)
        for children in Path(f"/proc/{proc.pid}/task").glob("*/children")
        for pid in children.read_text().split()
    }
    assert len(workers) == 2
    return workers


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

    @pytest.mark.parametrize(
        "sig", [signal.SIGINT, signal.SIGTERM], ids=["sigint", "sigterm"]
    )
    def test_serve_leaves_no_pool_worker_running(self, sig, tmp_path):
        # A cold pooled request forks the service's pool; SIGINT and
        # SIGTERM must each shut its workers down before the server
        # exits 0.
        with daemon(
            "serve", "--port", "0", "--jobs", "2",
            REPRO_CACHE_DIR=str(tmp_path),
        ) as proc:
            workers = _pool_workers_after_a_cold_request(proc)
            assert interrupt(proc, sig) == "repro serve: shutting down\n"
        assert not [pid for pid in workers if _running(pid)]

    def test_pool_workers_exit_after_their_server_is_killed(self, tmp_path):
        # SIGKILL runs no shutdown; the workers notice their parent is
        # gone (they poll once a second) and exit on their own.
        with daemon(
            "serve", "--port", "0", "--jobs", "2",
            REPRO_CACHE_DIR=str(tmp_path),
        ) as proc:
            workers = _pool_workers_after_a_cold_request(proc)
            proc.kill()
            proc.wait(timeout=DEADLINE_S)
        deadline = time.monotonic() + DEADLINE_S
        while [pid for pid in workers if _running(pid)]:
            assert time.monotonic() < deadline, "pool workers outlived"
            time.sleep(0.05)

    def test_sigterm_to_a_pool_worker_leaves_its_server_running(
        self, tmp_path
    ):
        # A worker forked under the server's SIGTERM handler must not
        # forward its own SIGTERM to the server's loop.
        with daemon(
            "serve", "--port", "0", "--jobs", "2",
            REPRO_CACHE_DIR=str(tmp_path),
        ) as proc:
            worker = min(_pool_workers_after_a_cold_request(proc))
            os.kill(worker, signal.SIGTERM)
            deadline = time.monotonic() + 1.0
            while _running(worker):
                assert time.monotonic() < deadline, "worker ignored SIGTERM"
                time.sleep(0.05)
            time.sleep(0.2)  # time for a forwarded signal to land
            assert proc.poll() is None
            assert interrupt(proc) == "repro serve: shutting down\n"

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
