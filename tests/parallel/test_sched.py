"""The tcp transport's policies, driven with explicit ``now`` values.

:class:`~repro.parallel.sched.Scheduler` holds the broker's whole
policy, and :class:`~repro.parallel.sched.SubmitterMachine` and
:class:`~repro.parallel.sched.WorkerMachine` the two clients', with no
sockets and no clock: lease ages, stale heartbeats, steals, stall and
idle deadlines and reconnect delays are set by the ``now`` each event
carries instead of by sleeping.  Peers are plain strings.  The
transitions are pinned case by case first; a hypothesis state machine
then checks the invariants over random interleavings of every event,
with submitter machines reading the scheduler's replies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.bench_suite.registry import get_circuit
from repro.errors import AnalysisError
from repro.faults.stuck_at import StuckAtFaults
from repro.faultsim.backends import TableBackend
from repro.parallel import ShardTask
from repro.parallel.sched import (
    MAX_BUILDERS,
    POLL_INTERVAL,
    Scheduler,
    SubmitterMachine,
    WorkerMachine,
)

TASK = ShardTask(
    circuit=get_circuit("paper_example"),
    backend=TableBackend(),
    kind="stuck_at",
    faults=StuckAtFaults.of([]),
    shard_index=0,
)


def submit(sched, peer, *keys, now=0.0, max_attempts=None):
    shards = [
        {"key": key, "task": TASK, "shard_index": i, "max_attempts": max_attempts}
        for i, key in enumerate(keys)
    ]
    return sched.submit(peer, {"op": "submit", "shards": shards}, now)


def register(sched, peer, worker, now=0.0):
    return sched.register(peer, {"op": "register", "worker": worker}, now)


def done(sched, peer, key, words=b"rows", now=0.0):
    return sched.done(peer, {"op": "done", "key": key, "words": words}, now)


def sent(actions, op):
    """``(peer, frame)`` pairs of one frame type, in send order."""
    return [(peer, frame) for peer, frame in actions.sends if frame["op"] == op]


def builds(actions):
    return [(peer, frame["key"]) for peer, frame in sent(actions, "build")]


class TestDispatch:
    def test_fifo_to_idle_workers_in_sorted_order(self):
        sched = Scheduler()
        register(sched, "pb", "b")
        register(sched, "pa", "a")
        out = submit(sched, "s", "k1", "k2", "k3")
        assert builds(out) == [("pa", "k1"), ("pb", "k2")]
        assert sched.stats(0.0)["pending"] == ["k3"]
        out = done(sched, "pb", "k2")
        assert sent(out, "result") == [(
            "s",
            {"op": "result", "key": "k2", "words": b"rows",
             "worker": "b", "stolen": False},
        )]
        assert builds(out) == [("pb", "k3")]

    def test_resubmission_is_answered_from_results(self):
        sched = Scheduler()
        register(sched, "pa", "a")
        submit(sched, "s", "k")
        done(sched, "pa", "k")
        out = submit(sched, "t", "k")
        assert sent(out, "result") == [(
            "t",
            {"op": "result", "key": "k", "words": b"rows",
             "worker": None, "stolen": False},
        )]
        assert builds(out) == []
        assert sched.counters["completed"] == 1

    def test_rejected_submit_queues_nothing(self):
        """A batch with one bad spec is refused whole: none of its
        valid prefix is left queued to be built for no one."""
        sched = Scheduler()
        sched.submit(
            "s",
            {"op": "submit", "shards": [
                {"key": "k-valid", "task": TASK}, "not a task",
            ]},
            0.0,
        )
        out = register(sched, "pa", "a")
        assert builds(out) == []
        stats = sched.stats(0.0)
        assert stats["pending"] == []
        assert stats["counters"]["submitted"] == 0

    @pytest.mark.parametrize(
        "message, error",
        [
            ({"op": "submit"}, "submit needs a shard list"),
            ({"op": "submit", "shards": [{"key": "k"}]}, "ShardTask"),
        ],
    )
    def test_malformed_submit_rejected(self, message, error):
        out = Scheduler().submit("s", message, 0.0)
        [(peer, frame)] = out.sends
        assert peer == "s" and frame["op"] == "rejected"
        assert error in frame["error"]

    def test_register_needs_a_worker_id(self):
        out = Scheduler().register("p", {"op": "register"}, 0.0)
        assert sent(out, "rejected") == [
            ("p", {"op": "rejected", "error": "register needs a worker id"})
        ]

    def test_bad_timings_rejected(self):
        with pytest.raises(AnalysisError, match="steal_after"):
            Scheduler(steal_after=0.0)
        with pytest.raises(AnalysisError, match="lease_timeout"):
            Scheduler(lease_timeout=0.0)


class TestSteal:
    def test_stale_lease_is_duplicated_and_first_done_wins(self):
        sched = Scheduler(steal_after=1.0)
        register(sched, "pa", "a-slow")
        submit(sched, "s", "k")
        register(sched, "pb", "b-fast", now=0.5)
        assert builds(sched.tick(0.9)) == []  # lease 0.9 s old: not yet
        out = sched.tick(1.0)
        assert builds(out) == [("pb", "k")]
        assert sent(out, "build")[0][1]["stolen"] is True
        assert sched.counters["steals"] == 1
        out = done(sched, "pb", "k", now=1.1)
        assert sent(out, "result")[0][1]["stolen"] is True
        assert sched.counters["steal_completions"] == 1
        # The straggler's late done is a duplicate: counted, discarded.
        out = done(sched, "pa", "k", now=3.0)
        assert out.sends == []
        assert sched.counters["duplicates"] == 1
        assert sched.stats(3.0)["workers"] == [
            {"worker": "a-slow", "current": None},
            {"worker": "b-fast", "current": None},
        ]

    def test_steal_disabled_waits_for_straggler(self):
        sched = Scheduler(steal=False, steal_after=0.1)
        register(sched, "pa", "a-slow")
        submit(sched, "s", "k")
        register(sched, "pb", "b-fast", now=0.3)
        for now in (1.0, 5.0, 20.0):
            sched.beat("pa", now)
            assert builds(sched.tick(now)) == []
        out = done(sched, "pa", "k", now=20.0)
        assert sent(out, "result")[0][0] == "s"
        assert sched.counters["steals"] == 0

    def test_victim_is_the_stalest_lease(self):
        sched = Scheduler(steal_after=1.0)
        register(sched, "pa", "a")
        register(sched, "pb", "b")
        submit(sched, "s", "k-b", now=0.0)  # to a, leased at 0.0
        submit(sched, "s", "k-a", now=0.5)  # to b, leased at 0.5
        out = register(sched, "pc", "c", now=2.0)
        assert builds(out) == [("pc", "k-b")]  # stalest, not smallest

    def test_equal_leases_break_ties_on_the_smaller_key(self):
        sched = Scheduler(steal_after=1.0)
        register(sched, "pa", "a")
        register(sched, "pb", "b")
        submit(sched, "s", "k-b", "k-a")
        out = register(sched, "pc", "c", now=2.0)
        assert builds(out) == [("pc", "k-a")]

    def test_failed_duplicate_keeps_the_original_lease(self):
        """A thief's failed build costs no attempt while the original
        builder still holds the key."""
        sched = Scheduler(steal_after=1.0)
        register(sched, "pa", "a")
        submit(sched, "s", "k")
        register(sched, "pb", "b", now=1.0)  # steals k at once
        sched.error("pb", {"op": "error", "key": "k", "error": "x"}, 1.5)
        assert sched.counters["requeues"] == 0
        [entry] = sched.stats(1.5)["building"]
        assert entry["attempts"] == 0
        # a keeps its lease (b, idle again, may well steal once more).
        assert entry["builders"][0] == {"worker": "a", "age_s": 1.5}

    def test_builders_per_key_are_bounded(self):
        sched = Scheduler(steal_after=0.1)
        for index in range(MAX_BUILDERS + 2):
            register(sched, f"p{index}", f"w{index}")
        submit(sched, "s", "k")
        sched.tick(1.0)
        [entry] = sched.stats(1.0)["building"]
        assert len(entry["builders"]) == MAX_BUILDERS


class TestLeases:
    def test_stale_heartbeat_closes_the_worker_and_requeues(self):
        sched = Scheduler(steal=False, lease_timeout=1.0)
        register(sched, "pa", "a")
        submit(sched, "s", "k")
        register(sched, "pidle", "idle")
        sched.beat("pa", 0.8)
        assert sched.tick(1.5).closes == []  # last beat 0.7 s ago
        out = sched.tick(2.0)
        assert out.closes == ["pa"]
        # The lease is requeued to the idle worker, whose own beat is
        # just as old: an idle worker holds no lease to lose.
        assert builds(out) == [("pidle", "k")]
        assert sched.stats(2.0)["workers"] == [
            {"worker": "idle", "current": "k"}
        ]
        assert sched.counters["requeues"] == 1

    def test_lost_worker_requeues_then_parks(self):
        sched = Scheduler()
        register(sched, "pa", "a")
        submit(sched, "s", "k", max_attempts=3)
        out = sched.error(
            "pa", {"op": "error", "key": "k", "error": "boom"}, 1.0
        )
        [(peer, frame)] = sent(out, "build")  # a is idle again: retried
        assert (peer, frame["attempts"]) == ("pa", 1)
        out = sched.disconnect("pa", 2.0)
        assert out.sends == []  # requeued, no one left to build it
        assert sched.stats(2.0)["pending"] == ["k"]
        out = register(sched, "pb", "b", now=3.0)
        [(peer, frame)] = sent(out, "build")
        assert (peer, frame["attempts"]) == ("pb", 2)
        out = sched.disconnect("pb", 4.0)
        [(peer, frame)] = sent(out, "failed")
        assert peer == "s"
        assert frame["error"] == (
            "attempt 3: worker b lost mid-shard (connection lost)"
        )
        stats = sched.stats(4.0)
        assert stats["pending"] == [] and stats["building"] == []
        assert stats["failed"] == [{"key": "k", "error": frame["error"]}]
        assert stats["counters"]["requeues"] == 2
        assert stats["counters"]["parked"] == 1

    def test_reconnect_supersedes_old_connection(self):
        sched = Scheduler()
        register(sched, "first", "w")
        submit(sched, "s", "k")
        out = register(sched, "second", "w", now=1.0)
        # The dead connection's lease is released and re-dispatched to
        # the fresh registration at once.
        [(peer, frame)] = sent(out, "build")
        assert (peer, frame["attempts"]) == ("second", 1)
        # The old connection's teardown must not deregister its
        # successor under the same id.
        assert sched.disconnect("first", 2.0).sends == []
        assert sched.stats(2.0)["workers"] == [
            {"worker": "w", "current": "k"}
        ]
        assert sched.counters["workers_registered"] == 2
        # Every teardown is counted, superseded or not.
        assert sched.counters["disconnects"] == 1
        out = done(sched, "second", "k", now=3.0)
        assert sent(out, "result")[0][1]["worker"] == "w"

    def test_malformed_done_releases_builder_slot(self):
        """A 'done' whose words are not bytes frees the builder slot and
        requeues the shard (one attempt charged each), not a ghost lease."""
        sched = Scheduler()
        register(sched, "pa", "clumsy")
        out = submit(sched, "s", "k")
        assert sent(out, "build")[0][1]["attempts"] == 0
        for attempt, bad in enumerate((None, [1, 2]), start=1):
            out = done(sched, "pa", "k", words=bad)
            [(peer, frame)] = sent(out, "build")
            assert (peer, frame["attempts"]) == ("pa", attempt)
        out = done(sched, "pa", "k")
        assert sent(out, "result")[0][1]["words"] == b"rows"
        assert sched.counters["duplicates"] == 2
        assert sched.counters["requeues"] == 2

    def test_stray_error_charges_nothing(self):
        """An error for a key the worker does not hold costs no attempt."""
        sched = Scheduler()
        register(sched, "pa", "a")
        submit(sched, "s", "k1", "k2")
        sched.error("pa", {"op": "error", "key": "k2", "error": "x"}, 1.0)
        assert sched.counters["requeues"] == 0
        assert sched.stats(1.0)["pending"] == ["k2"]


class TestWaiters:
    def test_clear_fails_the_waiters(self):
        sched = Scheduler()
        register(sched, "pa", "a")
        submit(sched, "s", "k1", "k2")
        submit(sched, "t", "k2")
        removed, out = sched.clear()
        assert removed == 2
        assert sent(out, "failed") == [
            ("s", {"op": "failed", "key": "k1",
                   "error": "queue cleared by operator"}),
            ("s", {"op": "failed", "key": "k2",
                   "error": "queue cleared by operator"}),
            ("t", {"op": "failed", "key": "k2",
                   "error": "queue cleared by operator"}),
        ]
        stats = sched.stats(0.0)
        assert stats["pending"] == [] and stats["building"] == []
        # a still builds k1 until it reports; the late done is a duplicate.
        assert done(sched, "pa", "k1").sends == []
        assert sched.counters["duplicates"] == 1

    def test_resubmit_clears_parked_failure(self):
        """A fresh submission of a parked shard is built again with a
        fresh retry budget, not answered from the stale failure."""
        sched = Scheduler()
        register(sched, "pa", "a")
        for parked in (1, 2):
            out = submit(sched, "s", "k", max_attempts=1)
            [(_peer, frame)] = sent(out, "build")
            assert frame["attempts"] == 0
            out = sched.error(
                "pa", {"op": "error", "key": "k", "error": "boom"}, 0.0
            )
            assert sent(out, "failed")[0][1]["error"] == "attempt 1: boom"
            assert sched.counters["parked"] == parked
        assert len(sched.stats(0.0)["failed"]) == 1

    def test_departed_submitter_leaves_its_shards_queued(self):
        sched = Scheduler()
        submit(sched, "s", "k")
        sched.disconnect("s", 0.0)
        out = register(sched, "pa", "a")
        assert builds(out) == [("pa", "k")]
        assert done(sched, "pa", "k").sends == []  # nobody waits
        assert sched.stats(0.0)["results"] == 1


def submitter(*keys, stall_limit=10.0, now=0.0):
    specs = [
        {"key": key, "task": TASK, "shard_index": i}
        for i, key in enumerate(keys)
    ]
    return SubmitterMachine(
        specs, stall_limit=stall_limit, label="h:1", now=now
    )


def result(key, words=b"rows"):
    return {"op": "result", "key": key, "words": words}


#: The clients' fixed reconnect schedule.
SCHEDULE = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]


class TestReconnectSchedule:
    def test_schedule_doubles_to_cap(self):
        client = submitter("k", stall_limit=1e9)
        assert [client.lost(0.0, "refused") for _ in SCHEDULE] == SCHEDULE
        worker = WorkerMachine(now=0.0)
        assert [worker.lost(0.0) for _ in SCHEDULE] == SCHEDULE

    def test_reset_restarts_schedule(self):
        client = submitter("k1", "k2")
        assert [client.lost(0.0, "x") for _ in range(3)] == SCHEDULE[:3]
        client.receive(result("k1"), 1.0)  # a completion is progress
        assert client.lost(1.0, "x") == 0.05
        worker = WorkerMachine(now=0.0)
        assert [worker.lost(0.0) for _ in range(3)] == SCHEDULE[:3]
        worker.registered()
        assert worker.lost(0.0) == 0.05

    def test_only_completions_restart_the_submitter_schedule(self):
        """A connect-then-garbage loop escalates instead of spinning."""
        client = submitter("k")
        client.receive({"op": "stats"}, 0.0)
        client.receive(result("other"), 0.0)
        assert [client.lost(0.0, "x") for _ in range(3)] == SCHEDULE[:3]


class TestSubmitterMachine:
    def test_each_connect_resends_only_the_outstanding_specs(self):
        client = submitter("k0", "k1", "k2")
        assert [s["key"] for s in client.pending()] == ["k0", "k1", "k2"]
        client.receive(result("k1"), 0.5)
        assert [s["key"] for s in client.pending()] == ["k0", "k2"]

    def test_results_are_accepted_once_in_arrival_order(self):
        client = submitter("k0", "k1")
        client.receive(result("k1", b"one"), 0.1)
        client.receive(result("k1", b"again"), 0.2)  # a resend's echo
        assert not client.finished
        client.receive(result("k0", b"zero"), 0.3)
        assert client.finished
        assert client.outcomes == [(1, b"one"), (0, b"zero")]

    @pytest.mark.parametrize(
        "message, error",
        [
            (result("k1", None), "malformed result for shard 1"),
            ({"op": "failed", "key": "k1", "error": "boom"},
             "tcp shard 1 .* failed permanently: boom"),
            ({"op": "rejected", "error": "wire format"},
             "rejected the submission: wire format"),
        ],
    )
    def test_bad_replies_raise(self, message, error):
        with pytest.raises(AnalysisError, match=error):
            submitter("k0", "k1").receive(message, 0.0)

    def test_stall_deadline_is_strictly_after_the_limit(self):
        client = submitter("k0", "k1", stall_limit=5.0, now=1.0)
        client.check(6.0)  # exactly the limit: not yet
        with pytest.raises(AnalysisError) as info:
            client.check(6.01)
        assert str(info.value) == (
            "broker at h:1 made no progress on 2 shard(s) within 5s — is "
            "a `repro broker` running at h:1, with `repro worker --broker "
            "h:1` processes attached?"
        )

    def test_each_completion_restarts_the_stall_deadline(self):
        client = submitter("k0", "k1", stall_limit=5.0)
        client.receive(result("k0"), 4.0)
        client.check(9.0)
        with pytest.raises(AnalysisError, match="on 1 shard"):
            client.check(9.5)

    def test_lost_connection_raises_with_its_reason_once_stalled(self):
        client = submitter("k", stall_limit=1.0)
        assert client.lost(1.0, "refused") == 0.05
        with pytest.raises(AnalysisError, match=r"within 1s \(refused\)"):
            client.lost(1.5, "refused")

    def test_poll_waits_until_the_stall_deadline(self):
        client = submitter("k", stall_limit=5.0)
        assert client.poll_timeout(0.0) == POLL_INTERVAL
        assert client.poll_timeout(4.75) == pytest.approx(0.25)
        assert client.poll_timeout(6.0) > 0  # never non-blocking


class TestWorkerMachine:
    def test_idle_expires_at_exactly_idle_exit(self):
        worker = WorkerMachine(idle_exit=3.0, now=1.0)
        assert not worker.idle_expired(3.99)
        assert worker.idle_expired(4.0)
        assert worker.lost(4.0) is None
        assert not WorkerMachine(now=0.0).idle_expired(1e9)

    def test_a_build_restarts_the_idle_deadline(self):
        worker = WorkerMachine(idle_exit=3.0, now=0.0)
        worker.claim({"op": "build"}, 2.0)
        worker.settle("built", 2.5)
        assert not worker.idle_expired(5.4)  # lifetime > idle_exit
        assert worker.lost(5.4) == 0.05  # so a disconnect reconnects
        assert worker.idle_expired(5.5)

    def test_a_connection_lost_mid_build_restarts_the_idle_deadline(self):
        worker = WorkerMachine(idle_exit=3.0, now=0.0)
        worker.claim({"op": "build"}, 1.0)
        assert worker.lost(10.0) == 0.05  # the build ran until now
        assert not worker.idle_expired(12.9)
        assert worker.idle_expired(13.0)
        # Idle again: a later loss does not restart the deadline.
        assert worker.lost(13.0) is None

    def test_poll_waits_until_the_idle_deadline(self):
        worker = WorkerMachine(idle_exit=0.5, now=0.0)
        assert worker.poll_timeout(0.25) == pytest.approx(0.25)
        assert WorkerMachine(now=0.0).poll_timeout(0.0) == POLL_INTERVAL

    def test_counters_and_task_budget(self):
        worker = WorkerMachine(max_tasks=2, now=0.0)
        assert worker.claim({"op": "build", "stolen": True}, 0.0) == 1
        worker.settle("skipped", 0.0)
        assert worker.claim({"op": "build"}, 0.0) == 2
        worker.settle("failed", 0.0)
        worker.claim({"op": "build"}, 0.0)
        worker.settle("built", 0.0)
        assert not worker.finished
        worker.claim({"op": "build"}, 0.0)
        worker.settle("built", 0.0)
        assert worker.finished
        assert worker.stats == {
            "built": 2, "skipped": 1, "failed": 1, "stolen": 1,
        }


# ----------------------------------------------------------------------
# Random interleavings
# ----------------------------------------------------------------------
KEYS = ("k0", "k1", "k2", "k3")
#: Each key always carries the same budget, so parks are predictable.
MAX_ATTEMPTS = {"k0": 1, "k1": 2, "k2": 3, "k3": 2}
WORKER_IDS = ("w0", "w1", "w2", "w3")  # one more than MAX_BUILDERS


@dataclass
class Submission:
    """One submit call in the model: its machine and what it was told."""

    machine: SubmitterMachine
    failed: list[str] = field(default_factory=list)  # keys, in order
    error: str | None = None

    @property
    def done(self) -> bool:
        return self.error is not None or self.machine.finished


class BrokerMachine(RuleBasedStateMachine):
    """Random events against one scheduler, checked against a model.

    The model holds which peers are connected, which build each worker
    peer is working on, and which ``(submitter, key)`` waits are open.
    Each submission is a :class:`SubmitterMachine` fed the scheduler's
    replies on its connection; it closes that connection once it ends,
    and a connection lost before then reconnects and resubmits.
    """

    def __init__(self) -> None:
        super().__init__()
        self.sched: Scheduler[str] = Scheduler(
            steal_after=1.0, lease_timeout=4.0
        )
        self.now = 0.0
        self.seq = 0
        self.live: set[str] = set()
        self.workers: set[str] = set()  # live peers that registered
        self.clients: dict[str, Submission] = {}  # live submitter peers
        self.submissions: list[Submission] = []
        self.assigned: dict[str, str] = {}  # worker peer -> key it builds
        self.open: set[tuple[str, str]] = set()
        self.cleared = 0

    # -- the model's view of what the scheduler sends ------------------
    def _apply(self, actions) -> None:
        for peer, frame in actions.sends:
            assert peer in self.live, f"frame to a closed peer: {frame}"
            op, key = frame["op"], frame.get("key")
            if op in ("result", "failed"):
                # Each wait ends exactly once.
                assert (peer, key) in self.open, (peer, frame)
                self.open.discard((peer, key))
                if op == "failed" and frame["error"] != (
                    "queue cleared by operator"
                ):
                    assert frame["error"].startswith(
                        f"attempt {MAX_ATTEMPTS[key]}: "
                    )
                self._deliver(self.clients[peer], frame)
            elif op == "build":
                # Never a second build (stolen or not) to a busy worker,
                # so never a steal by a worker building that key.
                assert peer not in self.assigned, (peer, frame)
                assert frame["attempts"] < MAX_ATTEMPTS[key]
                self.assigned[peer] = key
            else:
                raise AssertionError(f"unexpected frame {frame}")
        for peer in actions.closes:
            self._disconnect(peer)
        # A submission that ended hangs up, as TcpExecutor does.
        for peer in sorted(p for p, sub in self.clients.items() if sub.done):
            self._disconnect(peer)

    def _deliver(self, sub: Submission, frame) -> None:
        if sub.error is not None:
            return  # it raised and closed; the frame is never read
        if frame["op"] == "failed":
            sub.failed.append(frame["key"])
        try:
            sub.machine.receive(frame, self.now)
        except AnalysisError as exc:
            sub.error = str(exc)

    def _connect(self, sub: Submission) -> None:
        peer = self._peer("s")
        self.clients[peer] = sub
        pending = sub.machine.pending()
        self.open.update((peer, spec["key"]) for spec in pending)
        self._apply(self.sched.submit(
            peer, {"op": "submit", "shards": pending}, self.now
        ))

    def _peer(self, prefix: str) -> str:
        self.seq += 1
        peer = f"{prefix}{self.seq}"
        self.live.add(peer)
        return peer

    def _disconnect(self, peer: str) -> None:
        if peer not in self.live:
            return
        sched = self.sched
        others = {
            wid for wid, conn in sched._workers.items() if conn.peer != peer
        }
        self.live.discard(peer)
        self.workers.discard(peer)
        self.clients.pop(peer, None)
        self.assigned.pop(peer, None)
        self.open = {(p, k) for p, k in self.open if p != peer}
        self._apply(sched.disconnect(peer, self.now))
        # A disconnect deregisters at most its own registration.
        assert others <= set(sched._workers)

    def _report(self, data, words) -> None:
        peer = data.draw(st.sampled_from(sorted(self.assigned)))
        key = self.assigned.pop(peer)
        self._apply(self.sched.done(
            peer, {"op": "done", "key": key, "words": words}, self.now
        ))

    # -- events --------------------------------------------------------
    @rule(worker=st.sampled_from(WORKER_IDS))
    def connect_worker(self, worker):
        peer = self._peer("p")
        self.workers.add(peer)
        self._apply(self.sched.register(
            peer, {"op": "register", "worker": worker}, self.now
        ))

    @rule(keys=st.lists(st.sampled_from(KEYS), min_size=1, unique=True))
    def submit(self, keys):
        specs = [
            {"key": key, "task": TASK, "shard_index": KEYS.index(key),
             "max_attempts": MAX_ATTEMPTS[key]}
            for key in keys
        ]
        sub = Submission(SubmitterMachine(
            specs, stall_limit=1e9, label="b:1", now=self.now
        ))
        self.submissions.append(sub)
        self._connect(sub)

    @precondition(lambda self: self.clients)
    @rule(data=st.data())
    def resubmit_on_same_connection(self, data):
        """A repeated submit on one connection adds no second wait."""
        peer = data.draw(st.sampled_from(sorted(self.clients)))
        self._apply(self.sched.submit(
            peer,
            {"op": "submit", "shards": self.clients[peer].machine.pending()},
            self.now,
        ))

    @precondition(lambda self: self.assigned)
    @rule(data=st.data())
    def done_ok(self, data):
        self._report(data, b"rows")

    @precondition(lambda self: self.assigned)
    @rule(data=st.data())
    def done_malformed(self, data):
        self._report(data, None)

    @precondition(lambda self: self.assigned)
    @rule(data=st.data())
    def build_error(self, data):
        peer = data.draw(st.sampled_from(sorted(self.assigned)))
        key = self.assigned.pop(peer)
        self._apply(self.sched.error(
            peer, {"op": "error", "key": key, "error": "boom"}, self.now
        ))

    @precondition(lambda self: self.workers)
    @rule(data=st.data(), key=st.sampled_from(KEYS))
    def stray_done(self, data, key):
        peer = data.draw(st.sampled_from(sorted(self.workers)))
        if self.assigned.get(peer) == key:
            del self.assigned[peer]
        self._apply(self.sched.done(
            peer, {"op": "done", "key": key, "words": b"rows"}, self.now
        ))

    @precondition(lambda self: self.workers)
    @rule(data=st.data())
    def beat(self, data):
        peer = data.draw(st.sampled_from(sorted(self.workers)))
        self._apply(self.sched.beat(peer, self.now))

    @rule(dt=st.sampled_from((0.0, 0.5, 1.0, 2.5, 5.0)))
    def tick(self, dt):
        self.now += dt
        self._apply(self.sched.tick(self.now))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def disconnect(self, data):
        peer = data.draw(st.sampled_from(sorted(self.live)))
        sub = self.clients.get(peer)
        self._disconnect(peer)
        if sub is not None and not sub.done:
            # The submitter reconnects and resubmits what is outstanding.
            assert sub.machine.lost(self.now, "reset") > 0
            self._connect(sub)

    @rule()
    def clear(self):
        self.cleared += len(self.sched._specs)
        _removed, actions = self.sched.clear()
        self._apply(actions)

    # -- invariants ----------------------------------------------------
    @invariant()
    def every_key_resolves_once_or_parks(self):
        counters = self.sched.counters
        assert counters["submitted"] == (
            counters["completed"] + counters["parked"] + self.cleared
            + len(self.sched._specs)
        )

    @invariant()
    def no_slot_outlives_its_connection(self):
        sched = self.sched
        for key, holders in sched._builders.items():
            assert holders and len(holders) <= MAX_BUILDERS
            for worker_id in holders:
                conn = sched._workers[worker_id]
                assert conn.peer in self.live
                assert conn.current == key

    @invariant()
    def attempts_stay_bounded(self):
        for spec in self.sched._specs.values():
            assert 0 <= spec["attempts"] < spec["max_attempts"]

    @invariant()
    def submissions_take_each_result_once_or_fail_on_the_first(self):
        for sub in self.submissions:
            indices = [index for index, _words in sub.machine.outcomes]
            assert len(indices) == len(set(indices))
            if sub.error is not None:
                first = KEYS.index(sub.failed[0])
                assert sub.error.startswith(f"tcp shard {first} "), sub.error

    @invariant()
    def no_idle_worker_while_work_is_pending(self):
        if self.sched._pending:
            assert all(
                conn.current is not None
                for conn in self.sched._workers.values()
            )

    def teardown(self):
        """Drain: with one live worker finishing every build, every
        queued key resolves and every open wait is answered."""
        peer = self._peer("drain")
        self.workers.add(peer)
        self._apply(self.sched.register(
            peer, {"op": "register", "worker": "drain"}, self.now
        ))
        for _ in range(200):
            if not self.sched._specs:
                break
            for busy, key in sorted(self.assigned.items()):
                self.assigned.pop(busy)
                self._apply(self.sched.done(
                    busy, {"op": "done", "key": key, "words": b"rows"},
                    self.now,
                ))
            self.now += 1.0
            self._apply(self.sched.tick(self.now))
        assert not self.sched._specs
        assert not self.open
        self.every_key_resolves_once_or_parks()
        # Every submission ended: all its results, or its first failure.
        for sub in self.submissions:
            if sub.error is None:
                assert sub.machine.finished
                assert sorted(sub.machine.outcomes) == sorted(
                    (spec["shard_index"], b"rows")
                    for spec in sub.machine.specs
                )


TestBrokerMachine = BrokerMachine.TestCase
TestBrokerMachine.settings = settings(
    max_examples=200,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
