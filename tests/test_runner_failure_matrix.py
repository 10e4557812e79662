"""DESIGN.md §3.6's failure matrix, one row per (event, shard state) pair.

The worker pool (:class:`repro.runner.parallel._Pool`) is a state machine
over one shard table whose handlers take the time as an argument, so each
row here drives it with a fixed clock and fake workers: no process is
forked and the whole table runs in well under a second. The real
fork/crash/kill/hang runs stay in ``tests/test_runner_parallel.py``.

Every pair is listed in :data:`MATRIX`; a pair the pool can never see is
listed as :class:`Impossible` with the reason, and is not handled in the
pool either.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.errors import DeadlineExceededError, RunInterruptedError, RunnerError
from repro.faults.retry import RetryPolicy
from repro.obs.recorder import ObsRecorder, recording
from repro.runner.deadline import Deadline
from repro.runner.engine import RunnerOptions
from repro.runner.parallel import _POLL_TIMEOUT_S, _Pool, _ShardState, _Worker
from repro.runner.shards import ExperimentPlan
from repro.runner.store import CheckpointStore

T0 = 100.0
"""When the fixture states were set up (monotonic seconds)."""

T1 = 110.0
"""When the event fires: past T0 plus ``SHARD_DEADLINE_S``."""

SHARD_DEADLINE_S = 5.0
MAX_SHARDS = 2


class FakeConn:
    """The parent's end of a worker pipe: ``inbox`` is what the worker sent."""

    def __init__(self) -> None:
        self.inbox: list[tuple] = []
        self.sent: list[tuple] = []
        self.closed = False

    def send(self, message: tuple) -> None:
        if self.closed:
            raise OSError("connection closed")
        self.sent.append(message)

    def poll(self) -> bool:
        return bool(self.inbox)

    def recv(self) -> tuple:
        return self.inbox.pop(0)

    def close(self) -> None:
        self.closed = True


class FakeProc:
    def __init__(self) -> None:
        self.alive = True
        self.exitcode: int | None = None

    def is_alive(self) -> bool:
        return self.alive

    def terminate(self) -> None:
        self.alive, self.exitcode = False, -15

    def kill(self) -> None:
        self.alive, self.exitcode = False, -9

    def join(self, timeout: float | None = None) -> None:
        pass


class FakeGuard:
    interrupted = False

    def check(self) -> None:
        if self.interrupted:
            raise RunInterruptedError("received SIGTERM")


def fake_worker(wid: int) -> _Worker:
    return _Worker(wid=wid, proc=FakeProc(), conn=FakeConn())


def make_pool(tmp_path, state: str) -> _Pool:
    """A pool over the one shard ``s00`` with idle fake worker 0, driven
    into ``state``: ``idle`` (s00 queued), ``running`` (attempt 1 of 3 on
    worker 0), ``last`` (attempt 1 of 1) or ``draining`` (``running``,
    then a signal)."""
    policy = RetryPolicy(
        max_attempts=1 if state == "last" else 3,
        backoff_base_ms=100.0,
        backoff_cap_ms=1000.0,
    )
    plan = ExperimentPlan(
        experiment="matrix",
        config={"experiment": "matrix"},
        shard_ids=("s00",),
        run_shard=lambda sid: {"value": 1},
        merge=lambda payloads: len(payloads),
        format=str,
    )
    options = RunnerOptions(
        shard_deadline_s=SHARD_DEADLINE_S, max_shards=MAX_SHARDS, retry_policy=policy
    )
    pool = _Pool(
        plan=plan,
        store=CheckpointStore(tmp_path / "run"),
        options=options,
        pending=["s00"],
        deadline=Deadline(None),
        guard=FakeGuard(),
        already_done=0,
    )
    pool.workers[0] = fake_worker(0)
    if state != "idle":
        pool.assign(T0)
        assert pool.workers[0].conn.sent == [("run", "s00", 1)]
    if state == "draining":
        pool.guard.interrupted = True
        assert pool.advance(T0)
    return pool


# -- events: each fires at T1 -------------------------------------------------


def _deliver(pool: _Pool, message: tuple) -> None:
    worker = pool.workers[0]
    worker.conn.inbox.append(message)
    pool.dispatch([worker], [], T1)


def _ok(payload):
    return lambda pool: _deliver(pool, ("ok", 0, "s00", 1, payload, 0.5, None))


def _die(pool: _Pool) -> None:
    worker = pool.workers[0]
    worker.proc.alive, worker.proc.exitcode = False, 70
    pool.dispatch([], [worker], T1)


def _signal(pool: _Pool) -> None:
    pool.guard.interrupted = True
    pool.advance(T1)


def _cap_reached(pool: _Pool) -> None:
    pool.executed = MAX_SHARDS  # other shards' checkpoints reached the cap
    pool.advance(T1)


def _deadline_spent(pool: _Pool) -> None:
    pool.deadline = Deadline(1.0, _started=time.monotonic() - 2.0)
    pool.advance(T1)


EVENTS = {
    "start": lambda pool: _deliver(pool, ("start", 0, "s00", 1)),
    "ok": _ok({"value": 1}),
    "ok-non-json": _ok({"value": {1, 2}}),
    "err": lambda pool: _deliver(
        pool, ("err", 0, "s00", 1, "exception", "RuntimeError: boom", None)
    ),
    "death": _die,
    "overdue": lambda pool: pool.dispatch([], [], T1),  # the watchdog's sweep
    "fatal": lambda pool: _deliver(pool, ("fatal", 0, "ImportError: no plan")),
    "signal": _signal,
    "max-shards": _cap_reached,
    "deadline": _deadline_spent,
}
STATES = ("idle", "running", "last", "draining")


@dataclass(frozen=True)
class Next:
    """What the pool holds after the event."""

    where: str | None = None  # s00's row
    removed: bool = False  # worker 0 reaped or killed
    gated: bool = False  # requeued behind a backoff gate
    restarted: bool = False  # the watchdog clock restarted at T1
    draining: str | None = None
    raises: type[Exception] | None = None


@dataclass(frozen=True)
class Impossible:
    why: str


_UNSENT = "a worker reports only on a run it was sent"
_FATAL = "a worker sends fatal only before it serves its first run"
_REQUEUE = Next("queued", gated=True)
_QUARANTINE = Next("quarantined")
_DRAIN_REQUEUE = Next("queued", draining="signal")  # no backoff gate while draining

MATRIX = {
    ("start", "idle"): Impossible(_UNSENT),
    ("start", "running"): Next("running", restarted=True),
    ("start", "last"): Next("running", restarted=True),
    ("start", "draining"): Next("running", restarted=True, draining="signal"),
    ("ok", "idle"): Impossible(_UNSENT),
    ("ok", "running"): Next("done"),
    ("ok", "last"): Next("done"),
    ("ok", "draining"): Next("done", draining="signal"),
    ("ok-non-json", "idle"): Impossible(_UNSENT),
    ("ok-non-json", "running"): _REQUEUE,
    ("ok-non-json", "last"): _QUARANTINE,
    ("ok-non-json", "draining"): _DRAIN_REQUEUE,
    ("err", "idle"): Impossible(_UNSENT),
    ("err", "running"): _REQUEUE,
    ("err", "last"): _QUARANTINE,
    ("err", "draining"): _DRAIN_REQUEUE,
    ("death", "idle"): Next("queued", removed=True),
    ("death", "running"): Next("queued", removed=True, gated=True),
    ("death", "last"): Next("quarantined", removed=True),
    ("death", "draining"): Next("queued", removed=True, draining="signal"),
    # The watchdog sweeps running rows only, so an idle worker is left be.
    ("overdue", "idle"): Next("queued"),
    ("overdue", "running"): Next("queued", removed=True, gated=True),
    ("overdue", "last"): Next("quarantined", removed=True),
    ("overdue", "draining"): Next("queued", removed=True, draining="signal"),
    ("fatal", "idle"): Next(raises=RunnerError),
    ("fatal", "running"): Impossible(_FATAL),
    ("fatal", "last"): Impossible(_FATAL),
    ("fatal", "draining"): Impossible(_FATAL),
    ("signal", "idle"): Next("queued", draining="signal"),
    ("signal", "running"): Next("running", draining="signal"),
    ("signal", "last"): Next("running", draining="signal"),
    ("signal", "draining"): Next("running", draining="signal"),
    ("max-shards", "idle"): Next("queued", draining="max-shards"),
    ("max-shards", "running"): Next("running", draining="max-shards"),
    ("max-shards", "last"): Next("running", draining="max-shards"),
    # The first stop reason stands.
    ("max-shards", "draining"): Next("running", draining="signal"),
    ("deadline", "idle"): Next(raises=DeadlineExceededError),
    ("deadline", "running"): Next(raises=DeadlineExceededError),
    ("deadline", "last"): Next(raises=DeadlineExceededError),
    ("deadline", "draining"): Next(raises=DeadlineExceededError),
}

POSSIBLE = sorted(pair for pair, row in MATRIX.items() if isinstance(row, Next))


class TestFailureMatrix:
    def test_the_table_lists_every_pair(self):
        assert set(MATRIX) == {(e, s) for e in EVENTS for s in STATES}

    @pytest.mark.parametrize(("event", "state"), POSSIBLE)
    def test_next_state(self, tmp_path, event, state):
        expected = MATRIX[event, state]
        pool = make_pool(tmp_path, state)
        worker = pool.workers[0]
        sent_before = list(worker.conn.sent)
        if expected.raises is not None:
            with pytest.raises(expected.raises):
                EVENTS[event](pool)
            return
        EVENTS[event](pool)
        # A checkpointed shard leaves the table.
        st = pool.shards.get("s00", _ShardState(where="done"))
        assert st.where == expected.where
        assert (0 not in pool.workers) == expected.removed
        assert worker.proc.alive != expected.removed
        assert pool.draining == expected.draining
        # No event hands out work: assignment belongs to the next tick.
        assert worker.conn.sent == sent_before
        assert pool.busy == ({0: "s00"} if st.where == "running" else {})
        if st.where == "running":
            assert st.since == (T1 if expected.restarted else T0)
        if st.where == "queued" and expected.gated:
            backoff_ms = pool.options.retry_policy.backoff_ms(st.attempts)
            assert st.eligible_at == T1 + backoff_ms / 1000.0
        elif st.where == "queued":
            assert st.eligible_at == 0.0
        assert pool.gated == ({"s00"} if expected.gated else set())
        store = pool.store
        assert ("s00" in store.completed_shards(("s00",))) == (st.where == "done")
        executed = MAX_SHARDS if event == "max-shards" else int(st.where == "done")
        assert pool.executed == executed
        record = store.load_quarantine_record()
        if st.where == "quarantined":
            assert record["shards"]["s00"]["attempts"] == 1
            assert len(record["shards"]["s00"]["failures"]) == 1
        else:
            assert record is None

    def test_quarantine_record_holds_the_failure_evidence(self, tmp_path):
        pool = make_pool(tmp_path, "last")
        EVENTS["death"](pool)
        record = json.loads(pool.store.quarantine_record_path.read_text())
        assert record["max_attempts"] == 1
        assert record["shards"]["s00"]["failures"] == [
            {
                "attempt": 1,
                "kind": "crash",
                "detail": "worker 0 died with exit code 70",
            }
        ]

    def test_retried_shard_goes_to_the_back(self, tmp_path):
        pool = make_pool(tmp_path, "running")
        pool.shards["s01"] = _ShardState()
        EVENTS["err"](pool)
        assert list(pool.shards) == ["s01", "s00"]

    @pytest.mark.parametrize("event", ["death", "overdue"])
    def test_a_result_already_sent_beats_the_death_or_kill(self, tmp_path, event):
        pool = make_pool(tmp_path, "running")
        pool.workers[0].conn.inbox.append(("ok", 0, "s00", 1, {"value": 1}, 0.5, None))
        EVENTS[event](pool)
        assert "s00" not in pool.shards  # checkpointed, not failed
        assert pool.store.completed_shards(("s00",)) == {"s00": {"value": 1}}
        assert pool.executed == 1

    def test_post_completion_death_drops_the_attempts_obs(self, tmp_path):
        """A worker that finished s00 but died before its result reached
        the parent ships no obs for that attempt: the retry records the
        shard again, so it is counted once, not twice."""
        shipped = ObsRecorder()
        shipped.inc("repro_matrix_shards_total")
        delta = shipped.snapshot_delta(drain=True)
        with recording(ObsRecorder()) as parent:
            pool = make_pool(tmp_path, "running")
            EVENTS["death"](pool)
            pool.workers[1] = fake_worker(1)  # stands in for the respawn
            pool.assign(pool.shards["s00"].eligible_at)
            assert pool.workers[1].conn.sent == [("run", "s00", 2)]
            retry = ("ok", 1, "s00", 2, {"value": 1}, 0.5, delta)
            pool.workers[1].conn.inbox.append(retry)
            pool.dispatch([pool.workers[1]], [], T1 + 1.0)
        assert "s00" not in pool.shards  # checkpointed
        assert pool.store.completed_shards(("s00",)) == {"s00": {"value": 1}}
        metrics = parent.metrics
        assert metrics.counter_value("repro_matrix_shards_total") == 1.0
        assert metrics.counter_value("repro_obs_deltas_merged_total") == 1.0
        assert metrics.counter_value("repro_runner_worker_deaths_total") == 1.0


def _scan_wait_timeout(pool: _Pool, now: float) -> float:
    """The full-table scan :meth:`_Pool.wait_timeout` replaced: every
    running row's watchdog and every queued row's backoff gate."""
    limit = pool.options.shard_deadline_s
    remaining = pool.deadline.remaining_s()
    due = [] if remaining is None else [remaining]
    for st in pool.shards.values():
        if st.where == "running" and limit is not None:
            due.append(limit - (now - st.since))
        elif st.where == "queued" and st.eligible_at > now:
            due.append(st.eligible_at - now)
    return min([_POLL_TIMEOUT_S, *(max(d, 0.01) for d in due)])


class TestWaitTimeout:
    """``wait_timeout`` reads ``busy`` and the backoff-gated rows only, and
    gives the timeout the full-table scan gave, on a fixed clock."""

    JOBS = 3

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_full_table_scan(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        policy = RetryPolicy(max_attempts=3, backoff_base_ms=80.0, backoff_cap_ms=400.0)
        shard_ids = tuple(f"s{i:02d}" for i in range(16))
        plan = ExperimentPlan(
            experiment="matrix",
            config={"experiment": "matrix"},
            shard_ids=shard_ids,
            run_shard=lambda sid: {"value": 1},
            merge=lambda payloads: len(payloads),
            format=str,
        )
        options = RunnerOptions(
            shard_deadline_s=0.5, jobs=self.JOBS, retry_policy=policy
        )
        pool = _Pool(
            plan=plan,
            store=CheckpointStore(tmp_path / "run"),
            options=options,
            pending=list(shard_ids),
            deadline=Deadline(None),
            guard=FakeGuard(),
            already_done=0,
        )
        wids = iter(range(1000))
        for _ in range(self.JOBS):
            wid = next(wids)
            pool.workers[wid] = fake_worker(wid)
        now, probes = T0, 0
        for _ in range(60):
            pool.assign(now)
            # Probe just before every due instant the scan knows of.
            dues = [
                st.since + options.shard_deadline_s
                if st.where == "running"
                else st.eligible_at
                for st in pool.shards.values()
                if st.where != "quarantined"
            ]
            if not dues:
                break
            for due in dues:
                for lead in (0.003, 0.04, 0.09):
                    if due - lead >= now:
                        probe = due - lead
                        assert pool.wait_timeout(probe) == _scan_wait_timeout(
                            pool, probe
                        )
                        probes += 1
            assert pool.wait_timeout(now) == _scan_wait_timeout(pool, now)
            now += float(rng.uniform(0.0, 0.3))
            for wid, shard_id in list(pool.busy.items()):
                if pool.busy.get(wid) != shard_id:
                    continue  # the watchdog of an earlier dispatch killed it
                worker = pool.workers[wid]
                attempt = pool.shards[shard_id].attempts
                roll = rng.random()
                if roll < 0.3:
                    message = ("ok", wid, shard_id, attempt, {"value": 1}, 0.1, None)
                elif roll < 0.6:
                    message = ("err", wid, shard_id, attempt, "exception", "boom", None)
                else:
                    continue
                worker.conn.inbox.append(message)
                pool.dispatch([worker], [], now)
            pool.dispatch([], [], now)  # the watchdog kills overdue workers
            while len(pool.workers) < self.JOBS:
                wid = next(wids)
                pool.workers[wid] = fake_worker(wid)
        assert probes > 50
