"""Supervised shard execution: a worker pool that expects to die.

Every ``--out-dir`` run executes its pending shards on ``--jobs`` worker
processes (one by default) under a parent-side supervisor; there is no
in-process executor beside it. The supervisor is a small state machine,
:class:`_Pool`: one table of :class:`_ShardState` rows keyed by shard id
(queued, running on worker *w*, done or quarantined) and one handler per
event (message, death, overdue, assign, wait, shutdown), each taking the
current monotonic time. The design treats workers as unreliable by
contract:

* **Workers compute, the parent persists.** A worker receives
  ``("run", shard_id, attempt)``, rebuilds the plan from its config
  (:mod:`repro.runner.registry` — closures never cross the pipe), runs the
  shard, and sends the payload back. Every checkpoint write, manifest
  update, and integrity hash stays in the parent, so the atomic-write
  machinery of :mod:`repro.runner.store` is untouched and a dying worker
  can never leave a torn or unverified file.
* **Crashes are exit codes, not exceptions.** A worker that segfaults,
  is OOM-killed, or ``os._exit``\\ s is noticed through its process
  sentinel; its in-flight shard re-enters the queue against the same
  :class:`~repro.faults.retry.RetryPolicy` budget and runs on a fresh
  worker.
* **Hangs are the parent's problem.** A wedged shard cannot be trusted
  to interrupt itself, so ``--shard-deadline-s`` is enforced by a
  parent-side watchdog over assignment timestamps: an overdue worker is
  killed and its shard retried.
* **Repeat offenders are quarantined.** A shard that fails its whole
  retry budget — by any mix of exception, crash, kill, hang, or garbage
  payload — is set aside with the evidence written to
  ``quarantine.json`` while the rest of the run completes; the run then
  exits with :class:`~repro.errors.ShardQuarantinedError` (its own exit
  code) instead of deadlocking or losing the healthy shards.
* **Observability is shipped, never shared.** Under an instrumented
  parent each worker records into its own recorder and drains it to a
  serialisable delta per shard attempt, which reaches the parent only
  inside the attempt's result message; a worker that dies loses its
  attempt's obs, and the retry records them again. The parent folds every
  delta into the run's recorder
  (:meth:`repro.obs.recorder.ObsRecorder.merge_delta`), so a ``--jobs 8``
  run and a ``--jobs 1`` run report identical aggregate counters and
  histograms — and, because the windowed time-series pillar
  (:mod:`repro.obs.timeseries`) keys every cell by *simulated* time and
  stores only integers, byte-identical per-window series too, regardless
  of shard completion order.
* **Signals drain, then stop.** The first SIGINT/SIGTERM stops new
  assignments and waits for in-flight shards to finish and flush; the
  second terminates the pool immediately (both via
  :class:`~repro.runner.interrupt.InterruptGuard`). ``--deadline-s`` is
  enforced across all workers: on expiry the pool is killed and completed
  shards remain checkpointed.

Because shards are deterministic and order-independent and the merge reads
every payload back from disk, ``--jobs`` affects only wall-clock time:
it is deliberately excluded from the resume-compatibility hash, and a run
started at ``--jobs 8`` resumes at ``--jobs 1`` (or vice versa) with
byte-identical output.
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from typing import TYPE_CHECKING, Any

from repro.errors import (
    ObsError,
    RunInterruptedError,
    RunnerError,
    ShardQuarantinedError,
)
from repro.obs.recorder import get_recorder
from repro.runner.deadline import Deadline
from repro.runner.interrupt import InterruptGuard
from repro.runner.registry import plan_from_config
from repro.runner.shards import ExperimentPlan, set_current_attempt
from repro.runner.store import CheckpointStore, canonical_json

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.runner.engine import RunnerOptions

_POLL_TIMEOUT_S = 0.1
"""Upper bound on one supervisor tick while waiting for events."""

_STOP_GRACE_S = 1.0
"""How long shutdown waits for a worker before escalating to SIGKILL."""

QUARANTINE_FORMAT_VERSION = 1


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap, inherits registry
    registrations), else ``spawn``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def _worker_main(
    conn: Connection, config: dict[str, Any], worker_id: int, record_obs: bool
) -> None:
    """One worker process: rebuild the plan, then serve run requests.

    Never touches the checkpoint store — persistence is a parent-side
    concern. Ignores SIGINT (the parent owns interruption policy) and
    leaves SIGTERM at its default so the parent's ``terminate()`` works
    even mid-shard.

    With ``record_obs`` set (the parent runs instrumented) the worker
    records into its own live recorder and, after every shard attempt,
    drains it into a serialisable delta that travels back inside the
    result message. With it unset the recorder is the no-op default and
    deltas are ``None``.
    """
    import signal as _signal

    _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    if hasattr(_signal, "SIGTERM"):
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    from repro.obs.recorder import ObsRecorder, reset_recorder, set_recorder

    if record_obs:
        set_recorder(ObsRecorder())
    else:
        reset_recorder()

    def drain_obs() -> dict | None:
        return get_recorder().snapshot_delta(drain=True) if record_obs else None

    try:
        plan = plan_from_config(config)
    except Exception as exc:  # noqa: BLE001 - report, parent decides
        conn.send(("fatal", worker_id, f"{type(exc).__name__}: {exc}"))
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent died or closed us out
        if message[0] == "stop":
            return
        _, shard_id, attempt = message
        set_current_attempt(attempt)
        conn.send(("start", worker_id, shard_id, attempt))
        started = time.perf_counter()
        try:
            with get_recorder().timer("runner.shard"):
                payload = plan.run_shard(shard_id)
        except BaseException as exc:  # noqa: BLE001 - everything is reportable
            detail = f"{type(exc).__name__}: {exc}"
            failure = ("exception", detail, drain_obs())
            conn.send(("err", worker_id, shard_id, attempt, *failure))
        else:
            wall_s = time.perf_counter() - started
            delta = drain_obs()
            try:
                conn.send(("ok", worker_id, shard_id, attempt, payload, wall_s, delta))
            except Exception as exc:  # noqa: BLE001 - unpicklable payload
                detail = f"unsendable payload: {type(exc).__name__}: {exc}"
                failure = ("garbage", detail, delta)
                conn.send(("err", worker_id, shard_id, attempt, *failure))
        set_current_attempt(None)


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------


@dataclass
class _Worker:
    """Parent-side handle of one worker process."""

    wid: int
    proc: Any
    conn: Connection


@dataclass
class _ShardState:
    """One unfinished shard's row in the pool's table.

    ``where`` is ``"queued"``, ``"running"`` (on the worker that
    ``_Pool.busy`` names) or ``"quarantined"``; a checkpointed shard
    leaves the table. Queued rows are assigned in table order, and a
    retried shard moves to the back.
    """

    where: str = "queued"
    since: float = 0.0  # monotonic; the running attempt's start, for the watchdog
    attempts: int = 0
    eligible_at: float = 0.0  # monotonic; backoff gate for the next attempt
    failures: list[dict[str, Any]] = field(default_factory=list)


def execute_pending_parallel(
    plan: ExperimentPlan,
    store: CheckpointStore,
    options: "RunnerOptions",
    pending: list[str],
    deadline: Deadline,
    guard: InterruptGuard,
    already_done: int,
) -> int:
    """Run ``pending`` shards on up to ``options.jobs`` workers.

    ``plan`` must have a registered builder (the engine refuses one that
    has none before it writes anything). Returns the number of shards
    newly checkpointed. Raises :class:`RunInterruptedError` (drained stop),
    ``DeadlineExceededError`` (via ``deadline.check``),
    :class:`ShardQuarantinedError` (some shards exhausted their budget), or
    :class:`RunnerError` (workers cannot rebuild the plan). In every case
    the pool is torn down and each completed shard is already flushed.
    """
    return _Pool(plan, store, options, pending, deadline, guard, already_done).run()


class _Pool:
    """The supervisor: a table of unfinished shards, the live workers, and
    one handler per event, each taking the current monotonic time ``now``.

    ``busy`` maps each worker running a shard to that shard's id: it is
    the table's ``"running"`` rows seen from the worker side, added by
    :meth:`assign` and removed when the attempt completes or fails, so no
    tick scans the whole table to find them. ``gated`` holds the ids of
    the queued rows a retry backoff may still hold back: added by
    :meth:`_fail`, removed by :meth:`assign`. With ``busy`` it is all that
    :meth:`wait_timeout` reads.
    """

    def __init__(
        self,
        plan: ExperimentPlan,
        store: CheckpointStore,
        options: "RunnerOptions",
        pending: list[str],
        deadline: Deadline,
        guard: InterruptGuard,
        already_done: int,
    ) -> None:
        self.plan = plan
        self.store = store
        self.options = options
        self.deadline = deadline
        self.guard = guard
        self.already_done = already_done
        self.total = already_done + len(pending)
        self.rec = get_recorder()
        self.shards = {shard_id: _ShardState() for shard_id in pending}
        self.busy: dict[int, str] = {}
        self.gated: set[str] = set()
        self.workers: dict[int, _Worker] = {}
        self.next_wid = 0
        self.executed = 0
        self.draining: str | None = None  # None | "signal" | "max-shards"

    def run(self) -> int:
        """Supervise until every shard is done or quarantined, or a stop."""
        try:
            while True:
                now = time.monotonic()
                if not self.advance(now):
                    break
                spoke, died = self._wait(self.wait_timeout(now))
                self.dispatch(spoke, died, time.monotonic())
        finally:
            self.shutdown(time.monotonic())
        self._raise_if_stopped()
        return self.executed

    # -- one tick ------------------------------------------------------------

    def advance(self, now: float) -> bool:
        """Check the run budget and the stop triggers, then assign work.
        Returns whether anything is left to wait for."""
        self.deadline.check()  # expiry kills the pool via run()'s finally
        max_shards = self.options.max_shards
        if self.draining is None and self.guard.interrupted:
            self._drain("signal")
        if (
            self.draining is None
            and max_shards is not None
            and self.executed >= max_shards
        ):
            self._drain("max-shards")
        if self.draining is None:
            self.assign(now)
        if self.busy:
            return True
        queued = (st.where == "queued" for st in self.shards.values())
        return self.draining is None and any(queued)

    def _drain(self, reason: str) -> None:
        self.draining = reason
        self.rec.event("drain", reason=reason, inflight=len(self.busy))
        if reason == "signal":
            print(
                f"runner: interrupt received; draining {len(self.busy)} "
                f"in-flight shard(s) before exiting",
                file=sys.stderr,
            )

    def assign(self, now: float) -> None:
        """Hand eligible queued shards, in table order, to idle workers,
        spawning up to ``--jobs``; in-flight shards count against
        ``--max-shards``."""
        max_shards = self.options.max_shards
        while max_shards is None or self.executed + len(self.busy) < max_shards:
            shard_id = next(
                (
                    sid
                    for sid, st in self.shards.items()
                    if st.where == "queued" and st.eligible_at <= now
                ),
                None,
            )
            if shard_id is None:
                return
            worker = next(
                (w for w in self.workers.values() if w.wid not in self.busy), None
            )
            if worker is None:
                if len(self.workers) >= self.options.jobs:
                    return
                worker = self._spawn()
            st = self.shards[shard_id]
            st.where, st.since = "running", now
            st.attempts += 1
            self.busy[worker.wid] = shard_id
            self.gated.discard(shard_id)
            try:
                worker.conn.send(("run", shard_id, st.attempts))
            except (OSError, ValueError):
                # Worker vanished between spawn and send; its sentinel
                # fires on the next tick and requeues the shard.
                return
            self.rec.event(
                "shard_assigned", shard=shard_id, attempt=st.attempts, worker=worker.wid
            )

    def wait_timeout(self, now: float) -> float:
        """How long the next wait may block: until the next watchdog,
        run-deadline or backoff due time, at most one poll tick."""
        limit = self.options.shard_deadline_s
        remaining = self.deadline.remaining_s()
        due = [] if remaining is None else [remaining]
        if limit is not None:
            due.extend(
                limit - (now - self.shards[sid].since) for sid in self.busy.values()
            )
        for shard_id in self.gated:
            eligible_at = self.shards[shard_id].eligible_at
            if eligible_at > now:
                due.append(eligible_at - now)
        return min([_POLL_TIMEOUT_S, *(max(d, 0.01) for d in due)])

    def _wait(self, timeout: float) -> tuple[list[_Worker], list[_Worker]]:
        """Block until a worker speaks or dies, or ``timeout`` passes;
        returns ``(spoke, died)``."""
        if not self.workers:
            time.sleep(timeout)
            return [], []
        by_conn = {w.conn: w for w in self.workers.values()}
        by_sentinel = {w.proc.sentinel: w for w in self.workers.values()}
        ready = connection_wait([*by_conn, *by_sentinel], timeout)
        return (
            [by_conn[obj] for obj in ready if obj in by_conn],
            [by_sentinel[obj] for obj in ready if obj in by_sentinel],
        )

    def dispatch(self, spoke: list[_Worker], died: list[_Worker], now: float) -> None:
        """Handle what one wait returned, then run the watchdog."""
        for worker in spoke:
            if worker.wid in self.workers:
                self._read(worker, now)
        for worker in died:
            if worker.wid in self.workers:
                self.on_death(worker, now)
        limit = self.options.shard_deadline_s
        if limit is not None:
            for wid, shard_id in list(self.busy.items()):
                if now - self.shards[shard_id].since > limit:
                    self.on_overdue(self.workers[wid], now)

    # -- events --------------------------------------------------------------

    def _read(self, worker: _Worker, now: float) -> None:
        """Handle every message ``worker`` has queued."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                return  # death is handled via the sentinel
            self.on_message(worker, message, now)

    def on_message(self, worker: _Worker, message: tuple, now: float) -> None:
        """One message from ``worker``, always about the shard it runs."""
        kind = message[0]
        if kind == "fatal":
            raise RunnerError(
                f"worker {worker.wid} could not rebuild the "
                f"{self.plan.experiment!r} plan: {message[2]}"
            )
        if kind == "start":
            # The shard is actually running now; the watchdog measures
            # from here, not from when the request entered the pipe.
            self.shards[message[2]].since = now
            return
        _, wid, shard_id, attempt, *body, delta = message
        self._merge_obs(delta, shard_id, attempt, wid)
        if kind == "err":
            failure_kind, detail = body
            self._fail(worker, failure_kind, detail, now)
            return
        payload, wall_s = body
        try:
            canonical_json(payload)
        except (TypeError, ValueError) as exc:
            detail = f"payload is not JSON-serialisable: {exc}"
            self._fail(worker, "garbage", detail, now)
            return
        self.store.write_shard(shard_id, payload)
        del self.shards[self.busy.pop(worker.wid)]
        self.executed += 1
        if self.rec.enabled:
            self.rec.event(
                "shard_completed",
                shard=shard_id,
                attempt=attempt,
                worker=wid,
                wall_s=round(wall_s, 6),
            )
            every = self.options.progress_every
            if every is not None and self.executed % every == 0:
                print(
                    f"obs: shard {shard_id} done in {wall_s:.2f}s on worker "
                    f"{wid} ({self.already_done + self.executed}/{self.total} "
                    f"on disk)",
                    file=sys.stderr,
                )

    def on_death(self, worker: _Worker, now: float) -> None:
        """``worker``'s process exited: forget it and fail its shard."""
        self._read(worker, now)  # a final "ok" may be queued; prefer it
        # The sentinel can fire a beat before the child is reaped, leaving
        # exitcode momentarily None; a short join closes that window.
        worker.proc.join(_STOP_GRACE_S)
        exitcode = worker.proc.exitcode
        self._remove(worker)
        shard_id = self.busy.get(worker.wid)
        if self.rec.enabled:
            self.rec.inc("repro_runner_worker_deaths_total")
            self.rec.event(
                "worker_died", worker=worker.wid, exitcode=exitcode, shard=shard_id
            )
        if shard_id is not None:
            detail = f"worker {worker.wid} died with exit code {exitcode}"
            self._fail(worker, "crash", detail, now)

    def on_overdue(self, worker: _Worker, now: float) -> None:
        """``worker`` outran ``--shard-deadline-s``: kill it, fail its shard."""
        self._read(worker, now)  # a just-finished result beats a kill
        shard_id = self.busy.get(worker.wid)
        if shard_id is None:
            return
        self._remove(worker)
        limit = self.options.shard_deadline_s
        if self.rec.enabled:
            self.rec.inc("repro_runner_shard_timeouts_total")
            self.rec.event(
                "worker_killed", worker=worker.wid, shard=shard_id, timeout_s=limit
            )
        detail = (
            f"no result within --shard-deadline-s={limit:g}s; "
            f"worker {worker.wid} killed"
        )
        self._fail(worker, "timeout", detail, now)

    def _fail(self, worker: _Worker, kind: str, detail: str, now: float) -> None:
        """The attempt running on ``worker`` failed; requeue its shard with
        backoff or quarantine it."""
        shard_id = self.busy.pop(worker.wid)
        st = self.shards[shard_id]
        policy = self.options.retry_policy
        st.failures.append({"attempt": st.attempts, "kind": kind, "detail": detail})
        if self.rec.enabled:
            self.rec.inc("repro_runner_shard_failures_total", labels=(("kind", kind),))
        if st.attempts >= policy.max_attempts:
            st.where = "quarantined"
            self._write_quarantine_record()
            self.rec.event(
                "shard_quarantined", shard=shard_id, attempts=st.attempts, kind=kind
            )
            print(
                f"runner: quarantining shard {shard_id!r} after "
                f"{st.attempts} attempt(s); last failure: {kind}: {detail}",
                file=sys.stderr,
            )
            return
        self.rec.event(
            "shard_retried",
            shard=shard_id,
            attempt=st.attempts,
            kind=kind,
            detail=detail,
        )
        if self.draining is None:
            st.eligible_at = now + policy.backoff_ms(st.attempts) / 1000.0
            self.gated.add(shard_id)
        st.where = "queued"
        self.shards[shard_id] = self.shards.pop(shard_id)  # to the back

    # -- resources and records ----------------------------------------------

    def _spawn(self) -> _Worker:
        ctx = mp.get_context(default_start_method())
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        wid = self.next_wid
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.plan.config, wid, self.rec.enabled),
            name=f"repro-shard-worker-{wid}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = self.workers[wid] = _Worker(wid=wid, proc=proc, conn=parent_conn)
        self.next_wid += 1
        if self.rec.enabled:
            self.rec.inc("repro_runner_worker_spawns_total")
            self.rec.set_gauge("repro_runner_workers", len(self.workers))
            self.rec.event("worker_spawned", worker=wid, pid=proc.pid)
        return worker

    def _remove(self, worker: _Worker) -> None:
        """Kill (if needed) and forget one worker."""
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(_STOP_GRACE_S)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(_STOP_GRACE_S)
        self.workers.pop(worker.wid, None)
        if self.rec.enabled:
            self.rec.set_gauge("repro_runner_workers", len(self.workers))

    def shutdown(self, now: float) -> None:
        """Ask idle workers to stop, give them until ``now`` plus a grace
        period, then kill whatever is left."""
        idle = [w for w in self.workers.values() if w.wid not in self.busy]
        for worker in idle:
            if worker.proc.is_alive():
                try:
                    worker.conn.send(("stop",))
                except (OSError, ValueError):
                    pass
        for worker in idle:
            worker.proc.join(max(now + _STOP_GRACE_S - time.monotonic(), 0.05))
        for worker in list(self.workers.values()):
            self._remove(worker)

    def _merge_obs(
        self, delta: dict | None, shard_id: str, attempt: int, wid: int
    ) -> None:
        """Fold one attempt's shipped obs delta into the parent recorder."""
        if not self.rec.enabled or delta is None:
            return
        try:
            self.rec.merge_delta(
                delta, extra_labels=(("shard", shard_id), ("worker", str(wid)))
            )
        except (ObsError, KeyError, TypeError, ValueError) as exc:
            print(
                f"obs: dropping undecodable delta for shard {shard_id} "
                f"attempt {attempt}: {exc}",
                file=sys.stderr,
            )
            return
        self.rec.inc("repro_obs_deltas_merged_total")

    def _write_quarantine_record(self) -> None:
        self.store.write_quarantine_record(
            {
                "format_version": QUARANTINE_FORMAT_VERSION,
                "experiment": self.plan.experiment,
                "max_attempts": self.options.retry_policy.max_attempts,
                "shards": {
                    shard_id: {"attempts": st.attempts, "failures": st.failures}
                    for shard_id, st in sorted(self.shards.items())
                    if st.where == "quarantined"
                },
            }
        )

    def _raise_if_stopped(self) -> None:
        """Turn a drained stop or a quarantine into its exception."""
        if self.draining == "signal":
            self.guard.check()  # raises RunInterruptedError naming the signal
        on_disk = self.already_done + self.executed
        if self.draining == "max-shards":
            raise RunInterruptedError(
                f"stopping after --max-shards={self.options.max_shards} "
                f"({on_disk}/{self.total} shards on disk); resume with --resume"
            )
        quarantined = sorted(
            sid for sid, st in self.shards.items() if st.where == "quarantined"
        )
        if quarantined:
            raise ShardQuarantinedError(
                f"{len(quarantined)} shard(s) quarantined after exhausting "
                f"{self.options.retry_policy.max_attempts} attempt(s) each: "
                f"{quarantined}; the other {on_disk} completed shard(s) are "
                f"checkpointed — see {self.store.quarantine_record_path} for "
                f"the failure evidence, fix the cause, then rerun with --resume"
            )
