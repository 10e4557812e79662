"""Supervised shard execution: a worker pool that expects to die.

Every ``--out-dir`` run executes its pending shards on ``--jobs`` worker
processes (one by default) under a parent-side supervisor; there is no
in-process executor beside it. The design treats workers as unreliable
by contract:

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
  serialisable delta per shard attempt, shipped inside the result message
  and parked in an atomic ``obs/`` sidecar the parent salvages if the
  worker dies first. The parent folds every delta into the run's
  recorder (:meth:`repro.obs.recorder.ObsRecorder.merge_delta`), so a
  ``--jobs 8`` run and a ``--jobs 1`` run report identical aggregate
  counters and histograms — and, because
  the windowed time-series pillar (:mod:`repro.obs.timeseries`) keys every
  cell by *simulated* time and stores only integers, byte-identical
  per-window series too, regardless of shard completion order.
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

import json
import multiprocessing as mp
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.atomicio import atomic_write_text
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

_post_sidecar_test_hook = None
"""Test seam: called as ``(shard_id, attempt)`` in the worker right after
its obs sidecar lands and before the result message is sent. Fork-started
workers inherit a monkeypatched value, letting tests kill a worker in the
exact window where the sidecar is the only surviving copy of its obs."""


def default_start_method() -> str:
    """``fork`` where the platform offers it (cheap, inherits registry
    registrations), else ``spawn``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def _worker_main(
    conn: Connection,
    config: dict[str, Any],
    worker_id: int,
    obs_sidecar_dir: str | None = None,
) -> None:
    """One worker process: rebuild the plan, then serve run requests.

    Never touches the checkpoint store — persistence is a parent-side
    concern. Ignores SIGINT (the parent owns interruption policy) and
    leaves SIGTERM at its default so the parent's ``terminate()`` works
    even mid-shard.

    With ``obs_sidecar_dir`` set (the parent runs instrumented) the worker
    records into its own live recorder and, after every shard attempt,
    drains it into a serialisable delta that travels back two ways: inside
    the result message, and as an atomic per-attempt sidecar file the
    parent salvages if this process dies before the message lands. With it
    unset the recorder is the no-op default and deltas are ``None``.
    """
    import signal as _signal

    _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    if hasattr(_signal, "SIGTERM"):
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    from repro.obs.recorder import ObsRecorder, reset_recorder, set_recorder

    if obs_sidecar_dir is None:
        reset_recorder()
    else:
        set_recorder(ObsRecorder())

    def _snapshot_and_park(shard_id: str, attempt: int) -> dict | None:
        """This attempt's obs as a delta, parked in a crash-salvage sidecar."""
        if obs_sidecar_dir is None:
            return None
        delta = get_recorder().snapshot_delta(drain=True)
        try:
            atomic_write_text(
                Path(obs_sidecar_dir) / f"{shard_id}.a{attempt}.json",
                json.dumps(
                    {
                        "shard": shard_id,
                        "attempt": attempt,
                        "worker": worker_id,
                        "delta": delta,
                    }
                ),
            )
        except OSError:
            pass  # salvage is best-effort; the pipe copy still ships
        hook = _post_sidecar_test_hook
        if hook is not None:
            hook(shard_id, attempt)
        return delta

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
            delta = _snapshot_and_park(shard_id, attempt)
            conn.send(
                (
                    "err",
                    worker_id,
                    shard_id,
                    attempt,
                    "exception",
                    f"{type(exc).__name__}: {exc}",
                    delta,
                )
            )
        else:
            wall_s = time.perf_counter() - started
            delta = _snapshot_and_park(shard_id, attempt)
            try:
                conn.send(("ok", worker_id, shard_id, attempt, payload, wall_s, delta))
            except Exception as exc:  # noqa: BLE001 - unpicklable payload
                conn.send(
                    (
                        "err",
                        worker_id,
                        shard_id,
                        attempt,
                        "garbage",
                        f"unsendable payload: {type(exc).__name__}: {exc}",
                        delta,
                    )
                )
        set_current_attempt(None)


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------


@dataclass
class _Worker:
    """Parent-side view of one worker process."""

    wid: int
    proc: Any
    conn: Connection
    shard: str | None = None
    attempt: int = 0
    busy_since: float = 0.0  # monotonic; reset by the worker's "start" ack


@dataclass
class _ShardState:
    """Retry bookkeeping for one pending shard."""

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
    has none before it writes anything). Returns the number of shards newly checkpointed. Raises
    :class:`RunInterruptedError` (drained stop), ``DeadlineExceededError``
    (via ``deadline.check``), :class:`ShardQuarantinedError` (some shards
    exhausted their budget), or :class:`RunnerError` (workers cannot
    rebuild the plan). In every case the pool is torn down and each
    completed shard is already flushed.
    """
    ctx = mp.get_context(default_start_method())
    policy = options.retry_policy
    rec = get_recorder()
    total = already_done + len(pending)

    state = {shard_id: _ShardState() for shard_id in pending}
    queue: deque[str] = deque(pending)
    workers: dict[int, _Worker] = {}
    quarantined: dict[str, _ShardState] = {}
    next_wid = 0
    executed = 0
    draining: str | None = None  # None | "signal" | "max-shards"
    merged: set[tuple[str, int]] = set()  # (shard, attempt) deltas folded in
    obs_sidecar_dir: str | None = None
    if rec.enabled:
        store.obs_dir.mkdir(parents=True, exist_ok=True)
        obs_sidecar_dir = str(store.obs_dir)

    def _sidecar_path(shard_id: str, attempt: int) -> Path:
        return store.obs_dir / f"{shard_id}.a{attempt}.json"

    def _discard_sidecar(shard_id: str, attempt: int) -> None:
        try:
            _sidecar_path(shard_id, attempt).unlink()
        except OSError:
            pass

    def _merge_worker_delta(
        delta: dict | None,
        shard_id: str,
        attempt: int,
        wid: int,
        salvaged: bool = False,
    ) -> None:
        """Fold one worker attempt's obs delta into the parent recorder.

        The ``merged`` set makes channel delivery and sidecar salvage of
        the same attempt idempotent: whichever copy arrives first wins,
        the other is discarded.
        """
        if not rec.enabled or delta is None or (shard_id, attempt) in merged:
            return
        merged.add((shard_id, attempt))
        try:
            rec.merge_delta(
                delta, extra_labels=(("shard", shard_id), ("worker", str(wid)))
            )
        except (ObsError, KeyError, TypeError, ValueError) as exc:
            print(
                f"obs: dropping undecodable delta for shard {shard_id} "
                f"attempt {attempt}: {exc}",
                file=sys.stderr,
            )
            return
        rec.inc(
            "repro_obs_deltas_salvaged_total"
            if salvaged
            else "repro_obs_deltas_merged_total"
        )
        _discard_sidecar(shard_id, attempt)

    def _salvage_sidecar(shard_id: str, attempt: int) -> None:
        """Recover a dead worker's parked obs delta, if the pipe lost it."""
        if not rec.enabled or (shard_id, attempt) in merged:
            return
        try:
            record = json.loads(_sidecar_path(shard_id, attempt).read_text())
            delta = record["delta"]
            wid = int(record.get("worker", -1))
        except (OSError, ValueError, KeyError, TypeError):
            return  # no sidecar (worker died pre-write) or a torn irrelevance
        _merge_worker_delta(delta, shard_id, attempt, wid, salvaged=True)
        rec.event("obs_salvaged", shard=shard_id, attempt=attempt, worker=wid)

    def _sweep_sidecars() -> None:
        """Final pass: salvage any unmerged sidecars, then clear the dir."""
        if not rec.enabled:
            return
        for path in sorted(store.obs_dir.glob("*.json")):
            name = path.name[: -len(".json")]
            shard_id, separator, raw_attempt = name.rpartition(".a")
            if separator and shard_id and raw_attempt.isdigit():
                _salvage_sidecar(shard_id, int(raw_attempt))
            try:
                path.unlink()
            except OSError:
                pass
        try:
            store.obs_dir.rmdir()
        except OSError:
            pass  # non-empty (foreign files) or already gone

    def _write_quarantine_record() -> None:
        store.write_quarantine_record(
            {
                "format_version": QUARANTINE_FORMAT_VERSION,
                "experiment": plan.experiment,
                "max_attempts": policy.max_attempts,
                "shards": {
                    shard_id: {
                        "attempts": st.attempts,
                        "failures": st.failures,
                    }
                    for shard_id, st in sorted(quarantined.items())
                },
            }
        )

    def _spawn() -> _Worker:
        nonlocal next_wid
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                plan.config,
                next_wid,
                obs_sidecar_dir,
            ),
            name=f"repro-shard-worker-{next_wid}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(wid=next_wid, proc=proc, conn=parent_conn)
        workers[next_wid] = worker
        next_wid += 1
        if rec.enabled:
            rec.inc("repro_runner_worker_spawns_total")
            rec.set_gauge("repro_runner_workers", len(workers))
            rec.event("worker_spawned", worker=worker.wid, pid=proc.pid)
        return worker

    def _remove(worker: _Worker) -> None:
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
        workers.pop(worker.wid, None)
        if rec.enabled:
            rec.set_gauge("repro_runner_workers", len(workers))

    def _fail(shard_id: str, attempt: int, kind: str, detail: str, now: float) -> None:
        """One attempt failed; requeue with backoff or quarantine."""
        st = state[shard_id]
        st.failures.append({"attempt": attempt, "kind": kind, "detail": detail})
        if rec.enabled:
            rec.inc("repro_runner_shard_failures_total", labels=(("kind", kind),))
        if st.attempts >= policy.max_attempts:
            quarantined[shard_id] = st
            _write_quarantine_record()
            rec.event(
                "shard_quarantined", shard=shard_id, attempts=st.attempts, kind=kind
            )
            print(
                f"runner: quarantining shard {shard_id!r} after "
                f"{st.attempts} attempt(s); last failure: {kind}: {detail}",
                file=sys.stderr,
            )
        else:
            rec.event(
                "shard_retried",
                shard=shard_id,
                attempt=attempt,
                kind=kind,
                detail=detail,
            )
            if draining is None:
                st.eligible_at = now + policy.backoff_ms(st.attempts) / 1000.0
            queue.append(shard_id)

    def _handle_message(worker: _Worker, message: tuple, now: float) -> None:
        nonlocal executed
        kind = message[0]
        if kind == "start":
            # The shard is actually running now; the watchdog measures
            # from here, not from when the request entered the pipe.
            worker.busy_since = now
            return
        if kind == "fatal":
            raise RunnerError(
                f"worker {worker.wid} could not rebuild the "
                f"{plan.experiment!r} plan: {message[2]}"
            )
        if kind == "ok":
            _, wid, shard_id, attempt, payload, wall_s, delta = message
            # Merge before the stale-echo check: even a shard the parent
            # has since failed elsewhere really did run — its obs counts.
            _merge_worker_delta(delta, shard_id, attempt, wid)
            if worker.shard != shard_id:
                return  # stale echo of a shard already failed elsewhere
            worker.shard = None
            try:
                canonical_json(payload)
            except (TypeError, ValueError) as exc:
                _fail(
                    shard_id,
                    attempt,
                    "garbage",
                    f"payload is not JSON-serialisable: {exc}",
                    now,
                )
                return
            store.write_shard(shard_id, payload)
            executed += 1
            if rec.enabled:
                rec.event(
                    "shard_completed",
                    shard=shard_id,
                    attempt=attempt,
                    worker=wid,
                    wall_s=round(wall_s, 6),
                )
                every = options.progress_every
                if every is not None and executed % every == 0:
                    print(
                        f"obs: shard {shard_id} done in {wall_s:.2f}s on "
                        f"worker {wid} ({already_done + executed}/{total} "
                        f"on disk)",
                        file=sys.stderr,
                    )
            return
        if kind == "err":
            _, wid, shard_id, attempt, failure_kind, detail, delta = message
            _merge_worker_delta(delta, shard_id, attempt, wid)
            if worker.shard != shard_id:
                return
            worker.shard = None
            _fail(shard_id, attempt, failure_kind, detail, now)

    def _drain_conn(worker: _Worker, now: float) -> None:
        while worker.wid in workers:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                return  # death is handled via the sentinel
            _handle_message(worker, message, now)

    def _handle_death(worker: _Worker, now: float) -> None:
        _drain_conn(worker, now)  # a final "ok" may be queued; prefer it
        if worker.wid not in workers:
            return
        # The sentinel can fire a beat before the child is reaped, leaving
        # exitcode momentarily None; a short join closes that window.
        worker.proc.join(_STOP_GRACE_S)
        exitcode = worker.proc.exitcode
        shard_id, attempt = worker.shard, worker.attempt
        _remove(worker)
        if rec.enabled:
            rec.inc("repro_runner_worker_deaths_total")
            rec.event(
                "worker_died",
                worker=worker.wid,
                exitcode=exitcode,
                shard=shard_id,
            )
        if shard_id is not None:
            # The worker may have parked this attempt's obs in its sidecar
            # after finishing the shard but before its result message
            # survived the pipe; that work happened, so salvage it.
            _salvage_sidecar(shard_id, attempt)
            _fail(
                shard_id,
                attempt,
                "crash",
                f"worker {worker.wid} died with exit code {exitcode}",
                now,
            )

    def _handle_overdue(worker: _Worker, now: float) -> None:
        _drain_conn(worker, now)  # a just-finished result beats a kill
        if worker.wid not in workers or worker.shard is None:
            return
        shard_id, attempt = worker.shard, worker.attempt
        _remove(worker)
        if rec.enabled:
            rec.inc("repro_runner_shard_timeouts_total")
            rec.event(
                "worker_killed",
                worker=worker.wid,
                shard=shard_id,
                timeout_s=options.shard_deadline_s,
            )
            _salvage_sidecar(shard_id, attempt)
        _fail(
            shard_id,
            attempt,
            "timeout",
            f"no result within --shard-deadline-s="
            f"{options.shard_deadline_s:g}s; worker {worker.wid} killed",
            now,
        )

    def _inflight() -> list[_Worker]:
        return [w for w in workers.values() if w.shard is not None]

    def _assign(now: float) -> None:
        while True:
            if options.max_shards is not None:
                busy = len(_inflight())
                if executed + busy >= options.max_shards:
                    return
            eligible = next(
                (s for s in queue if state[s].eligible_at <= now), None
            )
            if eligible is None:
                return
            worker = next(
                (w for w in workers.values() if w.shard is None), None
            )
            if worker is None:
                if len(workers) >= options.jobs:
                    return
                worker = _spawn()
            queue.remove(eligible)
            st = state[eligible]
            st.attempts += 1
            worker.shard = eligible
            worker.attempt = st.attempts
            worker.busy_since = now
            try:
                worker.conn.send(("run", eligible, st.attempts))
            except (OSError, ValueError):
                # Worker vanished between spawn and send; its sentinel
                # fires on the next tick and requeues the shard.
                return
            rec.event(
                "shard_assigned",
                shard=eligible,
                attempt=st.attempts,
                worker=worker.wid,
            )

    def _wait_timeout(now: float) -> float:
        timeout = _POLL_TIMEOUT_S
        if options.shard_deadline_s is not None:
            for worker in _inflight():
                due_in = options.shard_deadline_s - (now - worker.busy_since)
                timeout = min(timeout, max(due_in, 0.01))
        remaining = deadline.remaining_s()
        if remaining is not None:
            timeout = min(timeout, max(remaining, 0.01))
        for shard_id in queue:
            gate = state[shard_id].eligible_at - now
            if gate > 0:
                timeout = min(timeout, max(gate, 0.01))
        return timeout

    def _shutdown_pool() -> None:
        for worker in list(workers.values()):
            if worker.proc.is_alive() and worker.shard is None:
                try:
                    worker.conn.send(("stop",))
                except (OSError, ValueError):
                    pass
        patience = time.monotonic() + _STOP_GRACE_S
        for worker in list(workers.values()):
            if worker.shard is None:
                worker.proc.join(max(patience - time.monotonic(), 0.05))
        for worker in list(workers.values()):
            _remove(worker)

    try:
        while True:
            now = time.monotonic()
            deadline.check()  # expiry kills the pool via the finally below
            if draining is None and guard.interrupted:
                draining = "signal"
                rec.event("drain", reason="signal", inflight=len(_inflight()))
                print(
                    f"runner: interrupt received; draining "
                    f"{len(_inflight())} in-flight shard(s) before exiting",
                    file=sys.stderr,
                )
            if (
                draining is None
                and options.max_shards is not None
                and executed >= options.max_shards
            ):
                draining = "max-shards"
                rec.event("drain", reason="max-shards", inflight=len(_inflight()))
            if draining is not None:
                if not _inflight():
                    break
            else:
                if not queue and not _inflight():
                    break
                _assign(now)
                if not queue and not _inflight():
                    break
            timeout = _wait_timeout(now)
            by_conn = {w.conn: w for w in workers.values()}
            by_sentinel = {w.proc.sentinel: w for w in workers.values()}
            if by_conn:
                ready = connection_wait(
                    list(by_conn) + list(by_sentinel), timeout
                )
            else:
                time.sleep(min(timeout, _POLL_TIMEOUT_S))
                ready = []
            now = time.monotonic()
            for obj in ready:
                worker = by_conn.get(obj)
                if worker is not None and worker.wid in workers:
                    _drain_conn(worker, now)
            for obj in ready:
                worker = by_sentinel.get(obj)
                if worker is not None and worker.wid in workers:
                    _handle_death(worker, now)
            if options.shard_deadline_s is not None:
                for worker in list(workers.values()):
                    if (
                        worker.shard is not None
                        and now - worker.busy_since > options.shard_deadline_s
                    ):
                        _handle_overdue(worker, now)
    finally:
        _shutdown_pool()
        _sweep_sidecars()

    if draining == "signal":
        guard.check()  # raises RunInterruptedError naming the signal
    if draining == "max-shards":
        raise RunInterruptedError(
            f"stopping after --max-shards={options.max_shards} "
            f"({already_done + executed}/{total} shards on disk); "
            f"resume with --resume"
        )
    if quarantined:
        raise ShardQuarantinedError(
            f"{len(quarantined)} shard(s) quarantined after exhausting "
            f"{policy.max_attempts} attempt(s) each: "
            f"{sorted(quarantined)}; the other "
            f"{already_done + executed} completed shard(s) are "
            f"checkpointed — see {store.quarantine_record_path} for the "
            f"failure evidence, fix the cause, then rerun with --resume"
        )
    return executed
