"""The runner itself: execute a shard plan crash-safely under a run dir.

Execution order is the plan's declared shard order, but nothing depends on
it: shards are order-independent by contract, completed shards are skipped
on resume, and the merge always reads every payload back from disk — so an
uninterrupted run and any interrupt/resume chain with the same seed emit
byte-identical results.

``jobs=1`` (the default) is the original serial in-process path,
byte-for-byte unchanged. ``jobs>1`` hands the pending shards to the
supervised worker pool in :mod:`repro.runner.parallel`; checkpointing,
manifest handling, and the merge stay here in the parent either way, and
``jobs`` is deliberately *not* part of the manifest, so any run can be
resumed at any width.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import (
    CheckpointError,
    DeadlineExceededError,
    RunInterruptedError,
    RunnerError,
    ShardExhaustedError,
    ShardTimeoutError,
)
from repro.faults.retry import RetryPolicy
from repro.obs.recorder import get_recorder
from repro.runner.deadline import Deadline, shard_watchdog
from repro.runner.interrupt import InterruptGuard
from repro.runner.shards import ExperimentPlan, set_current_attempt
from repro.runner.store import CheckpointStore, build_manifest, check_resume_compatible

DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=3, backoff_base_ms=100.0, backoff_cap_ms=2000.0
)
"""Shard retries reuse the fault-layer policy; here the backoff is *real*
sleep (the harness lives in wall-clock time, unlike the simulated clients)."""


@dataclass(frozen=True)
class RunnerOptions:
    """Knobs of one runner invocation (all optional)."""

    resume: bool = False
    deadline_s: float | None = None
    shard_deadline_s: float | None = None
    max_shards: int | None = None
    jobs: int = 1
    mp_start_method: str | None = None
    progress_every: int | None = None
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise RunnerError(f"--deadline-s must be positive, got {self.deadline_s}")
        if self.shard_deadline_s is not None and self.shard_deadline_s <= 0:
            raise RunnerError(
                f"--shard-deadline-s must be positive, got {self.shard_deadline_s}"
            )
        if self.max_shards is not None and self.max_shards < 1:
            raise RunnerError(f"--max-shards must be >= 1, got {self.max_shards}")
        if self.jobs < 1:
            raise RunnerError(f"--jobs must be >= 1, got {self.jobs}")
        if self.progress_every is not None and self.progress_every < 1:
            raise RunnerError(
                f"--progress-every must be >= 1, got {self.progress_every}"
            )
        valid_methods = (None, "fork", "spawn", "forkserver")
        if self.mp_start_method not in valid_methods:
            raise RunnerError(
                f"mp_start_method must be one of {valid_methods[1:]}, "
                f"got {self.mp_start_method!r}"
            )


@dataclass
class ExperimentRunner:
    """Executes one :class:`ExperimentPlan` under a checkpointed run dir."""

    plan: ExperimentPlan
    run_dir: str
    options: RunnerOptions = field(default_factory=RunnerOptions)

    def execute(self) -> str:
        """Run (or resume) to completion; returns the formatted result.

        Raises :class:`RunInterruptedError`, :class:`DeadlineExceededError`
        or :class:`ShardExhaustedError` on the corresponding early stops;
        in every case all completed shards are already flushed to disk.
        """
        store = CheckpointStore(self.run_dir)
        self._reconcile_manifest(store)
        deadline = Deadline(self.options.deadline_s)
        done = store.completed_shards(self.plan.shard_ids)
        pending = [sid for sid in self.plan.shard_ids if sid not in done]

        rec = get_recorder()
        if rec.enabled and (
            rec.events is None
            or getattr(rec.events, "path", None) != store.events_path
        ):
            # Wire the run event log once per run directory; a resumed run
            # appends its own segment after the interrupted one's.
            from repro.obs.events import EventLog

            rec.events = EventLog(store.events_path)
        rec.event(
            "run_start",
            experiment=self.plan.experiment,
            jobs=self.options.jobs,
            pending=len(pending),
            total=len(self.plan.shard_ids),
            resumed=self.options.resume,
        )

        started = time.perf_counter()
        try:
            with InterruptGuard() as guard:
                if self.options.jobs > 1 and pending:
                    from repro.runner.parallel import execute_pending_parallel

                    execute_pending_parallel(
                        plan=self.plan,
                        store=store,
                        options=self.options,
                        pending=pending,
                        deadline=deadline,
                        guard=guard,
                        already_done=len(done),
                    )
                else:
                    self._execute_serial(store, pending, deadline, guard, len(done))
        except RunInterruptedError as exc:
            rec.event("run_interrupted", detail=str(exc))
            raise
        except DeadlineExceededError as exc:
            rec.event("deadline_exceeded", detail=str(exc))
            raise
        finally:
            if rec.enabled:
                on_disk = sum(1 for _ in store.shard_dir.glob("*.json"))
                print(
                    f"obs: run {self.plan.experiment}: {on_disk}/"
                    f"{len(self.plan.shard_ids)} shards on disk after "
                    f"{time.perf_counter() - started:.2f}s "
                    f"(jobs={self.options.jobs})",
                    file=sys.stderr,
                )

        # Merge strictly from disk so an uninterrupted run and a resumed
        # one traverse the identical bytes.
        payloads = store.completed_shards(self.plan.shard_ids)
        missing = [sid for sid in self.plan.shard_ids if sid not in payloads]
        if missing:
            raise CheckpointError(
                f"checkpoints vanished between write and merge: {missing}"
            )
        with rec.timer("runner.merge"):
            text = self.plan.format(self.plan.merge(payloads))
        store.write_result_text(text)
        # Every shard is verified on disk; any earlier quarantine verdict
        # (a previous parallel run's evidence) is now obsolete.
        store.clear_quarantine_record()
        rec.event("run_completed", shards=len(payloads))
        return text

    def _execute_serial(
        self,
        store: CheckpointStore,
        pending: list[str],
        deadline: Deadline,
        guard: InterruptGuard,
        done_count: int,
    ) -> None:
        """The original one-process path, byte-for-byte unchanged."""
        rec = get_recorder()
        executed = 0
        for shard_id in pending:
            guard.check()
            deadline.check()
            if (
                self.options.max_shards is not None
                and executed >= self.options.max_shards
            ):
                raise RunInterruptedError(
                    f"stopping after --max-shards={self.options.max_shards} "
                    f"({done_count + executed}/{len(self.plan.shard_ids)} "
                    f"shards on disk); resume with --resume"
                )
            started = time.perf_counter()
            rec.event("shard_assigned", shard=shard_id, worker=0)
            with rec.timer("runner.shard"):
                payload = self._run_shard_with_retry(shard_id, deadline, guard)
            store.write_shard(shard_id, payload)
            executed += 1
            if rec.enabled:
                wall_s = round(time.perf_counter() - started, 6)
                rec.event(
                    "shard_completed", shard=shard_id, worker=0, wall_s=wall_s
                )
                every = self.options.progress_every
                if every is not None and executed % every == 0:
                    print(
                        f"obs: shard {shard_id} done in {wall_s:.2f}s "
                        f"({done_count + executed}/{len(self.plan.shard_ids)} "
                        f"on disk)",
                        file=sys.stderr,
                    )

    def _reconcile_manifest(self, store: CheckpointStore) -> None:
        manifest = build_manifest(self.plan)
        existing = store.load_manifest()
        if existing is None:
            store.write_manifest(manifest)
        elif not self.options.resume:
            raise RunnerError(
                f"run directory {store.run_dir} already holds a "
                f"{existing.get('experiment', '?')} run; pass --resume to "
                f"continue it or choose a fresh --out-dir"
            )
        else:
            check_resume_compatible(existing, manifest)

    def _run_shard_with_retry(
        self, shard_id: str, deadline: Deadline, guard: InterruptGuard
    ) -> Any:
        policy = self.options.retry_policy
        last_error: Exception | None = None
        for attempt in range(1, policy.max_attempts + 1):
            guard.check()
            deadline.check()
            set_current_attempt(attempt)
            try:
                with shard_watchdog(shard_id, self.options.shard_deadline_s, deadline):
                    return self.plan.run_shard(shard_id)
            except (DeadlineExceededError, RunInterruptedError):
                raise  # terminal: budget spent / operator asked to stop
            except ShardTimeoutError as exc:
                last_error = exc  # hung once; worth another attempt
            except Exception as exc:  # noqa: BLE001 - retry any shard failure
                last_error = exc
            finally:
                set_current_attempt(None)
            get_recorder().event(
                "shard_retried",
                shard=shard_id,
                attempt=attempt,
                kind=type(last_error).__name__,
                detail=str(last_error),
            )
            if attempt < policy.max_attempts:
                # Sliced wait: a first SIGINT during backoff is noticed
                # within one slice, and the loop's guard.check() turns it
                # into a prompt, checkpointed exit.
                guard.wait(
                    policy.backoff_ms(attempt) / 1000.0, self.options.sleep
                )
        raise ShardExhaustedError(
            f"shard {shard_id!r} failed {policy.max_attempts} attempt(s); "
            f"last error: {last_error}"
        ) from last_error
