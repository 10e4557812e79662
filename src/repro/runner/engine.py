"""The runner itself: execute a shard plan crash-safely under a run dir.

Every run hands its pending shards to the supervised worker pool in
:mod:`repro.runner.parallel`; ``jobs=1`` (the default) is a one-worker
pool, so a run of any width survives a crashed, killed or hung shard the
same way. Checkpointing, manifest handling and the merge stay here in the
parent, and ``jobs`` is deliberately *not* part of the manifest, so any
run can be resumed at any width.

Nothing depends on execution order: shards are order-independent by
contract, completed shards are skipped on resume, and the merge always
reads every payload back from disk — so an uninterrupted run and any
interrupt/resume chain with the same seed emit byte-identical results.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from repro.errors import (
    CheckpointError,
    DeadlineExceededError,
    RunInterruptedError,
    RunnerError,
)
from repro.faults.retry import RetryPolicy
from repro.obs.recorder import get_recorder
from repro.runner.deadline import Deadline
from repro.runner.interrupt import InterruptGuard
from repro.runner.parallel import execute_pending_parallel
from repro.runner.registry import has_plan_builder
from repro.runner.shards import ExperimentPlan
from repro.runner.store import CheckpointStore, build_manifest, check_resume_compatible

DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=3, backoff_base_ms=100.0, backoff_cap_ms=2000.0
)
"""Shard retries reuse the fault-layer policy; here the backoff is *real*
wall-clock time (the harness lives in wall-clock time, unlike the
simulated clients): the pool holds a failed shard back that long."""


@dataclass(frozen=True)
class RunnerOptions:
    """Knobs of one runner invocation (all optional)."""

    resume: bool = False
    deadline_s: float | None = None
    shard_deadline_s: float | None = None
    max_shards: int | None = None
    jobs: int = 1
    progress_every: int | None = None
    retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY

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


@dataclass
class ExperimentRunner:
    """Executes one :class:`ExperimentPlan` under a checkpointed run dir."""

    plan: ExperimentPlan
    run_dir: str
    options: RunnerOptions = field(default_factory=RunnerOptions)

    def execute(self) -> str:
        """Run (or resume) to completion; returns the formatted result.

        Raises :class:`RunInterruptedError`, :class:`DeadlineExceededError`
        or :class:`~repro.errors.ShardQuarantinedError` on the
        corresponding early stops; in every case all completed shards are
        already flushed to disk. A plan the workers cannot rebuild is
        refused before anything is written.
        """
        if not has_plan_builder(self.plan.experiment):
            raise RunnerError(
                f"workers rebuild the {self.plan.experiment!r} plan from its "
                f"config, but no plan builder is registered for it; register "
                f"one via repro.runner.registry.register_plan_builder"
            )
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
                if pending:
                    execute_pending_parallel(
                        plan=self.plan,
                        store=store,
                        options=self.options,
                        pending=pending,
                        deadline=deadline,
                        guard=guard,
                        already_done=len(done),
                    )
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
        # (a previous run's evidence) is now obsolete.
        store.clear_quarantine_record()
        rec.event("run_completed", shards=len(payloads))
        return text

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
