"""The whole-run wall-clock budget (``--deadline-s``).

The worker pool (:mod:`repro.runner.parallel`) checks it on every
supervisor tick and never waits past its remainder, so an expired budget
tears the pool down even while every worker is wedged. The per-shard
budget (``--shard-deadline-s``) is the pool's parent-side watchdog, which
kills an overdue worker; nothing here interrupts a shard in process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import DeadlineExceededError, RunnerError


@dataclass
class Deadline:
    """A whole-run wall-clock budget measured on the monotonic clock."""

    budget_s: float | None
    _started: float = field(default_factory=time.monotonic)

    def __post_init__(self) -> None:
        if self.budget_s is not None and self.budget_s <= 0:
            raise RunnerError(f"deadline must be positive, got {self.budget_s}")

    def remaining_s(self) -> float | None:
        """Seconds left, or ``None`` for an unbounded run."""
        if self.budget_s is None:
            return None
        return self.budget_s - (time.monotonic() - self._started)

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` once the budget is spent."""
        remaining = self.remaining_s()
        if remaining is not None and remaining <= 0:
            raise DeadlineExceededError(
                f"run deadline of {self.budget_s:g}s exceeded; completed "
                f"shards are checkpointed — resume with --resume and a new "
                f"deadline"
            )
