"""Graceful SIGINT/SIGTERM handling for checkpointed runs.

The first signal only sets a flag; the worker pool notices it on its
next tick, stops assigning shards, lets the in-flight ones finish and
checkpoint, and exits with the interruption exit code — CI teardown or
preemption never loses completed work. A second signal aborts immediately
(the escape hatch for a shard that will not finish).
"""

from __future__ import annotations

import signal
import threading
from types import FrameType

from repro.errors import RunInterruptedError

_SIGNALS = (signal.SIGINT, signal.SIGTERM)


class InterruptGuard:
    """Context manager turning termination signals into checkpointed stops."""

    def __init__(self) -> None:
        self._flagged: str | None = None
        self._previous: dict[int, object] = {}
        self._installed = False

    def _handle(self, signum: int, frame: FrameType | None) -> None:
        name = signal.Signals(signum).name
        if self._flagged is not None:
            raise RunInterruptedError(
                f"second {name} received; aborting without waiting for the "
                f"current shard"
            )
        self._flagged = name

    def __enter__(self) -> "InterruptGuard":
        # Signal handlers can only be installed from the main thread; a
        # runner driven from a worker thread simply runs unguarded.
        if threading.current_thread() is threading.main_thread():
            for signum in _SIGNALS:
                self._previous[signum] = signal.signal(signum, self._handle)
            self._installed = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._installed:
            for signum, previous in self._previous.items():
                signal.signal(signum, previous)
            self._installed = False

    @property
    def interrupted(self) -> bool:
        return self._flagged is not None

    def check(self) -> None:
        """Raise if a termination signal arrived (the pool calls this once
        its in-flight shards have drained)."""
        if self._flagged is not None:
            raise RunInterruptedError(
                f"received {self._flagged}; completed shards are "
                f"checkpointed — resume with --resume"
            )
