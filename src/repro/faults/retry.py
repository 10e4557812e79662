"""Retry policy for the degraded serving path.

All quantities are *simulated* milliseconds: the backoff a real client would
sleep is added to the served request's RTT rather than slept, so fault
experiments stay instantaneous to run while reporting faithful user-visible
latencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import FaultConfigError
from repro.obs.recorder import get_recorder


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with exponential backoff.

    ``backoff_ms(k)`` is the simulated wait before retrying after failed
    attempt ``k``, ``base * 2**(k-1)`` capped at ``backoff_cap_ms``.
    """

    max_attempts: int = 3
    backoff_base_ms: float = 5.0
    backoff_cap_ms: float = 200.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        # Written so that NaN fails too: a NaN cap makes every backoff NaN,
        # and a NaN base silently yields the cap.
        if not (self.backoff_base_ms >= 0 and self.backoff_cap_ms >= 0):
            raise FaultConfigError(
                "backoff base and cap must be non-negative numbers, got "
                f"{self.backoff_base_ms} and {self.backoff_cap_ms}"
            )

    def backoff_ms(self, attempt: int) -> float:
        """Simulated backoff after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise FaultConfigError(f"attempt must be >= 1, got {attempt}")
        wait_ms = min(
            self.backoff_cap_ms,
            self.backoff_base_ms * 2.0 ** (attempt - 1),
        )
        rec = get_recorder()
        if rec.enabled:
            rec.inc("repro_retry_backoff_total")
            rec.inc("repro_retry_backoff_ms_total", value=wait_ms)
        return wait_ms


@dataclass
class DeadlineBudget:
    """End-to-end deadline for one request, spent as the ladder descends.

    A deadline budget is shared across every rung the request touches:
    simulated waits (backoff, wasted attempt time) are charged with
    :meth:`charge`, and :meth:`allows` gates the next attempt on the
    *remaining* budget — so a request that burned its deadline timing out
    on saturated space rungs cannot start a ground fetch it could never
    finish in time. ``total_ms=None`` disables the deadline (every attempt
    is allowed, nothing is tracked).
    """

    total_ms: float | None = None
    spent_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.total_ms is not None and not (
            math.isfinite(self.total_ms) and self.total_ms > 0
        ):
            raise FaultConfigError(
                f"deadline must be positive and finite, got {self.total_ms}"
            )
        if self.spent_ms < 0:
            raise FaultConfigError(
                f"spent budget must be non-negative, got {self.spent_ms}"
            )

    def charge(self, wait_ms: float) -> None:
        """Consume ``wait_ms`` of simulated waiting from the budget."""
        if wait_ms < 0:
            raise FaultConfigError(f"negative wait: {wait_ms}")
        self.spent_ms += wait_ms

    def allows(self, rtt_ms: float) -> bool:
        """Whether an attempt expected to take ``rtt_ms`` still fits."""
        return self.total_ms is None or self.spent_ms + rtt_ms <= self.total_ms
