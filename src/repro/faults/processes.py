"""Seeded, deterministic fault processes over simulation time.

Each process answers point-in-time queries and is fully determined by its
configuration — the answer never depends on the order or history of
queries, which is what makes fault experiments reproducible and lets
snapshots be rebuilt at any instant.

:class:`OutageWindow` answers ``failed_satellites(t_s)``;
:class:`FlashCrowdProcess` answers ``background_load(t_s, num_satellites)``.
:class:`TransientAttemptLoss` is the odd one out: it models per-attempt
packet-level loss inside one request and is keyed on (request, attempt)
rather than wall-clock time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import FaultConfigError


def _check_window(start_s: float, end_s: float) -> None:
    if not 0.0 <= start_s < end_s:
        raise FaultConfigError(
            f"fault window must satisfy 0 <= start < end, got [{start_s}, {end_s})"
        )


@dataclass(frozen=True)
class OutageWindow:
    """A scheduled outage: ``satellites`` are down during ``[start, end)``.

    The deterministic building block for duty-cycle exits, planned
    maintenance, and fixed failure-fraction experiments.
    """

    satellites: frozenset[int]
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if any(s < 0 for s in self.satellites):
            raise FaultConfigError("negative satellite index in outage window")

    def failed_satellites(self, t_s: float) -> frozenset[int]:
        if self.start_s <= t_s < self.end_s:
            return self.satellites
        return frozenset()


@dataclass(frozen=True)
class FlashCrowdProcess:
    """A load spike: extra background demand on satellites during a window.

    Where an outage *removes* capacity, a flash crowd *consumes* it: during
    ``[start, end)`` every satellite carries ``extra_requests_per_slot`` of
    background load that the overload model's admission controller must
    account for before admitting real requests.

    Composable through :class:`~repro.faults.schedule.FaultSchedule` like
    any fault process, but inert unless the serving system also carries an
    :class:`~repro.overload.model.OverloadModel` — background load without a
    capacity model has nothing to saturate.
    """

    extra_requests_per_slot: float
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if not self.extra_requests_per_slot >= 0:
            raise FaultConfigError(
                f"extra load must be non-negative, got "
                f"{self.extra_requests_per_slot}"
            )

    def background_load(self, t_s: float, num_satellites: int) -> np.ndarray | None:
        """Per-satellite background requests-per-slot at ``t_s``.

        ``None`` when the spike is inactive (the common case costs no
        array).
        """
        if t_s < 0:
            raise FaultConfigError(f"negative time: {t_s}")
        if not self.start_s <= t_s < self.end_s or self.extra_requests_per_slot <= 0:
            return None
        return np.full(num_satellites, self.extra_requests_per_slot)


@dataclass(frozen=True)
class TransientAttemptLoss:
    """Per-attempt transient loss: attempt ``k`` of request ``i`` vanishes.

    Models handover-induced stalls and deep fades that kill one fetch
    attempt without taking the satellite down. Deterministic in
    ``(seed, request, attempt)`` so a rerun replays the same losses
    regardless of how many requests preceded it.
    """

    probability: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise FaultConfigError(
                f"loss probability must be in [0, 1], got {self.probability}"
            )

    def lost(self, request_index: int, attempt: int) -> bool:
        if self.probability <= 0.0:
            return False
        if self.probability >= 1.0:
            return True
        rng = np.random.default_rng((self.seed, request_index, attempt))
        return bool(rng.random() < self.probability)
