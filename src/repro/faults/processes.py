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
    ``[start, end)`` the listed satellites (``None`` = the whole fleet) each
    carry ``extra_requests_per_slot`` of background load that the overload
    model's admission controller must account for before admitting real
    requests. ``ramp_s`` shapes the spike edges linearly — real flash
    crowds build and drain over minutes, and the ramp keeps availability
    curves smooth instead of stepping.

    Composable through :class:`~repro.faults.schedule.FaultSchedule` like
    any fault process, but inert unless the serving system also carries an
    :class:`~repro.overload.model.OverloadModel` — background load without a
    capacity model has nothing to saturate.
    """

    extra_requests_per_slot: float
    satellites: frozenset[int] | None = None
    start_s: float = 0.0
    end_s: float = math.inf
    ramp_s: float = 0.0

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if not self.extra_requests_per_slot >= 0:
            raise FaultConfigError(
                f"extra load must be non-negative, got "
                f"{self.extra_requests_per_slot}"
            )
        if self.ramp_s < 0:
            raise FaultConfigError(f"negative ramp: {self.ramp_s}")
        if self.satellites is not None:
            if not self.satellites:
                raise FaultConfigError(
                    "empty satellite set; use satellites=None for fleet-wide load"
                )
            if any(s < 0 for s in self.satellites):
                raise FaultConfigError("negative satellite index in flash crowd")

    def _intensity(self, t_s: float) -> float:
        """The spike's load share at ``t_s`` (0 outside, ramped at edges)."""
        if not self.start_s <= t_s < self.end_s:
            return 0.0
        if self.ramp_s <= 0:
            return 1.0
        edge = min(t_s - self.start_s, self.end_s - t_s)
        return min(1.0, edge / self.ramp_s)

    def background_load(self, t_s: float, num_satellites: int) -> np.ndarray | None:
        """Per-satellite background requests-per-slot at ``t_s``.

        ``None`` when the spike is inactive (the common case costs no
        array). Satellite indices beyond the fleet are ignored so one
        process can drive shells of different sizes.
        """
        if t_s < 0:
            raise FaultConfigError(f"negative time: {t_s}")
        weight = self._intensity(t_s) * self.extra_requests_per_slot
        if weight <= 0.0:
            return None
        load = np.zeros(num_satellites)
        if self.satellites is None:
            load[:] = weight
            return load
        ids = np.asarray(
            sorted(s for s in self.satellites if s < num_satellites),
            dtype=np.int64,
        )
        if ids.size == 0:
            return None
        load[ids] = weight
        return load


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
