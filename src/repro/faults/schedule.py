"""Composing fault processes into per-snapshot masks.

A :class:`FaultSchedule` owns the fault processes (satellite outage
windows, flash-crowd load, transient per-attempt loss) and compiles the
outages, at any simulated instant, into a :class:`FaultView` — the failed
satellite set that the CSR routing core masks out.
:func:`apply_fault_view` turns a healthy snapshot into its degraded sibling
for the price of a node-mask union; the expensive artifacts (positions,
CSR topology) are always shared, never rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FaultConfigError
from repro.faults.processes import (
    FlashCrowdProcess,
    OutageWindow,
    TransientAttemptLoss,
)
from repro.obs.recorder import get_recorder
from repro.topology.graph import SnapshotGraph


@dataclass(frozen=True)
class FaultView:
    """The compiled fault state at one instant: the satellites to mask."""

    t_s: float
    failed_satellites: frozenset[int] = frozenset()


@dataclass
class FaultSchedule:
    """A composition of fault processes over simulation time.

    ``add`` files each process by its class; ``compile_at`` unions every
    outage into one :class:`FaultView`. A satellite dropping out of the
    fleet (thermal duty-cycle exit, failure) loses its cache contents,
    since on-board caches do not survive a power cycle.
    """

    satellite_processes: list[OutageWindow] = field(default_factory=list)
    load_processes: list[FlashCrowdProcess] = field(default_factory=list)
    attempt_loss: TransientAttemptLoss | None = None

    def add(self, process) -> "FaultSchedule":
        """Register a fault process; returns ``self`` for chaining."""
        if isinstance(process, TransientAttemptLoss):
            if self.attempt_loss is not None:
                raise FaultConfigError("only one attempt-loss process is allowed")
            self.attempt_loss = process
        elif isinstance(process, OutageWindow):
            self.satellite_processes.append(process)
        elif isinstance(process, FlashCrowdProcess):
            self.load_processes.append(process)
        else:
            raise FaultConfigError(
                f"{type(process).__name__} is not a fault process"
            )
        return self

    @property
    def is_empty(self) -> bool:
        """Whether no *fault* process is registered (the healthy schedule).

        Load processes (flash crowds) deliberately do not count: they
        degrade nothing by themselves — they only matter to a system
        carrying an :class:`~repro.overload.model.OverloadModel`, which routes
        serving through the overloaded path regardless of this flag. A
        schedule holding only load processes therefore serves exactly as
        no schedule at all on systems without an overload model.
        """
        return not self.satellite_processes and self.attempt_loss is None

    def attempt_lost(self, request_index: int, attempt: int) -> bool:
        """Whether transient loss kills this (request, attempt) pair."""
        if self.attempt_loss is None:
            return False
        return self.attempt_loss.lost(request_index, attempt)

    def compile_load_at(self, t_s: float, num_satellites: int) -> np.ndarray | None:
        """Sum every load process's background load at instant ``t_s``.

        Returns a per-satellite array of extra offered requests per slot, or
        ``None`` when no load process is active — the overload model treats
        ``None`` as zero background everywhere without allocating.
        """
        if t_s < 0:
            raise FaultConfigError(f"negative time: {t_s}")
        total: np.ndarray | None = None
        for process in self.load_processes:
            load = process.background_load(t_s, num_satellites)
            if load is None:
                continue
            total = load.copy() if total is None else total + load
        if total is not None:
            rec = get_recorder()
            if rec.enabled:
                # One compile per snapshot slot, keyed by simulated time: the
                # timeline shows the flash crowd exactly where it was active.
                rec.window_inc(
                    t_s, "repro_fault_background_load", value=float(total.sum())
                )
        return total

    def compile_at(self, t_s: float) -> FaultView:
        """Union every outage into the fault state at instant ``t_s``."""
        if t_s < 0:
            raise FaultConfigError(f"negative time: {t_s}")
        failed: set[int] = set()
        for process in self.satellite_processes:
            failed |= process.failed_satellites(t_s)
        if failed:
            rec = get_recorder()
            if rec.enabled:
                # Compiled once per snapshot slot (the serve path caches the
                # view), so each window records the fault state it ran under.
                rec.window_inc(
                    t_s, "repro_fault_failed_satellites", value=float(len(failed))
                )
        return FaultView(t_s=t_s, failed_satellites=frozenset(failed))


def apply_fault_view(snapshot: SnapshotGraph, view: FaultView) -> SnapshotGraph:
    """The degraded sibling of a snapshot under one compiled fault view.

    Satellite failures become a node mask over the shared CSR core (see
    :func:`repro.spacecdn.resilience.fail_satellites`); the original
    snapshot is never touched. Failed-satellite indices outside the
    snapshot's fleet are ignored so one schedule can drive shells of
    different sizes.
    """
    from repro.spacecdn.resilience import fail_satellites

    failed = frozenset(
        s for s in view.failed_satellites if 0 <= s < snapshot.core.num_nodes
    )
    return fail_satellites(snapshot, failed)
