"""Composing fault processes into per-snapshot masks.

A :class:`FaultSchedule` owns a bag of fault processes (satellite outages,
ISL cuts and degradation, ground outages, transient per-attempt loss) and
compiles them, at any simulated instant, into a :class:`FaultView` — plain
masks and weight multipliers that the CSR routing core consumes directly.
:func:`apply_fault_view` turns a healthy snapshot into its degraded sibling
for the price of a node-mask union and one O(E) weight pass; the expensive
artifacts (positions, CSR topology) are always shared, never rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FaultConfigError
from repro.faults.processes import TransientAttemptLoss
from repro.obs.recorder import get_recorder
from repro.topology.graph import SnapshotGraph


@dataclass(frozen=True, eq=False)
class FaultView:
    """The compiled fault state at one instant.

    Everything the serving stack needs to degrade a snapshot: satellites to
    mask, links to cut, per-link latency multipliers (``None`` when no
    degradation is active), and the ground-segment state.
    """

    t_s: float
    failed_satellites: frozenset[int] = frozenset()
    cut_links: frozenset[int] = frozenset()
    link_multiplier: np.ndarray | None = None
    failed_grounds: frozenset[str] = frozenset()
    ground_segment_down: bool = False

    @property
    def is_clean(self) -> bool:
        """Whether this view degrades nothing at all."""
        return (
            not self.failed_satellites
            and not self.cut_links
            and self.link_multiplier is None
            and not self.failed_grounds
            and not self.ground_segment_down
        )


_ROLES = ("satellite", "link", "ground", "load")


def _role_of(process) -> str:
    """Classify a fault process by the query surface it implements."""
    if hasattr(process, "background_load"):
        return "load"
    if hasattr(process, "cut_links") or hasattr(process, "latency_multiplier"):
        return "link"
    if hasattr(process, "failed_grounds") or hasattr(process, "ground_segment_down"):
        return "ground"
    if hasattr(process, "failed_satellites"):
        return "satellite"
    raise FaultConfigError(
        f"{type(process).__name__} implements no fault-process interface"
    )


@dataclass
class FaultSchedule:
    """A composition of fault processes over simulation time.

    ``add`` dispatches processes to their role by duck type; ``compile_at``
    unions every process's answer into one :class:`FaultView`.
    ``wipe_caches_on_outage`` controls whether a satellite dropping out of
    the fleet (thermal duty-cycle exit, failure) loses its cache contents —
    on by default, since on-board caches do not survive a power cycle.
    """

    satellite_processes: list = field(default_factory=list)
    link_processes: list = field(default_factory=list)
    ground_processes: list = field(default_factory=list)
    load_processes: list = field(default_factory=list)
    attempt_loss: TransientAttemptLoss | None = None
    wipe_caches_on_outage: bool = True

    def add(self, process) -> "FaultSchedule":
        """Register a fault process; returns ``self`` for chaining."""
        if isinstance(process, TransientAttemptLoss):
            if self.attempt_loss is not None:
                raise FaultConfigError("only one attempt-loss process is allowed")
            self.attempt_loss = process
            return self
        role = _role_of(process)
        getattr(self, f"{role}_processes").append(process)
        return self

    @property
    def is_empty(self) -> bool:
        """Whether no *fault* process is registered (the healthy schedule).

        Load processes (flash crowds) deliberately do not count: they
        degrade nothing by themselves — they only matter to a system
        carrying an :class:`~repro.overload.OverloadModel`, which routes
        serving through the overloaded path regardless of this flag. A
        schedule holding only load processes therefore serves exactly as
        no schedule at all on systems without an overload model.
        """
        return (
            not self.satellite_processes
            and not self.link_processes
            and not self.ground_processes
            and self.attempt_loss is None
        )

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

    def compile_at(self, t_s: float, num_links: int) -> FaultView:
        """Union every process into the fault state at instant ``t_s``."""
        if t_s < 0:
            raise FaultConfigError(f"negative time: {t_s}")
        failed: set[int] = set()
        for process in self.satellite_processes:
            failed |= process.failed_satellites(t_s)

        cut: set[int] = set()
        multiplier: np.ndarray | None = None
        for process in self.link_processes:
            if hasattr(process, "cut_links"):
                cut |= process.cut_links(t_s, num_links)
            if hasattr(process, "latency_multiplier"):
                mult = process.latency_multiplier(t_s, num_links)
                if mult is not None:
                    multiplier = mult if multiplier is None else multiplier * mult

        grounds: set[str] = set()
        segment_down = False
        for process in self.ground_processes:
            if hasattr(process, "failed_grounds"):
                grounds |= process.failed_grounds(t_s)
            if hasattr(process, "ground_segment_down"):
                segment_down = segment_down or process.ground_segment_down(t_s)

        if failed or segment_down:
            rec = get_recorder()
            if rec.enabled:
                # Compiled once per snapshot slot (the serve path caches the
                # view), so each window records the fault state it ran under.
                if failed:
                    rec.window_inc(
                        t_s,
                        "repro_fault_failed_satellites",
                        value=float(len(failed)),
                    )
                if segment_down:
                    rec.window_inc(t_s, "repro_fault_ground_down_total")

        return FaultView(
            t_s=t_s,
            failed_satellites=frozenset(failed),
            cut_links=frozenset(cut),
            link_multiplier=multiplier,
            failed_grounds=frozenset(grounds),
            ground_segment_down=segment_down,
        )


def apply_fault_view(snapshot: SnapshotGraph, view: FaultView) -> SnapshotGraph:
    """The degraded sibling of a snapshot under one compiled fault view.

    Satellite failures become a node mask, link faults a per-link weight
    swap (see :func:`repro.topology.fastcore.degrade_core`); the original
    snapshot is never touched. Failed-satellite indices outside the
    snapshot's fleet are ignored so one schedule can drive shells of
    different sizes.
    """
    from repro.spacecdn.resilience import degrade_snapshot

    failed = frozenset(
        s for s in view.failed_satellites if 0 <= s < snapshot.core.num_nodes
    )
    return degrade_snapshot(
        snapshot,
        failed=failed,
        cut_links=view.cut_links,
        latency_multiplier=view.link_multiplier,
    )
