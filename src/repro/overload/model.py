"""Overload protection: capacity, admission, queueing, circuit breakers.

The paper's §5 duty-cycling observation cuts both ways: thermal budgets not
only rotate satellites out of the cache fleet, they bound how many requests
a satellite that *is* in rotation can answer per slot. This module turns
that bound into a serving-path discipline:

* **Capacity** — each satellite (and the bent-pipe ground segment) carries
  a per-slot request budget, derived from
  :meth:`~repro.spacecdn.capacity.ThermalModel.sustainable_requests_per_slot`
  or set explicitly. Flash crowds
  (:class:`~repro.faults.processes.FlashCrowdProcess`) consume budget as
  background load before any real request is admitted.
* **Admission control** — requests carry a priority class; lower classes
  are shed at progressively lower utilisation thresholds, so a saturating
  satellite degrades by shedding bulk traffic first instead of collapsing
  for everyone at once.
* **Queueing delay** — admitted requests pay an M/M/1-style inflation
  ``service · ρ/(1−ρ)`` on top of the propagation RTT, so latency rises
  smoothly towards the knee rather than stepping at it.
* **Circuit breakers** — a closed/open/half-open state machine per target
  stops the fallback ladder from hammering rungs that keep refusing or
  failing; half-open probes (with seeded cooldown jitter) let a recovered
  target rejoin without a thundering herd.

Everything is deterministic in ``(seed, request order, simulated time)``:
the same request stream through the same model always sheds the same
requests with the same delays, scalar or batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.retry import DeadlineBudget
from repro.obs.recorder import get_recorder

if TYPE_CHECKING:  # runtime import stays lazy: spacecdn imports this module
    from repro.spacecdn.capacity import ThermalModel

GROUND_TARGET = -1
"""Breaker key for the bent-pipe ground rung (satellite indices are >= 0)."""

BREAKER_STATES = ("closed", "open", "half-open")
"""Every state a circuit breaker can be in, in gauge-rendering order."""


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Tuning for one per-target circuit breaker.

    ``failure_threshold`` consecutive failures open the breaker;
    after ``cooldown_s`` (plus seeded jitter up to ``cooldown_jitter_s``,
    so a correlated outage does not re-probe every target at the same
    instant) it half-opens and admits ``half_open_probes`` probe requests —
    one success closes it, one failure re-opens it with a fresh cooldown.
    """

    failure_threshold: int = 3
    cooldown_s: float = 120.0
    cooldown_jitter_s: float = 30.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_s <= 0:
            raise ConfigurationError(f"cooldown must be positive: {self.cooldown_s}")
        if self.cooldown_jitter_s < 0:
            raise ConfigurationError(
                f"negative cooldown jitter: {self.cooldown_jitter_s}"
            )
        if self.half_open_probes < 1:
            raise ConfigurationError(
                f"half-open probes must be >= 1, got {self.half_open_probes}"
            )


class CircuitBreaker:
    """The closed/open/half-open state machine for one serving target.

    Time is simulated seconds, pushed in by the caller — the breaker never
    reads a clock, which is what keeps overloaded runs reproducible.
    ``on_transition`` is the owning model's hook (state-count gauges,
    transition counters, trace spans); the breaker itself stays obs-free.
    """

    __slots__ = (
        "config", "seed", "target", "state", "on_transition",
        "_failures", "_opens", "_reopen_at", "_probes_left",
    )

    def __init__(
        self,
        config: CircuitBreakerConfig,
        seed: int,
        target: int,
        on_transition=None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.target = target
        self.on_transition = on_transition
        self.state = "closed"
        self._failures = 0
        self._opens = 0
        self._reopen_at = 0.0
        self._probes_left = 0

    def _transition(self, to: str, t_s: float) -> None:
        if to == self.state:
            return
        old, self.state = self.state, to
        if self.on_transition is not None:
            self.on_transition(self.target, old, to, t_s)

    def _cooldown_s(self) -> float:
        """This open's cooldown: base plus seeded jitter, per-open stream."""
        if self.config.cooldown_jitter_s <= 0:
            return self.config.cooldown_s
        rng = np.random.default_rng(
            (self.seed, 0xB4EA, self.target + 1, self._opens)
        )
        return self.config.cooldown_s + float(rng.random()) * (
            self.config.cooldown_jitter_s
        )

    def _open(self, t_s: float) -> None:
        self._opens += 1
        self._failures = 0
        self._reopen_at = t_s + self._cooldown_s()
        self._transition("open", t_s)

    def allow(self, t_s: float) -> bool:
        """Whether an attempt against this target may proceed at ``t_s``.

        Open breakers half-open themselves once the cooldown elapses; each
        ``allow`` in the half-open state consumes one probe slot.
        """
        if self.state == "closed":
            return True
        if self.state == "open":
            if t_s < self._reopen_at:
                return False
            self._probes_left = self.config.half_open_probes
            self._transition("half-open", t_s)
        if self._probes_left > 0:
            self._probes_left -= 1
            return True
        return False

    def record_success(self, t_s: float) -> None:
        """A completed attempt: closes a probing breaker, clears failures."""
        self._failures = 0
        if self.state != "closed":
            self._transition("closed", t_s)

    def record_failure(self, t_s: float) -> None:
        """A failed/refused attempt: trips or re-opens the breaker."""
        if self.state == "open":
            return
        if self.state == "half-open":
            self._open(t_s)
            return
        self._failures += 1
        if self._failures >= self.config.failure_threshold:
            self._open(t_s)


@dataclass
class OverloadModel:
    """Per-satellite capacity and the protections wrapped around it.

    Hand one to :class:`~repro.spacecdn.system.SpaceCdnSystem` and every
    request runs the overloaded serve path: priority-classed admission
    against per-slot capacity, M/M/1 queue-delay inflation, per-target
    circuit breakers, and an end-to-end deadline budget. A system without
    a model never touches this code — its output stays byte-identical.

    ``shed_thresholds[c]`` is the utilisation fraction above which priority
    class ``c`` is refused admission; class 0 (threshold 1.0) is only shed
    at hard capacity. ``priority_weights`` drive the seeded per-request
    class assignment used when the caller does not pass an explicit class.
    """

    capacity_per_slot: float = 50.0
    ground_capacity_per_slot: float = 200.0
    queue_service_ms: float = 4.0
    max_utilisation: float = 0.98
    max_queue_delay_ms: float = 400.0
    shed_thresholds: tuple[float, ...] = (1.0, 0.9, 0.75)
    priority_weights: tuple[float, ...] = (0.7, 0.2, 0.1)
    deadline_ms: float | None = None
    breaker: CircuitBreakerConfig | None = field(
        default_factory=CircuitBreakerConfig
    )
    seed: int = 0

    _slot: int = field(default=-1, repr=False)
    _load: np.ndarray | None = field(default=None, repr=False)
    _ground_load: float = field(default=0.0, repr=False)
    _background: np.ndarray | None = field(default=None, repr=False)
    _breakers: dict[int, CircuitBreaker] = field(default_factory=dict, repr=False)
    _state_counts: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not (self.capacity_per_slot > 0 and self.ground_capacity_per_slot > 0):
            raise ConfigurationError("capacities must be positive")
        if self.queue_service_ms < 0 or self.max_queue_delay_ms < 0:
            raise ConfigurationError("queue service time and cap must be >= 0")
        if not 0.0 < self.max_utilisation < 1.0:
            raise ConfigurationError(
                f"max utilisation must be in (0, 1), got {self.max_utilisation}"
            )
        if len(self.shed_thresholds) != len(self.priority_weights):
            raise ConfigurationError(
                f"{len(self.shed_thresholds)} shed thresholds for "
                f"{len(self.priority_weights)} priority classes"
            )
        if not self.shed_thresholds:
            raise ConfigurationError("at least one priority class is required")
        previous = float("inf")
        for threshold in self.shed_thresholds:
            if not 0.0 < threshold <= 1.0:
                raise ConfigurationError(
                    f"shed thresholds must be in (0, 1], got {threshold}"
                )
            if threshold > previous:
                raise ConfigurationError(
                    "shed thresholds must be non-increasing: lower-priority "
                    "classes cannot outlast higher ones"
                )
            previous = threshold
        if any(w <= 0 for w in self.priority_weights):
            raise ConfigurationError("priority weights must be positive")
        if self.deadline_ms is not None:
            DeadlineBudget(total_ms=self.deadline_ms)  # reuse its validation
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        self._state_counts = {state: 0 for state in BREAKER_STATES}

    @classmethod
    def from_thermal(
        cls,
        thermal: ThermalModel | None = None,
        peak_requests_per_slot: float = 100.0,
        slot_s: float = 600.0,
        **kwargs,
    ) -> "OverloadModel":
        """A model whose satellite capacity is the thermal duty budget.

        ``peak_requests_per_slot`` is what a satellite could serve running
        its payload flat-out for a whole slot; the admission limit is the
        thermally sustainable share of that.
        """
        from repro.spacecdn.capacity import ThermalModel

        if thermal is None:
            thermal = ThermalModel()
        capacity = thermal.sustainable_requests_per_slot(
            peak_requests_per_slot, slot_s
        )
        return cls(capacity_per_slot=float(capacity), **kwargs)

    @property
    def num_classes(self) -> int:
        return len(self.priority_weights)

    # -- per-slot state ------------------------------------------------------

    def begin_slot(
        self, slot: int, t_s: float, num_satellites: int, schedule
    ) -> None:
        """Reset per-slot load counters on entering a new snapshot slot.

        Idempotent within a slot. Breakers persist across slots (their
        cooldowns span slots by design); background load is recompiled from
        the fault schedule's flash-crowd processes at the slot instant.
        """
        if slot == self._slot and self._load is not None and (
            len(self._load) == num_satellites
        ):
            return
        self._slot = slot
        self._load = np.zeros(num_satellites)
        self._ground_load = 0.0
        self._background = (
            None if schedule is None
            else schedule.compile_load_at(t_s, num_satellites)
        )
        rec = get_recorder()
        if rec.enabled and self.breaker is not None:
            for state in BREAKER_STATES:
                rec.set_gauge(
                    "repro_breaker_state",
                    self._state_counts[state],
                    (("state", state),),
                )

    def _usage(self, satellite: int | None) -> float:
        if satellite is None:
            return self._ground_load
        usage = float(self._load[satellite])
        if self._background is not None:
            usage += float(self._background[satellite])
        return usage

    def _capacity(self, satellite: int | None) -> float:
        if satellite is None:
            return self.ground_capacity_per_slot
        return self.capacity_per_slot

    def utilisation(self, satellite: int | None) -> float:
        """Current slot utilisation of one target (``None`` = ground)."""
        return self._usage(satellite) / self._capacity(satellite)

    # -- the protections -----------------------------------------------------

    def validate_priority(self, priority: int) -> int:
        if not 0 <= priority < self.num_classes:
            raise ConfigurationError(
                f"priority class {priority} out of range "
                f"[0, {self.num_classes})"
            )
        return priority

    def priority_of(self, request_index: int) -> int:
        """The seeded priority class of request ``request_index``."""
        rng = np.random.default_rng((self.seed, 0x9A17, request_index))
        draw = float(rng.random()) * sum(self.priority_weights)
        acc = 0.0
        for cls, weight in enumerate(self.priority_weights):
            acc += weight
            if draw < acc:
                return cls
        return self.num_classes - 1

    def admit(self, satellite: int | None, priority: int) -> bool:
        """Whether one more request fits the target's class threshold."""
        threshold = self.shed_thresholds[priority]
        return self._usage(satellite) + 1.0 <= (
            self._capacity(satellite) * threshold
        )

    def queue_delay_ms(self, satellite: int | None) -> float:
        """M/M/1-style delay inflation at the target's current utilisation."""
        rho = min(self.utilisation(satellite), self.max_utilisation)
        if rho <= 0.0:
            return 0.0
        return min(
            self.queue_service_ms * rho / (1.0 - rho), self.max_queue_delay_ms
        )

    def note_served(self, satellite: int | None) -> None:
        """Charge one admitted-and-served request to the target's slot."""
        if satellite is None:
            self._ground_load += 1.0
        else:
            self._load[satellite] += 1.0

    def deadline_budget(self) -> DeadlineBudget:
        """A fresh per-request deadline budget (inert when unconfigured)."""
        return DeadlineBudget(total_ms=self.deadline_ms)

    def breaker_for(self, target: int) -> CircuitBreaker | None:
        """The (lazily created) breaker guarding one target.

        ``target`` is a satellite index or :data:`GROUND_TARGET`. ``None``
        when breakers are disabled on this model.
        """
        if self.breaker is None:
            return None
        breaker = self._breakers.get(target)
        if breaker is None:
            breaker = CircuitBreaker(
                self.breaker, self.seed, target, self._on_transition
            )
            self._breakers[target] = breaker
            self._state_counts["closed"] += 1
        return breaker

    def _on_transition(self, target: int, old: str, new: str, t_s: float) -> None:
        """Breaker obs hook: gauges, transition counter, one trace span."""
        self._state_counts[old] -= 1
        self._state_counts[new] += 1
        rec = get_recorder()
        if rec.enabled:
            rec.inc(
                "repro_breaker_transitions_total",
                (("from", old), ("to", new)),
            )
            if new == "open":
                # Windowed by the simulated time of the tripping request, so
                # the timeline dashboard can align breaker trips with the
                # shed/latency spikes they respond to.
                rec.window_inc(t_s, "repro_breaker_opens_total")
            for state in BREAKER_STATES:
                rec.set_gauge(
                    "repro_breaker_state",
                    self._state_counts[state],
                    (("state", state),),
                )
            rec.record_span(
                "breaker",
                target="ground" if target == GROUND_TARGET else target,
                from_state=old,
                to_state=new,
                t_s=t_s,
            )
