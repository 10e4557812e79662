"""Overload protection: capacity, admission, queueing, circuit breakers.

The paper's §5 duty-cycling observation rotates satellites out of the cache
fleet; a satellite that *is* in rotation can still answer only so many
requests per slot. This module turns that bound into a serving-path
discipline:

* **Capacity** — each satellite (and the bent-pipe ground segment) carries
  an explicit per-slot request budget. Flash crowds
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

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.retry import DeadlineBudget
from repro.obs.recorder import get_recorder

GROUND_TARGET = -1
"""Breaker key for the bent-pipe ground rung (satellite indices are >= 0)."""

BREAKER_STATES = ("closed", "open", "half-open")
"""Every state a circuit breaker can be in, in gauge-rendering order."""

QUEUE_SERVICE_MS = 4.0
"""Service time of the M/M/1 queue-delay inflation."""
MAX_UTILISATION = 0.98
"""Utilisation clamp of the queue-delay formula: it keeps ρ/(1−ρ) finite
and bounds one attempt's queue delay at 4 · 0.98/0.02 = 196 ms."""
SHED_THRESHOLDS = (1.0, 0.9, 0.75)
"""``SHED_THRESHOLDS[c]`` is the utilisation above which priority class
``c`` is refused admission; class 0 is only shed at hard capacity."""
PRIORITY_WEIGHTS = (0.7, 0.2, 0.1)
"""Weights of the seeded per-request class draw, one per priority class."""
NUM_CLASSES = len(PRIORITY_WEIGHTS)
_WEIGHT_TOTAL = sum(PRIORITY_WEIGHTS)

BREAKER_FAILURE_THRESHOLD = 3
"""Consecutive failures that open a closed breaker."""
BREAKER_COOLDOWN_S = 120.0
"""Base cooldown of an open breaker before it half-opens."""
BREAKER_COOLDOWN_JITTER_S = 30.0
"""Upper bound of the seeded jitter added to each cooldown, so a correlated
outage does not re-probe every target at the same instant."""
BREAKER_HALF_OPEN_PROBES = 1
"""Probe requests a half-open breaker admits."""


class CircuitBreaker:
    """The closed/open/half-open state machine for one serving target.

    :data:`BREAKER_FAILURE_THRESHOLD` consecutive failures open the breaker;
    after its cooldown (:data:`BREAKER_COOLDOWN_S` plus seeded jitter) it
    half-opens and admits :data:`BREAKER_HALF_OPEN_PROBES` probe requests —
    one success closes it, one failure re-opens it with a fresh cooldown.
    Time is simulated seconds, pushed in by the caller — the breaker never
    reads a clock, which is what keeps overloaded runs reproducible.
    ``on_transition`` is the owning model's hook (state-count gauges,
    transition counters, trace spans); the breaker itself stays obs-free.
    """

    __slots__ = (
        "seed", "target", "state", "on_transition",
        "_failures", "_opens", "_reopen_at", "_probes_left",
    )

    def __init__(self, seed: int, target: int, on_transition=None) -> None:
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
        rng = np.random.default_rng(
            (self.seed, 0xB4EA, self.target + 1, self._opens)
        )
        return BREAKER_COOLDOWN_S + float(rng.random()) * BREAKER_COOLDOWN_JITTER_S

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
            self._probes_left = BREAKER_HALF_OPEN_PROBES
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
        if self._failures >= BREAKER_FAILURE_THRESHOLD:
            self._open(t_s)


@dataclass
class OverloadModel:
    """Per-satellite capacity and the protections wrapped around it.

    Hand one to :class:`~repro.spacecdn.system.SpaceCdnSystem` and every
    request runs the overloaded serve path: priority-classed admission
    against per-slot capacity, M/M/1 queue-delay inflation, per-target
    circuit breakers, and an end-to-end deadline budget. A system without
    a model never touches this code — its output stays byte-identical.
    The tuning the CLI does not set is module constants: the admission
    thresholds, class weights, queue-delay formula and breaker timings.
    """

    capacity_per_slot: float = 50.0
    ground_capacity_per_slot: float = 200.0
    deadline_ms: float | None = None
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
        if self.deadline_ms is not None:
            DeadlineBudget(total_ms=self.deadline_ms)  # reuse its validation
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        self._state_counts = {state: 0 for state in BREAKER_STATES}

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
        if rec.enabled:
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

    def priority_of(self, request_index: int) -> int:
        """The seeded priority class of request ``request_index``."""
        rng = np.random.default_rng((self.seed, 0x9A17, request_index))
        draw = float(rng.random()) * _WEIGHT_TOTAL
        acc = 0.0
        for cls, weight in enumerate(PRIORITY_WEIGHTS):
            acc += weight
            if draw < acc:
                return cls
        return NUM_CLASSES - 1

    def admit(self, satellite: int | None, priority: int) -> bool:
        """Whether one more request fits the target's class threshold."""
        threshold = SHED_THRESHOLDS[priority]
        return self._usage(satellite) + 1.0 <= (
            self._capacity(satellite) * threshold
        )

    def queue_delay_ms(self, satellite: int | None) -> float:
        """M/M/1-style delay inflation at the target's current utilisation."""
        rho = min(self.utilisation(satellite), MAX_UTILISATION)
        if rho <= 0.0:
            return 0.0
        return QUEUE_SERVICE_MS * rho / (1.0 - rho)

    def note_served(self, satellite: int | None) -> None:
        """Charge one admitted-and-served request to the target's slot."""
        if satellite is None:
            self._ground_load += 1.0
        else:
            self._load[satellite] += 1.0

    def deadline_budget(self) -> DeadlineBudget:
        """A fresh per-request deadline budget (inert when unconfigured)."""
        return DeadlineBudget(total_ms=self.deadline_ms)

    def breaker_for(self, target: int) -> CircuitBreaker:
        """The (lazily created) breaker guarding one target.

        ``target`` is a satellite index or :data:`GROUND_TARGET`.
        """
        breaker = self._breakers.get(target)
        if breaker is None:
            breaker = CircuitBreaker(self.seed, target, self._on_transition)
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
                # the time series aligns breaker trips with the shed/latency
                # spikes they respond to.
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
