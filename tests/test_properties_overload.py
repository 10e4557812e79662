"""Property tests: overload protection invariants under Hypothesis.

Three contracts pinned here:

* ``serve_batch`` and ``serve`` match the per-request reference walker
  (``tests/serve_reference.py``) on *overloaded* streams too: element-wise
  identical results, stats, cache contents and holders index, with a flash
  crowd and with or without fault schedules, for arbitrary request streams
  and model tunings (the capacity counters, breakers, deadline budgets,
  and seeded priority draws must all advance in exactly the request order).
* :class:`~repro.faults.retry.RetryPolicy` edges: backoff is monotone
  non-decreasing and capped, ``within_budget`` is inclusive at exactly the
  budget, and attempt 0 is a configuration error.
* :class:`~repro.spacecdn.capacity.ThermalModel`: the sustainable duty
  fraction lives in [0, 1] and is monotone in the thermal headroom
  (time constant and limit), and ``time_to_limit_s`` is 0 for a start
  already at/above the limit and ``inf`` when the active equilibrium
  never reaches it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.content import build_catalog
from repro.errors import FaultConfigError
from repro.faults import (
    FaultSchedule,
    FlashCrowdProcess,
    OutageWindow,
    RetryPolicy,
    TransientAttemptLoss,
)
from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import ShellConfig
from repro.orbits.walker import build_walker_delta
from repro.overload import CircuitBreakerConfig, OverloadModel
from repro.spacecdn.capacity import ThermalModel
from repro.spacecdn.system import SpaceCdnSystem
from serve_reference import (
    ReferenceCdn,
    assert_same_state,
    serve_cohorts,
    serve_each,
)

CONSTELLATION = build_walker_delta(
    ShellConfig(
        altitude_km=550.0,
        inclination_deg=53.0,
        num_planes=6,
        sats_per_plane=8,
        phase_offset=3,
        name="overload-prop-shell",
    )
)
CATALOG = build_catalog(
    np.random.default_rng(0), 30, regions=("africa",), kind_weights={"web": 1.0}
)
OBJECTS = sorted(o.object_id for o in CATALOG)
USERS = [
    GeoPoint(0.0, 0.0, 0.0),
    GeoPoint(-1.3, 36.8, 0.0),  # Nairobi
    GeoPoint(6.5, 3.4, 0.0),  # Lagos
]


@st.composite
def overload_models(draw):
    """Arbitrary-but-valid model tunings, biased towards actual overload."""
    breaker = None
    if draw(st.booleans()):
        breaker = CircuitBreakerConfig(
            failure_threshold=draw(st.integers(min_value=1, max_value=4)),
            cooldown_s=draw(st.floats(min_value=1.0, max_value=300.0)),
            cooldown_jitter_s=draw(st.floats(min_value=0.0, max_value=60.0)),
            half_open_probes=draw(st.integers(min_value=1, max_value=3)),
        )
    return OverloadModel(
        capacity_per_slot=draw(st.floats(min_value=1.0, max_value=8.0)),
        ground_capacity_per_slot=draw(st.floats(min_value=1.0, max_value=20.0)),
        queue_service_ms=draw(st.floats(min_value=0.0, max_value=20.0)),
        deadline_ms=draw(
            st.one_of(st.none(), st.floats(min_value=50.0, max_value=2000.0))
        ),
        breaker=breaker,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


@st.composite
def request_specs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    t = 0.0
    spec = []
    for _ in range(n):
        t += draw(st.floats(min_value=0.0, max_value=30.0))
        spec.append(
            (
                draw(st.integers(min_value=0, max_value=len(USERS) - 1)),
                draw(st.integers(min_value=0, max_value=len(OBJECTS) - 1)),
                t,
            )
        )
    return spec


def make_system(model, schedule, cls=SpaceCdnSystem):
    system = cls(
        constellation=CONSTELLATION,
        catalog=CATALOG,
        cache_bytes_per_satellite=10**8,
        max_hops=6,
        fault_schedule=schedule,
        overload=model,
    )
    system.preload(
        {
            oid: frozenset(
                {(i * 7) % len(CONSTELLATION), (i * 13 + 5) % len(CONSTELLATION)}
            )
            for i, oid in enumerate(OBJECTS[:12])
        }
    )
    return system


def overload_schedule(seed: int, faulted: bool) -> FaultSchedule:
    schedule = FaultSchedule().add(
        FlashCrowdProcess(
            extra_requests_per_slot=2.0, start_s=50.0, end_s=400.0, ramp_s=30.0
        )
    )
    if faulted:
        schedule.add(
            OutageWindow(satellites=frozenset(range(0, len(CONSTELLATION), 9)))
        ).add(TransientAttemptLoss(probability=0.2, seed=seed))
    return schedule


def assert_matches_reference(model_factory, schedule_factory, spec, priorities=None):
    """``serve`` one by one and ``serve_batch`` per slot both match the
    reference walker's results and end state."""
    args = (
        [USERS[u] for u, _, _ in spec],
        [OBJECTS[o] for _, o, _ in spec],
        [t for _, _, t in spec],
        priorities,
    )
    reference = make_system(model_factory(), schedule_factory(), ReferenceCdn)
    expected = serve_each(reference, *args)
    for serve in (serve_each, serve_cohorts):
        system = make_system(model_factory(), schedule_factory())
        assert serve(system, *args) == expected, serve.__name__
        assert_same_state(system, reference, OBJECTS)


class TestBatchEquivalenceUnderOverload:
    @given(model=overload_models(), spec=request_specs())
    @settings(max_examples=25, deadline=None)
    def test_healthy_cohorts_match_scalar(self, model, spec):
        assert_matches_reference(
            lambda: eval_model_copy(model),
            lambda: overload_schedule(model.seed, faulted=False),
            spec,
        )

    @given(model=overload_models(), spec=request_specs())
    @settings(max_examples=25, deadline=None)
    def test_faulted_cohorts_match_scalar(self, model, spec):
        assert_matches_reference(
            lambda: eval_model_copy(model),
            lambda: overload_schedule(model.seed, faulted=True),
            spec,
        )

    @given(spec=request_specs(), seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=15, deadline=None)
    def test_explicit_priorities_match_scalar(self, spec, seed):
        rng = np.random.default_rng(seed)
        assert_matches_reference(
            lambda: OverloadModel(
                capacity_per_slot=2.0, ground_capacity_per_slot=4.0, seed=seed
            ),
            lambda: overload_schedule(seed, faulted=False),
            spec,
            priorities=[int(rng.integers(0, 3)) for _ in spec],
        )


def eval_model_copy(model: OverloadModel) -> OverloadModel:
    """A fresh model with the same tuning (per-slot state not shared)."""
    return OverloadModel(
        capacity_per_slot=model.capacity_per_slot,
        ground_capacity_per_slot=model.ground_capacity_per_slot,
        queue_service_ms=model.queue_service_ms,
        max_utilisation=model.max_utilisation,
        max_queue_delay_ms=model.max_queue_delay_ms,
        shed_thresholds=model.shed_thresholds,
        priority_weights=model.priority_weights,
        deadline_ms=model.deadline_ms,
        breaker=model.breaker,
        seed=model.seed,
    )


class TestRetryPolicyEdges:
    @given(
        base=st.floats(min_value=0.0, max_value=100.0),
        multiplier=st.floats(min_value=1.0, max_value=4.0),
        cap=st.floats(min_value=0.0, max_value=500.0),
        attempts=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_backoff_is_monotone_and_capped(self, base, multiplier, cap, attempts):
        policy = RetryPolicy(
            backoff_base_ms=base, backoff_multiplier=multiplier,
            backoff_cap_ms=cap,
        )
        waits = [policy.backoff_ms(k) for k in range(1, attempts + 1)]
        assert all(w <= cap for w in waits)
        assert all(a <= b for a, b in zip(waits, waits[1:]))
        assert waits[0] == min(cap, base)

    @given(budget=st.floats(min_value=0.001, max_value=10_000.0))
    @settings(max_examples=50, deadline=None)
    def test_within_budget_is_inclusive_at_the_edge(self, budget):
        policy = RetryPolicy(attempt_budget_ms=budget)
        assert policy.within_budget(budget)
        assert policy.within_budget(math.nextafter(budget, -math.inf))
        assert not policy.within_budget(math.nextafter(budget, math.inf))

    def test_attempt_zero_is_a_config_error(self):
        policy = RetryPolicy()
        with pytest.raises(FaultConfigError):
            policy.backoff_ms(0)
        with pytest.raises(FaultConfigError):
            policy.backoff_ms(-3)

    def test_no_budget_means_every_rtt_fits(self):
        assert RetryPolicy().within_budget(float("inf"))


class TestThermalModelProperties:
    @given(
        tau=st.floats(min_value=300.0, max_value=20_000.0),
        limit=st.floats(min_value=19.0, max_value=45.0),
        slot_s=st.floats(min_value=60.0, max_value=1800.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_duty_fraction_is_a_fraction(self, tau, limit, slot_s):
        model = ThermalModel(time_constant_s=tau, limit_c=limit)
        fraction = model.max_sustainable_duty_fraction(slot_s)
        assert 0.0 <= fraction <= 1.0

    @given(
        tau_a=st.floats(min_value=300.0, max_value=20_000.0),
        tau_b=st.floats(min_value=300.0, max_value=20_000.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_slower_thermal_response_never_reduces_duty(self, tau_a, tau_b):
        """A larger time constant (slower heating per active slot) leaves at
        least as much duty headroom; tolerance covers the bisection grid."""
        slow, fast = max(tau_a, tau_b), min(tau_a, tau_b)
        duty_slow = ThermalModel(
            time_constant_s=slow
        ).max_sustainable_duty_fraction()
        duty_fast = ThermalModel(
            time_constant_s=fast
        ).max_sustainable_duty_fraction()
        assert duty_slow >= duty_fast - 1e-6

    @given(
        limit_a=st.floats(min_value=19.0, max_value=45.0),
        limit_b=st.floats(min_value=19.0, max_value=45.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_higher_limit_never_reduces_duty(self, limit_a, limit_b):
        high, low = max(limit_a, limit_b), min(limit_a, limit_b)
        duty_high = ThermalModel(limit_c=high).max_sustainable_duty_fraction()
        duty_low = ThermalModel(limit_c=low).max_sustainable_duty_fraction()
        assert duty_high >= duty_low - 1e-6

    @given(start=st.floats(min_value=30.0, max_value=80.0))
    @settings(max_examples=25, deadline=None)
    def test_time_to_limit_is_zero_at_or_past_the_limit(self, start):
        model = ThermalModel(limit_c=30.0)
        assert model.time_to_limit_s(start_c=start) == 0.0

    def test_time_to_limit_is_inf_below_active_equilibrium(self):
        model = ThermalModel(active_equilibrium_c=28.0, limit_c=30.0)
        assert model.time_to_limit_s() == math.inf

    @given(
        capacity=st.floats(min_value=1.0, max_value=500.0),
        slot_s=st.floats(min_value=60.0, max_value=1800.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_sustainable_requests_stay_within_peak(self, capacity, slot_s):
        model = ThermalModel()
        sustainable = model.sustainable_requests_per_slot(capacity, slot_s)
        assert 1 <= sustainable <= math.ceil(capacity)
