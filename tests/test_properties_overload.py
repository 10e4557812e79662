"""Property tests: overload protection invariants under Hypothesis.

Two contracts pinned here:

* ``serve_batch`` and ``serve`` match the per-request reference walker
  (``tests/serve_reference.py``) on *overloaded* streams too: element-wise
  identical results, stats, cache contents and holders index, with a flash
  crowd and with or without fault schedules, for arbitrary request streams
  and model capacities, deadlines and seeds (the capacity counters,
  breakers, deadline budgets,
  and seeded priority draws must all advance in exactly the request order).
* :class:`~repro.faults.retry.RetryPolicy` edges: backoff is monotone
  non-decreasing and capped, and attempt 0 is a configuration error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.content import build_catalog
from repro.errors import FaultConfigError
from repro.faults.processes import FlashCrowdProcess, OutageWindow, TransientAttemptLoss
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import ShellConfig
from repro.orbits.walker import build_walker_delta
from repro.overload.model import OverloadModel
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
    return OverloadModel(
        capacity_per_slot=draw(st.floats(min_value=1.0, max_value=8.0)),
        ground_capacity_per_slot=draw(st.floats(min_value=1.0, max_value=20.0)),
        deadline_ms=draw(
            st.one_of(st.none(), st.floats(min_value=50.0, max_value=2000.0))
        ),
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
        FlashCrowdProcess(extra_requests_per_slot=2.0, start_s=50.0, end_s=400.0)
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
        deadline_ms=model.deadline_ms,
        seed=model.seed,
    )


class TestRetryPolicyEdges:
    @given(
        base=st.floats(min_value=0.0, max_value=100.0),
        cap=st.floats(min_value=0.0, max_value=500.0),
        attempts=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_backoff_is_monotone_and_capped(self, base, cap, attempts):
        policy = RetryPolicy(backoff_base_ms=base, backoff_cap_ms=cap)
        waits = [policy.backoff_ms(k) for k in range(1, attempts + 1)]
        assert all(w <= cap for w in waits)
        assert all(a <= b for a, b in zip(waits, waits[1:]))
        assert waits[0] == min(cap, base)

    def test_attempt_zero_is_a_config_error(self):
        policy = RetryPolicy()
        with pytest.raises(FaultConfigError):
            policy.backoff_ms(0)
        with pytest.raises(FaultConfigError):
            policy.backoff_ms(-3)
