"""Property test: requests under arbitrary fault schedules never misbehave.

Under *any* composition of fault processes, a request through the system
either terminates with a well-formed :class:`ServedRequest` inside the
retry budget, or raises :class:`~repro.errors.ContentNotFoundError` (of
which :class:`~repro.errors.UnavailableError` is a subclass) — never an
unhandled exception, never a non-finite or negative RTT — and it ends
exactly as it does through the per-request reference walker.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.content import build_catalog
from repro.errors import ContentNotFoundError
from repro.faults import (
    FaultSchedule,
    GroundStationOutage,
    IslDegradation,
    OutageWindow,
    RandomIslCuts,
    RetryPolicy,
    SatelliteOutageProcess,
    TransientAttemptLoss,
)
from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import ShellConfig
from repro.orbits.walker import build_walker_delta
from repro.spacecdn.resilience import random_failure_set
from repro.spacecdn.system import SpaceCdnSystem
from serve_reference import ReferenceCdn, assert_same_state

CONSTELLATION = build_walker_delta(
    ShellConfig(
        altitude_km=550.0,
        inclination_deg=53.0,
        num_planes=6,
        sats_per_plane=8,
        phase_offset=3,
        name="prop-shell",
    )
)
CATALOG = build_catalog(
    np.random.default_rng(0), 30, regions=("africa",), kind_weights={"web": 1.0}
)
OBJECTS = sorted(o.object_id for o in CATALOG)


@st.composite
def fault_schedules(draw):
    schedule = FaultSchedule(
        wipe_caches_on_outage=draw(st.booleans())
    )
    fraction = draw(st.floats(min_value=0.0, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    schedule.add(
        OutageWindow(
            satellites=random_failure_set(
                len(CONSTELLATION), fraction, np.random.default_rng(seed)
            )
        )
    )
    if draw(st.booleans()):
        schedule.add(
            SatelliteOutageProcess(
                total_satellites=len(CONSTELLATION),
                mtbf_s=draw(st.floats(min_value=100.0, max_value=5000.0)),
                mttr_s=draw(st.floats(min_value=10.0, max_value=1000.0)),
                seed=seed,
            )
        )
    if draw(st.booleans()):
        schedule.add(
            RandomIslCuts(fraction=draw(st.floats(min_value=0.0, max_value=0.5)), seed=seed)
        )
    if draw(st.booleans()):
        schedule.add(
            IslDegradation(multiplier=draw(st.floats(min_value=1.0, max_value=10.0)))
        )
    if draw(st.booleans()):
        schedule.add(GroundStationOutage())
    loss = draw(st.floats(min_value=0.0, max_value=1.0))
    schedule.add(TransientAttemptLoss(probability=loss, seed=seed))
    return schedule


@st.composite
def policies(draw):
    return RetryPolicy(
        max_attempts=draw(st.integers(min_value=1, max_value=6)),
        attempt_budget_ms=draw(
            st.one_of(st.none(), st.floats(min_value=10.0, max_value=500.0))
        ),
        backoff_base_ms=draw(st.floats(min_value=0.0, max_value=50.0)),
    )


@settings(max_examples=30, deadline=None)
@given(
    schedule=fault_schedules(),
    policy=policies(),
    lat=st.floats(min_value=-50.0, max_value=50.0),
    lon=st.floats(min_value=-180.0, max_value=180.0),
    t_s=st.floats(min_value=0.0, max_value=3600.0),
    object_index=st.integers(min_value=0, max_value=len(OBJECTS) - 1),
    preload_seed=st.integers(min_value=0, max_value=2**16),
)
def test_serve_terminates_well_under_any_schedule(
    schedule, policy, lat, lon, t_s, object_index, preload_seed
):
    rng = np.random.default_rng(preload_seed)
    holders = frozenset(
        int(s) for s in rng.choice(len(CONSTELLATION), size=4, replace=False)
    )
    object_id = OBJECTS[object_index]
    user = GeoPoint(lat, lon, 0.0)
    system, reference = (
        cls(
            constellation=CONSTELLATION,
            catalog=CATALOG,
            cache_bytes_per_satellite=10**9,
            fault_schedule=schedule,
            retry_policy=policy,
        )
        for cls in (SpaceCdnSystem, ReferenceCdn)
    )
    system.preload({object_id: holders})
    reference.preload({object_id: holders})

    try:
        served = system.serve(user, object_id, t_s)
    except ContentNotFoundError:
        # The only legal failure mode: unavailable under the fault state.
        with pytest.raises(ContentNotFoundError):
            reference.serve(user, object_id, t_s)
        assert_same_state(system, reference, [object_id])
        assert system.stats.unavailable >= 1
        assert system.stats.availability < 1.0
        return
    assert reference.serve(user, object_id, t_s) == served
    assert_same_state(system, reference, [object_id])
    assert 1 <= served.attempts <= policy.max_attempts
    assert math.isfinite(served.rtt_ms) and served.rtt_ms >= 0.0
    assert served.object_id == object_id
    assert system.stats.requests == 1
    assert system.stats.availability == 1.0


@settings(max_examples=10, deadline=None)
@given(schedule=fault_schedules(), t_s=st.floats(min_value=0.0, max_value=7200.0))
def test_compiled_views_are_reproducible(schedule, t_s):
    num_links = 2 * len(CONSTELLATION)  # +Grid: two links per satellite
    first = schedule.compile_at(t_s, num_links)
    second = schedule.compile_at(t_s, num_links)
    assert first.failed_satellites == second.failed_satellites
    assert first.cut_links == second.cut_links
    assert first.ground_segment_down == second.ground_segment_down
    if first.link_multiplier is None:
        assert second.link_multiplier is None
    else:
        np.testing.assert_array_equal(first.link_multiplier, second.link_multiplier)


def test_catalog_smoke():
    # Guards the module-level fixtures against silent shape drift.
    assert len(OBJECTS) == 30
    assert pytest.importorskip("hypothesis")
