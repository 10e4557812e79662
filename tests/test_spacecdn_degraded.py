"""Tests for the degraded-mode serving path of the SpaceCDN system."""

import numpy as np
import pytest

from repro.cdn.content import build_catalog
from repro.errors import ContentNotFoundError, UnavailableError
from repro.faults.processes import OutageWindow, TransientAttemptLoss
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule
from repro.geo.coordinates import GeoPoint
from repro.spacecdn.lookup import LookupSource
from repro.spacecdn.system import SpaceCdnSystem

EQUATOR = GeoPoint(0.0, 0.0, 0.0)
OBJ = "obj-000002"
# On the 6x8 shell only satellite 0 is visible from the equator at t=0.
ACCESS_SAT = 0
FAR_HOLDER = 20


@pytest.fixture
def catalog():
    return build_catalog(
        np.random.default_rng(0), 50, regions=("africa",), kind_weights={"web": 1.0}
    )


def make_system(small_constellation, catalog, schedule=None, policy=None):
    kwargs = dict(
        constellation=small_constellation,
        catalog=catalog,
        cache_bytes_per_satellite=10**9,
        fault_schedule=schedule,
    )
    if policy is not None:
        kwargs["retry_policy"] = policy
    return SpaceCdnSystem(**kwargs)


class TestHealthyPathIdentity:
    def test_empty_schedule_is_byte_identical(self, small_constellation, catalog):
        plain = make_system(small_constellation, catalog, schedule=None)
        empty = make_system(small_constellation, catalog, schedule=FaultSchedule())
        for system in (plain, empty):
            system.preload({OBJ: frozenset({FAR_HOLDER})})
        stream = [(OBJ, 0.0), ("obj-000003", 1.0), (OBJ, 2.0), ("obj-000003", 3.0)]
        served_plain = [plain.serve(EQUATOR, o, t) for o, t in stream]
        served_empty = [empty.serve(EQUATOR, o, t) for o, t in stream]
        assert served_plain == served_empty
        assert plain.stats.rtt_samples_ms == empty.stats.rtt_samples_ms



class TestFallbackLadder:
    def test_failed_holder_falls_back_to_ground(self, small_constellation, catalog):
        schedule = FaultSchedule().add(
            OutageWindow(satellites=frozenset({FAR_HOLDER}))
        )
        system = make_system(small_constellation, catalog, schedule)
        system.preload({OBJ: frozenset({FAR_HOLDER})})
        served = system.serve(EQUATOR, OBJ, 0.0)
        assert served.source is LookupSource.GROUND
        assert served.fallback_reason == "no-space-replica"
        # Pull-through stored the object at the access satellite.
        assert system.holders_of(OBJ) == frozenset({ACCESS_SAT})

    def test_outage_wipes_holder_cache(self, small_constellation, catalog):
        schedule = FaultSchedule().add(
            OutageWindow(satellites=frozenset({FAR_HOLDER}))
        )
        system = make_system(small_constellation, catalog, schedule)
        system.preload({OBJ: frozenset({FAR_HOLDER})})
        system.serve(EQUATOR, OBJ, 0.0)
        assert FAR_HOLDER not in system.holders_of(OBJ)
        assert len(system.cache_of(FAR_HOLDER)) == 0

    def test_live_holder_served_over_isl(self, small_constellation, catalog):
        schedule = FaultSchedule().add(
            OutageWindow(satellites=frozenset({30}))  # unrelated failure
        )
        system = make_system(small_constellation, catalog, schedule)
        system.preload({OBJ: frozenset({FAR_HOLDER})})
        served = system.serve(EQUATOR, OBJ, 0.0)
        assert served.source is LookupSource.ISL_NEIGHBOR
        assert served.serving_satellite == FAR_HOLDER
        assert served.attempts == 1
        assert served.fallback_reason is None

    def test_access_satellite_failure_is_unavailable(
        self, small_constellation, catalog
    ):
        # Satellite 0 is the only one visible from the equator at t=0, so
        # failing it leaves the user with no sky at all.
        schedule = FaultSchedule().add(
            OutageWindow(satellites=frozenset({ACCESS_SAT}))
        )
        system = make_system(small_constellation, catalog, schedule)
        system.preload({OBJ: frozenset({ACCESS_SAT})})
        with pytest.raises(UnavailableError):
            system.serve(EQUATOR, OBJ, 0.0)
        assert system.stats.unavailable == 1
        assert system.stats.availability == 0.0


class TestRetriesAndTimeouts:
    def test_transient_loss_retries_then_succeeds(
        self, small_constellation, catalog
    ):
        # seed 0: request 0 loses attempt 1, attempt 2 goes through.
        loss = TransientAttemptLoss(probability=0.5, seed=0)
        assert loss.lost(0, 1) and not loss.lost(0, 2)
        schedule = FaultSchedule().add(loss)
        system = make_system(
            small_constellation, catalog, schedule, RetryPolicy(max_attempts=4)
        )
        system.preload({OBJ: frozenset({ACCESS_SAT, FAR_HOLDER})})
        served = system.serve(EQUATOR, OBJ, 0.0)
        assert served.attempts == 2
        assert served.fallback_reason == "transient-loss"
        assert system.stats.retries == 1
        assert system.stats.timeouts == 1
        # Backoff is charged to the simulated RTT.
        healthy = make_system(small_constellation, catalog)
        healthy.preload({OBJ: frozenset({ACCESS_SAT, FAR_HOLDER})})
        baseline = healthy.serve(EQUATOR, OBJ, 0.0)
        assert served.rtt_ms > baseline.rtt_ms

    def test_total_loss_exhausts_retry_budget(self, small_constellation, catalog):
        schedule = FaultSchedule().add(TransientAttemptLoss(probability=1.0))
        system = make_system(
            small_constellation, catalog, schedule, RetryPolicy(max_attempts=4)
        )
        with pytest.raises(UnavailableError):
            system.serve(EQUATOR, OBJ, 0.0)
        assert system.stats.timeouts == 4
        assert system.stats.retries == 3
        assert system.stats.unavailable == 1

    def test_unavailable_is_content_not_found(self):
        assert issubclass(UnavailableError, ContentNotFoundError)


class TestRunStream:
    def test_continue_on_unavailable_skips(self, small_constellation, catalog):
        from repro.geo.datasets.cities import all_cities
        from repro.workloads.requests import Request

        city = min(
            all_cities(),
            key=lambda c: abs(c.location.lat_deg) + abs(c.location.lon_deg),
        )
        schedule = FaultSchedule().add(TransientAttemptLoss(probability=1.0))
        system = make_system(
            small_constellation, catalog, schedule, RetryPolicy(max_attempts=2)
        )
        requests = [Request(t_s=float(i), city=city, object_id=OBJ) for i in range(3)]
        results = system.run(requests, continue_on_unavailable=True)
        assert results == []
        assert system.stats.unavailable == 3
        assert system.stats.availability == 0.0

    def test_raises_without_flag(self, small_constellation, catalog):
        from repro.geo.datasets.cities import all_cities
        from repro.workloads.requests import Request

        city = min(
            all_cities(),
            key=lambda c: abs(c.location.lat_deg) + abs(c.location.lon_deg),
        )
        schedule = FaultSchedule().add(TransientAttemptLoss(probability=1.0))
        system = make_system(
            small_constellation, catalog, schedule, RetryPolicy(max_attempts=2)
        )
        with pytest.raises(UnavailableError):
            system.run([Request(t_s=0.0, city=city, object_id=OBJ)])


class TestStatsCounters:
    def test_requests_include_unavailable(self, small_constellation, catalog):
        schedule = FaultSchedule().add(TransientAttemptLoss(probability=1.0))
        system = make_system(small_constellation, catalog, schedule)
        with pytest.raises(UnavailableError):
            system.serve(EQUATOR, OBJ, 0.0)
        assert system.stats.requests == 1
        assert system.stats.served == 0
        assert system.stats.availability == 0.0

    def test_availability_none_before_any_request(
        self, small_constellation, catalog
    ):
        # Zero requests means no denominator: availability is unknown, not
        # a perfect 1.0 (and never a ZeroDivisionError).
        system = make_system(small_constellation, catalog)
        assert system.stats.requests == 0
        assert system.stats.availability is None
