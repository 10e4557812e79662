"""Tests for the full request-level SpaceCDN system."""

import numpy as np
import pytest

from repro.cdn.content import Catalog, ContentObject, build_catalog
from repro.errors import ConfigurationError, ContentNotFoundError
from repro.geo.coordinates import GeoPoint
from repro.geo.datasets.cities import city_by_name
from repro.obs.recorder import ObsRecorder, recording
from repro.spacecdn.lookup import LookupSource
from repro.spacecdn.placement import KPerPlanePlacement
from repro.spacecdn.system import SpaceCdnSystem
from serve_reference import ReferenceCdn
from topology_reference import full_rows, networkx_view


@pytest.fixture
def catalog():
    return build_catalog(
        np.random.default_rng(0),
        100,
        regions=("africa", "europe"),
        kind_weights={"web": 1.0},
    )


@pytest.fixture
def system(shell1_constellation, catalog):
    return SpaceCdnSystem(
        constellation=shell1_constellation,
        catalog=catalog,
        cache_bytes_per_satellite=50_000_000,
        max_hops=5,
    )


EQUATOR = GeoPoint(0.0, 0.0, 0.0)


class TestConfiguration:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cache_bytes_per_satellite": 0},
            {"max_hops": -1},
            {"max_hops": 2.5},
            {"max_hops": True},
        ],
    )
    def test_invalid_config_rejected(self, shell1_constellation, catalog, kwargs):
        base = dict(constellation=shell1_constellation, catalog=catalog)
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            SpaceCdnSystem(**base)

    def test_unknown_object_rejected(self, system):
        with pytest.raises(ContentNotFoundError):
            system.serve(EQUATOR, "ghost", 0.0)

    def test_out_of_range_satellite_rejected(self, system):
        with pytest.raises(ConfigurationError):
            system.cache_of(99999)


class TestColdStart:
    def test_first_request_goes_to_ground(self, system):
        result = system.serve(EQUATOR, "obj-000001", 0.0)
        assert result.source is LookupSource.GROUND
        assert result.rtt_ms == 140.0

    def test_ground_fetch_populates_access_cache(self, system):
        first = system.serve(EQUATOR, "obj-000001", 0.0)
        assert first.source is LookupSource.GROUND
        second = system.serve(EQUATOR, "obj-000001", 1.0)
        assert second.source is LookupSource.ACCESS_SATELLITE
        assert second.rtt_ms < first.rtt_ms

    def test_index_tracks_pull_through(self, system):
        system.serve(EQUATOR, "obj-000002", 0.0)
        assert len(system.holders_of("obj-000002")) == 1


class TestPreload:
    def test_preloaded_content_served_from_space(self, system, shell1_constellation):
        shell = shell1_constellation.config
        holders = KPerPlanePlacement(copies_per_plane=4).place_object(
            "obj-000003", shell
        )
        system.preload({"obj-000003": holders})
        result = system.serve(EQUATOR, "obj-000003", 0.0)
        assert result.source is not LookupSource.GROUND
        assert result.isl_hops <= 5
        assert result.rtt_ms < 80.0

    def test_preload_returns_store_count(self, system):
        count = system.preload({"obj-000004": frozenset({1, 2, 3})})
        assert count == 3
        assert system.holders_of("obj-000004") == frozenset({1, 2, 3})

    def test_oversize_object_not_stored_or_counted(self, shell1_constellation):
        catalog = Catalog()
        catalog.add(ContentObject("small", 400))
        catalog.add(ContentObject("huge", 5_000))
        system = SpaceCdnSystem(
            constellation=shell1_constellation,
            catalog=catalog,
            cache_bytes_per_satellite=1_000,
        )
        count = system.preload(
            {"huge": frozenset({1, 2}), "small": frozenset({2, 3})}
        )
        assert count == 2
        assert system.holders_of("huge") == frozenset()
        assert system.holders_of("small") == frozenset({2, 3})
        assert system.cache_of(1).stats.insertions == 0

    def test_out_of_range_satellite_rejected(self, system, shell1_constellation):
        with pytest.raises(ConfigurationError):
            system.preload({"obj-000004": frozenset({len(shell1_constellation)})})
        with pytest.raises(ConfigurationError):
            system.preload({"obj-000004": frozenset({-1})})

    def test_unknown_object_rejected(self, system):
        with pytest.raises(ContentNotFoundError):
            system.preload({"no-such-object": frozenset({1})})

    def test_equals_reference_preload(self, shell1_constellation):
        """Overlapping placements into small caches (so preload evicts),
        plus one oversize object: the one-pass preload leaves every cache
        in the reference's recency order and stats, the same holders, and
        counts the same obs inserts."""
        catalog = build_catalog(
            np.random.default_rng(4), 60, regions=("africa",), kind_weights={"web": 1.0}
        )
        catalog.add(ContentObject("oversize", 10**7))
        rng = np.random.default_rng(5)
        placement = {
            object_id: frozenset(int(s) for s in rng.choice(12, size=4, replace=False))
            for object_id in [*catalog.objects][::-1]
        }
        systems = []
        for make in (SpaceCdnSystem, ReferenceCdn):
            recorder = ObsRecorder()
            built = make(
                constellation=shell1_constellation,
                catalog=catalog,
                cache_bytes_per_satellite=300_000,
            )
            with recording(recorder):
                built.preload(placement)
            caches = built._caches if make is SpaceCdnSystem else built.caches
            inserts = recorder.metrics.counter_value(
                "repro_cache_ops_total", (("op", "insert"),)
            )
            systems.append((built, caches, inserts))
        (system, caches, inserts), (reference, ref_caches, ref_inserts) = systems
        assert inserts == ref_inserts > 0
        assert sorted(caches) == sorted(ref_caches)
        for satellite, cache in caches.items():
            ref_cache = ref_caches[satellite]
            assert list(cache._objects) == list(ref_cache._objects)
            assert cache.stats == ref_cache.stats
        assert sum(c.stats.evictions for c in caches.values()) > 0
        for object_id in catalog.objects:
            assert system.holders_of(object_id) == reference.holders_of(object_id)


class TestIslServing:
    def test_neighbor_cache_served_over_isl(self, system):
        snapshot = system.snapshot_at(0.0)
        from repro.orbits.visibility import nearest_visible_satellite

        access = nearest_visible_satellite(system.constellation, EQUATOR, 0.0).index
        neighbor = next(iter(networkx_view(snapshot)[access]))
        system.preload({"obj-000005": frozenset({neighbor})})
        result = system.serve(EQUATOR, "obj-000005", 0.0)
        assert result.source is LookupSource.ISL_NEIGHBOR
        assert result.serving_satellite == neighbor
        assert result.isl_hops == 1

    def test_holder_beyond_max_hops_triggers_ground(self, system, shell1_constellation):
        from repro.orbits.visibility import nearest_visible_satellite

        snapshot = system.snapshot_at(0.0)
        access = nearest_visible_satellite(system.constellation, EQUATOR, 0.0).index
        hops, _ = full_rows(snapshot.core, access, snapshot.active_mask)
        far = int(np.flatnonzero(hops == 12)[0])
        system.preload({"obj-000006": frozenset({far})})
        result = system.serve(EQUATOR, "obj-000006", 0.0)
        assert result.source is LookupSource.GROUND


class TestEvictionIndexConsistency:
    def test_eviction_removes_from_index(self, shell1_constellation, catalog):
        # A cache only big enough for one typical object forces churn.
        sizes = sorted(o.size_bytes for o in catalog)
        system = SpaceCdnSystem(
            constellation=shell1_constellation,
            catalog=catalog,
            cache_bytes_per_satellite=max(sizes) + 1,
        )
        ids = [o.object_id for o in list(catalog)[:10]]
        for object_id in ids:
            system._store(5, object_id)
        # Index must exactly mirror cache contents for satellite 5.
        cached = system.cache_of(5).object_ids()
        indexed = {oid for oid in ids if 5 in system.holders_of(oid)}
        assert indexed == cached

    def test_oversized_object_served_pass_through(self, shell1_constellation):
        from repro.cdn.content import Catalog, ContentObject

        catalog = Catalog()
        catalog.add(ContentObject("huge", 10**12, kind="video-segment"))
        system = SpaceCdnSystem(
            constellation=shell1_constellation,
            catalog=catalog,
            cache_bytes_per_satellite=10**6,
        )
        first = system.serve(EQUATOR, "huge", 0.0)
        second = system.serve(EQUATOR, "huge", 1.0)
        assert first.source is LookupSource.GROUND
        assert second.source is LookupSource.GROUND  # never cached


class TestTimeDynamics:
    def test_snapshot_quantisation(self, system):
        a = system.snapshot_at(0.0)
        b = system.snapshot_at(30.0)
        c = system.snapshot_at(61.0)
        assert a is b  # same 60 s slot
        assert c is not a
        assert c.t_s == 60.0

    def test_negative_time_rejected(self, system):
        with pytest.raises(ConfigurationError):
            system.snapshot_at(-1.0)

    @pytest.mark.parametrize("t_s", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, system, t_s):
        with pytest.raises(ConfigurationError):
            system.snapshot_at(t_s)

    def test_access_satellite_changes_over_time(self, system):
        """After several minutes the original access satellite has moved on,
        so a cached object migrates from access-hit to ISL-hit (or ground)."""
        system.serve(EQUATOR, "obj-000007", 0.0)  # pull-through
        immediate = system.serve(EQUATOR, "obj-000007", 1.0)
        assert immediate.source is LookupSource.ACCESS_SATELLITE
        later = system.serve(EQUATOR, "obj-000007", 600.0)
        # 10 minutes later the pass is over (paper: 5-10 min visibility).
        assert later.source is not LookupSource.ACCESS_SATELLITE or (
            later.serving_satellite != immediate.serving_satellite
        )


class TestRunStream:
    def test_run_workload_stream(self, system, catalog):
        from repro.workloads.regional import RegionalPopularity, RegionalRequestMixer
        from repro.workloads.requests import RequestGenerator

        mixer = RegionalRequestMixer(
            popularity=RegionalPopularity(catalog=catalog, seed=3),
            rng=np.random.default_rng(4),
        )
        generator = RequestGenerator(
            cities=(city_by_name("Maputo"), city_by_name("Nairobi")),
            mixer=mixer,
            requests_per_second_total=2.0,
            rng=np.random.default_rng(5),
        )
        requests = generator.generate_list(60.0)
        results = system.run(requests)
        assert len(results) == len(requests)
        assert system.stats.requests == len(requests)
        # Zipf + pull-through: the space tier must absorb a good share.
        assert system.stats.space_hit_ratio > 0.2

    def test_unordered_stream_rejected(self, system, catalog):
        from repro.workloads.requests import Request

        city = city_by_name("Maputo")
        requests = [
            Request(t_s=10.0, city=city, object_id="obj-000001"),
            Request(t_s=5.0, city=city, object_id="obj-000001"),
        ]
        with pytest.raises(ConfigurationError):
            system.run(requests)


class TestStats:
    def test_counters_sum(self, system):
        for i, t in enumerate((0.0, 1.0, 2.0, 3.0)):
            system.serve(EQUATOR, f"obj-{i % 2:06d}", t)
        stats = system.stats
        assert stats.requests == 4
        assert stats.access_hits + stats.isl_hits + stats.ground_fetches == 4
        assert len(stats.rtt_samples_ms) == 4

    def test_empty_ratio_zero(self, system):
        assert system.stats.space_hit_ratio == 0.0
