"""Tests for hop-bounded SpaceCDN lookup."""

import pytest

from repro.errors import ContentNotFoundError, RoutingError
from repro.geo.coordinates import GeoPoint
from repro.spacecdn.lookup import LookupSource, SpaceCdnLookup
from repro.topology.routing import hop_distances
from topology_reference import networkx_view


@pytest.fixture
def lookup(small_snapshot) -> SpaceCdnLookup:
    return SpaceCdnLookup(snapshot=small_snapshot, max_hops=5)


class TestLookupAtAccessSatellite:
    def test_content_on_access_satellite(self, lookup):
        result = lookup.lookup(
            access_satellite=0, access_one_way_ms=8.0, cache_satellites=frozenset({0})
        )
        assert result.source is LookupSource.ACCESS_SATELLITE
        assert result.isl_hops == 0
        assert result.one_way_ms == 8.0
        assert result.serving_satellite == 0

    def test_negative_access_latency_rejected(self, lookup):
        with pytest.raises(RoutingError):
            lookup.lookup(0, -1.0, frozenset({0}))


class TestIslLookup:
    def test_neighbor_cache(self, lookup, small_view):
        neighbor = next(iter(small_view[0]))
        result = lookup.lookup(0, 8.0, frozenset({neighbor}))
        assert result.source is LookupSource.ISL_NEIGHBOR
        assert result.isl_hops == 1
        assert result.serving_satellite == neighbor
        assert result.one_way_ms == pytest.approx(
            8.0 + small_view[0][neighbor]["latency_ms"]
        )

    def test_prefers_cheapest_cache(self, lookup, small_snapshot):
        # Between a 1-hop and a 3-hop holder, the 1-hop one must win.
        hops = hop_distances(small_snapshot, 0)
        one_hop = next(s for s, h in hops.items() if h == 1)
        three_hop = next(s for s, h in hops.items() if h == 3)
        result = lookup.lookup(0, 8.0, frozenset({one_hop, three_hop}))
        assert result.serving_satellite == one_hop

    def test_hop_bound_enforced(self, small_snapshot):
        strict = SpaceCdnLookup(snapshot=small_snapshot, max_hops=1)
        hops = hop_distances(small_snapshot, 0)
        far = next(s for s, h in hops.items() if h == 3)
        result = strict.lookup(0, 8.0, frozenset({far}))
        assert result.source is LookupSource.GROUND

    def test_latency_monotone_in_distance(self, lookup, small_snapshot):
        hops = hop_distances(small_snapshot, 0)
        near = next(s for s, h in hops.items() if h == 1)
        far = next(s for s, h in hops.items() if h == 3)
        near_latency = lookup.lookup(0, 8.0, frozenset({near})).one_way_ms
        far_latency = lookup.lookup(0, 8.0, frozenset({far})).one_way_ms
        assert far_latency > near_latency


class TestGroundFallback:
    def test_no_caches_falls_to_ground(self, lookup):
        result = lookup.lookup(0, 8.0, frozenset())
        assert result.source is LookupSource.GROUND
        assert result.serving_satellite is None
        assert result.one_way_ms == lookup.ground_fallback_one_way_ms

    def test_custom_fallback_latency(self, small_snapshot):
        lookup = SpaceCdnLookup(
            snapshot=small_snapshot, max_hops=2, ground_fallback_one_way_ms=120.0
        )
        assert lookup.lookup(0, 8.0, frozenset()).one_way_ms == 120.0


class TestLookupFromPoint:
    def test_resolves_access_satellite(self, shell1_snapshot):
        lookup = SpaceCdnLookup(snapshot=shell1_snapshot, max_hops=5)
        all_sats = frozenset(range(len(shell1_snapshot.constellation)))
        result = lookup.lookup_from_point(GeoPoint(0.0, 0.0), all_sats)
        # Every satellite caches, so the access satellite serves directly.
        assert result.source is LookupSource.ACCESS_SATELLITE
        assert result.one_way_ms > 0

    def test_require_space_hit_raises_on_ground(self, shell1_snapshot):
        lookup = SpaceCdnLookup(snapshot=shell1_snapshot, max_hops=1)
        with pytest.raises(ContentNotFoundError):
            lookup.require_space_hit(GeoPoint(0.0, 0.0), frozenset())

    def test_paper_resolution_order(self, shell1_snapshot):
        # Fig. 6: overhead satellite first, then ISL neighbour, then ground.
        lookup = SpaceCdnLookup(snapshot=shell1_snapshot, max_hops=5)
        user = GeoPoint(10.0, 20.0)
        probe = lookup.lookup_from_point(
            user, frozenset(range(len(shell1_snapshot.constellation)))
        )
        access = probe.access_satellite
        direct = lookup.lookup_from_point(user, frozenset({access}))
        assert direct.source is LookupSource.ACCESS_SATELLITE
        neighbor = next(iter(networkx_view(shell1_snapshot)[access]))
        via_isl = lookup.lookup_from_point(user, frozenset({neighbor}))
        assert via_isl.source is LookupSource.ISL_NEIGHBOR
        assert via_isl.one_way_ms > direct.one_way_ms
        nothing = lookup.lookup_from_point(user, frozenset())
        assert nothing.source is LookupSource.GROUND


class TestRankedCachedSatellites:
    def test_first_entry_matches_nearest(self, small_snapshot):
        from repro.spacecdn.lookup import (
            nearest_cached_satellite,
            ranked_cached_satellites,
        )

        holders = frozenset({5, 20, 40})
        ranked = ranked_cached_satellites(small_snapshot, 0, holders, max_hops=16)
        nearest = nearest_cached_satellite(small_snapshot, 0, holders, max_hops=16)
        assert ranked  # all holders reachable on a healthy +Grid
        assert (ranked[0][0], ranked[0][1]) == (nearest[0], nearest[1])
        assert ranked[0][2] == pytest.approx(nearest[2])

    def test_sorted_by_latency_and_excludes(self, small_snapshot):
        from repro.spacecdn.lookup import ranked_cached_satellites

        holders = frozenset({5, 20, 40})
        ranked = ranked_cached_satellites(small_snapshot, 0, holders, max_hops=16)
        latencies = [entry[2] for entry in ranked]
        assert latencies == sorted(latencies)
        excluded = ranked_cached_satellites(
            small_snapshot, 0, holders, max_hops=16, exclude=frozenset({ranked[0][0]})
        )
        assert ranked[0][0] not in [e[0] for e in excluded]
        assert len(excluded) == len(ranked) - 1

    def test_min_hops_excludes_access(self, small_snapshot):
        from repro.spacecdn.lookup import ranked_cached_satellites

        ranked = ranked_cached_satellites(
            small_snapshot, 0, frozenset({0, 5}), max_hops=16, min_hops=1
        )
        assert all(entry[0] != 0 for entry in ranked)
