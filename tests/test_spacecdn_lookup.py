"""Tests for hop-bounded SpaceCDN lookup."""

import numpy as np
import pytest

from repro.constants import GROUND_RTT_MS
from repro.errors import RoutingError
from repro.geo.coordinates import GeoPoint
from repro.spacecdn.lookup import (
    LookupSource,
    SpaceCdnLookup,
    _candidates,
    _in_range,
    nearest_cached_satellite,
    ranked_cached_from_rows,
)
from repro.topology import fastcore
from serve_reference import ranked_cached_reference
from topology_reference import networkx_view


def routing_rows(snapshot, source):
    return fastcore.single_source(snapshot.core, source, snapshot.active_mask)


def hop_distances(snapshot, source) -> dict[int, int]:
    hops, _ = routing_rows(snapshot, source)
    return {s: int(h) for s, h in enumerate(hops) if h != fastcore.HOP_UNREACHABLE}


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

    @pytest.mark.parametrize("access_ms", [float("nan"), float("inf")])
    def test_non_finite_access_latency_rejected(self, lookup, access_ms):
        with pytest.raises(RoutingError):
            lookup.lookup(0, access_ms, frozenset({0}))
        with pytest.raises(RoutingError):
            lookup.resolve([0, 1], [5.0, access_ms], frozenset({3}))


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
        assert result.one_way_ms == GROUND_RTT_MS / 2.0 == 70.0


class TestLookupFromPoint:
    def test_resolves_access_satellite(self, shell1_snapshot):
        lookup = SpaceCdnLookup(snapshot=shell1_snapshot, max_hops=5)
        all_sats = frozenset(range(len(shell1_snapshot.constellation)))
        result = lookup.lookup_from_point(GeoPoint(0.0, 0.0), all_sats)
        # Every satellite caches, so the access satellite serves directly.
        assert result.source is LookupSource.ACCESS_SATELLITE
        assert result.one_way_ms > 0

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
        holders = frozenset({5, 20, 40})
        ranked = ranked_cached_from_rows(
            *routing_rows(small_snapshot, 0), holders, max_hops=16
        )
        nearest = nearest_cached_satellite(small_snapshot, 0, holders, max_hops=16)
        assert ranked  # all holders reachable on a healthy +Grid
        assert ranked[0] == nearest

    def test_sorted_by_latency_and_excludes(self, small_snapshot):
        rows = routing_rows(small_snapshot, 0)
        holders = frozenset({5, 20, 40})
        ranked = ranked_cached_from_rows(*rows, holders, max_hops=16)
        assert ranked == ranked_cached_reference(*rows, holders, max_hops=16)
        latencies = [entry[2] for entry in ranked]
        assert latencies == sorted(latencies)
        exclude = frozenset({ranked[0][0]})
        excluded = ranked_cached_from_rows(
            *rows, holders, max_hops=16, exclude=exclude
        )
        assert excluded == ranked_cached_reference(
            *rows, holders, max_hops=16, exclude=exclude
        )
        assert ranked[0][0] not in [e[0] for e in excluded]
        assert len(excluded) == len(ranked) - 1

    def test_min_hops_excludes_access(self, small_snapshot):
        ranked = ranked_cached_from_rows(
            *routing_rows(small_snapshot, 0), frozenset({0, 5}),
            max_hops=16, min_hops=1,
        )
        assert all(entry[0] != 0 for entry in ranked)

    def test_matches_plain_loop_on_random_rows(self):
        # Coarse latencies force exact ties: the lowest index must win them.
        rng = np.random.default_rng(4)
        n = 40
        for _ in range(50):
            hops = rng.integers(0, 9, size=n).astype(np.int32)
            hops[rng.random(n) < 0.2] = fastcore.HOP_UNREACHABLE
            lats = rng.integers(1, 6, size=n).astype(float)
            lats[rng.random(n) < 0.1] = np.inf
            holders = {int(s) for s in rng.integers(-3, n + 3, size=12)}
            exclude = frozenset(int(s) for s in rng.integers(0, n, size=3))
            min_hops = int(rng.integers(0, 2))
            assert ranked_cached_from_rows(
                hops, lats, holders, 6, min_hops, exclude
            ) == ranked_cached_reference(hops, lats, holders, 6, min_hops, exclude)


def _candidates_reference(hops, latencies, cache, max_hops, min_hops, exclude):
    """The per-id loop the array filter replaced."""
    num_nodes = hops.shape[0]
    candidates = np.fromiter(
        (s for s in sorted(cache) if 0 <= s < num_nodes and s not in exclude),
        dtype=np.int64,
    )
    return candidates[
        _in_range(hops[candidates], latencies[candidates], max_hops, min_hops)
    ]


def test_candidates_match_the_per_id_loop():
    rng = np.random.default_rng(23)
    n = 60
    for _ in range(200):
        hops = rng.integers(0, 12, size=n).astype(np.int32)
        hops[rng.random(n) < 0.15] = fastcore.HOP_UNREACHABLE
        lats = rng.random(n) * 20.0
        lats[rng.random(n) < 0.1] = np.inf
        cache = frozenset(
            int(s) for s in rng.integers(-5, n + 5, size=rng.integers(0, 40))
        )
        exclude = frozenset(
            int(s) for s in rng.integers(-2, n + 2, size=rng.integers(0, 6))
        )
        max_hops, min_hops = int(rng.integers(0, 12)), int(rng.integers(0, 3))
        got = _candidates(hops, lats, cache, max_hops, min_hops, exclude)
        want = _candidates_reference(hops, lats, cache, max_hops, min_hops, exclude)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
