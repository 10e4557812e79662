"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cdn.cache import Cache
from repro.cdn.content import ContentObject
from repro.constants import EARTH_RADIUS_KM
from repro.geo.coordinates import GeoPoint, great_circle_km, slant_range_km

latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
points = st.builds(GeoPoint, latitudes, longitudes, st.just(0.0))


class TestGeodesyProperties:
    @given(points, points)
    def test_great_circle_symmetric(self, a, b):
        assert great_circle_km(a, b) == great_circle_km(b, a)

    @given(points, points)
    def test_great_circle_bounded_by_half_circumference(self, a, b):
        assert 0.0 <= great_circle_km(a, b) <= math.pi * EARTH_RADIUS_KM + 1e-6

    @given(points)
    def test_great_circle_identity(self, a):
        assert great_circle_km(a, a) == 0.0

    @given(points, points, points)
    # A point next to the antipode of c: the haversine form's asin(sqrt(h))
    # loses about 1e-5 km there, so ac exceeded ab + bc by 1.3e-5 km.
    @example(GeoPoint(0.0, 1.19e-7), GeoPoint(0.0, 1.0), GeoPoint(0.0, 180.0))
    def test_triangle_inequality(self, a, b, c):
        ab = great_circle_km(a, b)
        bc = great_circle_km(b, c)
        ac = great_circle_km(a, c)
        assert ac <= ab + bc + 1e-6

    @given(points, points)
    def test_chord_below_arc(self, a, b):
        # Straight line through the Earth can never exceed the surface arc.
        assert slant_range_km(a, b) <= great_circle_km(a, b) + 1e-6


object_entries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),  # id pool (collisions intended)
        st.integers(min_value=1, max_value=500),  # size
    ),
    min_size=1,
    max_size=80,
)


class TestCacheProperties:
    @given(object_entries)
    @settings(max_examples=60, deadline=None)
    def test_capacity_invariant(self, entries):
        cache = Cache(capacity_bytes=1000)
        for object_id, size in entries:
            cache.put(ContentObject(f"o{object_id}", size))
            assert 0 <= cache.used_bytes <= cache.capacity_bytes

    @given(object_entries)
    @settings(max_examples=60, deadline=None)
    def test_used_bytes_equals_sum_of_cached(self, entries):
        cache = Cache(capacity_bytes=1000)
        inserted: dict[str, int] = {}
        for object_id, size in entries:
            name = f"o{object_id}"
            if name in cache:
                continue  # re-insert refreshes, does not resize
            cache.put(ContentObject(name, size))
            inserted[name] = size
        expected = sum(inserted[oid] for oid in cache.object_ids())
        assert cache.used_bytes == expected

    @given(object_entries)
    @settings(max_examples=60, deadline=None)
    def test_lru_get_after_put_hits(self, entries):
        cache = Cache(capacity_bytes=100_000)  # never evicts at this size
        for object_id, size in entries:
            name = f"o{object_id}"
            if name not in cache:
                cache.put(ContentObject(name, size))
            assert cache.get(name) is not None

    @given(object_entries)
    @settings(max_examples=60, deadline=None)
    def test_stats_accounting(self, entries):
        cache = Cache(capacity_bytes=1000)
        for object_id, size in entries:
            cache.get(f"o{object_id}")
            name = f"o{object_id}"
            if name not in cache:
                cache.put(ContentObject(name, size))
        stats = cache.stats
        assert stats.requests == len(entries)
        assert stats.hits + stats.misses == stats.requests
        assert 0.0 <= stats.hit_ratio <= 1.0

    @given(
        st.lists(
            st.tuples(
                st.booleans(),  # True: put, False: get
                st.integers(min_value=0, max_value=12),  # id pool
                st.integers(min_value=1, max_value=400),  # size on first put
            ),
            min_size=1,
            max_size=120,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_lru_order_matches_list_model(self, ops):
        """Evictions and final contents equal a naive list-based LRU."""
        capacity = 1000
        cache = Cache(capacity_bytes=capacity)
        sizes: dict[str, int] = {}  # an id keeps its first size
        model: list[str] = []  # least recently used first
        for is_put, object_id, size in ops:
            name = f"o{object_id}"
            size = sizes.setdefault(name, size)
            if not is_put:
                hit = cache.get(name) is not None
                assert hit == (name in model)
                if hit:
                    model.remove(name)
                    model.append(name)
                continue
            evicted = cache.put(ContentObject(name, size))
            expected: list[str] = []
            if name in model:
                model.remove(name)
            else:
                while sum(sizes[m] for m in model) + size > capacity:
                    expected.append(model.pop(0))
            model.append(name)
            assert evicted == expected
        assert cache.used_bytes == sum(sizes[m] for m in model)
        # A capacity-sized put drains the cache in its recency order.
        assert cache.put(ContentObject("drain", capacity)) == model


class TestPlacementProperties:
    @given(
        st.integers(min_value=1, max_value=22),
        st.integers(min_value=0, max_value=21),
    )
    def test_spaced_slots_distinct_and_in_range(self, copies, offset):
        from repro.spacecdn.placement import spaced_slots

        slots = spaced_slots(22, copies, offset)
        assert len(set(slots)) == copies
        assert all(0 <= s < 22 for s in slots)

    @given(st.text(min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_k_per_plane_deterministic_per_object(self, object_id):
        from repro.orbits.elements import starlink_shell1
        from repro.spacecdn.placement import KPerPlanePlacement

        shell = starlink_shell1()
        placement = KPerPlanePlacement(copies_per_plane=3)
        a = placement.place_object(object_id, shell)
        b = placement.place_object(object_id, shell)
        assert a == b
        assert len(a) == 3 * shell.num_planes

    @given(
        st.integers(min_value=1, max_value=22),
        st.text(min_size=1, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_k_per_plane_within_in_plane_bound(
        self, shell1, shell1_snapshot, copies, object_id
    ):
        # Paper §4: ~4 copies per plane reach any object within 5 hops. In
        # closed form, every plane holds ``copies`` slots whose largest
        # cyclic gap g leaves no satellite more than g // 2 in-plane hops
        # from a copy; cross-plane ISLs can only shorten that. At 4 copies
        # the gaps are 6/5/5/6, so the bound is 3 hops.
        from repro.spacecdn.placement import KPerPlanePlacement, spaced_slots
        from repro.topology import fastcore

        n = shell1.sats_per_plane
        slots = sorted(spaced_slots(n, copies))
        largest_gap = max(
            (b - a) % n or n for a, b in zip(slots, slots[1:] + slots[:1])
        )
        holders = KPerPlanePlacement(copies_per_plane=copies).place_object(
            object_id, shell1
        )
        hops = fastcore.nearest_hops(shell1_snapshot.core, holders)
        assert hops.min() >= 0  # every satellite reaches a copy
        assert hops.max() <= largest_gap // 2


class TestCdfProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    def test_cdf_monotone_and_bounded(self, samples):
        from repro.analysis.stats import Cdf

        cdf = Cdf.from_samples(samples)
        xs = sorted(samples)
        probs = [cdf.at(x) for x in xs]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert cdf.at(xs[-1]) == 1.0
        assert cdf.at(xs[0] - 1.0) == 0.0

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=100,
        )
    )
    def test_quantile_within_sample_range(self, samples):
        from repro.analysis.stats import Cdf

        cdf = Cdf.from_samples(samples)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            value = cdf.quantile(q)
            assert min(samples) <= value <= max(samples)
