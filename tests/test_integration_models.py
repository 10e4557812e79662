"""Cross-model integration tests.

The repo deliberately has two fidelity levels: the analytic Starlink path
model (fast, used for AIM-scale simulation) and the full constellation-graph
model (used for Figs. 7/8), here routed through the ``networkx`` reference
of ``topology_reference.py``. These tests pin them to each other and exercise
full end-to-end request flows across subsystems.
"""

import numpy as np

from repro.constants import (
    CDN_SERVER_THINK_TIME_MS,
    ISL_HOP_PROCESSING_MS,
    MIN_ELEVATION_GS_DEG,
    MIN_ELEVATION_USER_DEG,
    SPEED_OF_LIGHT_KM_S,
)
from repro.geo.coordinates import GeoPoint
from repro.geo.datasets.cdn_sites import cdn_site_by_name
from repro.geo.datasets.cities import all_cities, city_by_name
from repro.network.bentpipe import StarlinkPathModel
from repro.orbits.visibility import visible_satellites
from repro.spacecdn.lookup import LookupSource, SpaceCdnLookup
from repro.spacecdn.placement import KPerPlanePlacement
from repro.topology import fastcore
from repro.topology.graph import build_snapshot
from topology_reference import networkx_view, satellite_latencies_reference


class TestAnalyticVsGraphModel:
    def test_isl_stretch_consistent_with_graph_routing(self, shell1_snapshot):
        """The analytic model's stretched-great-circle ISL latency must sit
        within a factor of the true graph-routed latency between satellites
        over Maputo and over Frankfurt.

        The graph latency minimises over candidate access satellites on both
        ends: nearest-visible alone can land on an ascending/descending
        plane mismatch that costs 3x, which a real scheduler avoids.
        """
        from repro.orbits.visibility import visible_satellites

        constellation = shell1_snapshot.constellation
        maputo = GeoPoint(-25.97, 32.57)
        frankfurt = GeoPoint(50.11, 8.68)
        over_maputo = visible_satellites(constellation, maputo, 0.0)[:6]
        over_frankfurt = visible_satellites(constellation, frankfurt, 0.0)[:6]
        view = networkx_view(shell1_snapshot)
        graph_ms = min(
            satellite_latencies_reference(view, a.index)[b.index]
            for a in over_maputo
            for b in over_frankfurt
        )

        model = StarlinkPathModel(rng=np.random.default_rng(0))
        path = model.resolve_path(city_by_name("Maputo"))
        from repro.constants import ISL_HOP_PROCESSING_MS, SPEED_OF_LIGHT_KM_S

        analytic_ms = (
            path.isl_distance_km / SPEED_OF_LIGHT_KM_S * 1000.0
            + path.isl_hops * ISL_HOP_PROCESSING_MS
        )
        # Same order of magnitude, analytic within [0.6x, 1.8x] of the graph.
        assert 0.6 * graph_ms < analytic_ms < 1.8 * graph_ms

    # (city, t_s) where the analytic ISL leg runs below the routed Shell-1
    # minimum: short-ISL cities whose fitted stretch undershoots the +Grid
    # detour (CHANGES.md FOUND). Any change to this set fails the test.
    ISL_BELOW_ROUTED_FLOOR = frozenset(
        {
            ("Toronto", 0), ("Toronto", 600), ("Montreal", 600),
            ("Punta Arenas", 600), ("Punta Arenas", 1200), ("Punta Arenas", 1800),
            ("Punta Arenas", 2400), ("Montevideo", 600), ("Montevideo", 2400),
        }
    )

    def test_isl_leg_never_below_routed_floor(self, shell1_constellation):
        """For every ISL-served city of a Starlink country, at t = 0, 600,
        ..., 2,400 s, the analytic ISL leg (stretched distance at c plus hop
        processing) is at least the Shell-1 routed minimum between the six
        nearest satellites the client sees (25 deg mask) and the six its
        gateway sees (10 deg mask). Every other ISL number of the analytic
        model rests on this one; the routed path is the physical floor."""
        model = StarlinkPathModel(rng=np.random.default_rng(0))
        snapshots = {
            t: build_snapshot(shell1_constellation, float(t))
            for t in range(0, 2401, 600)
        }
        checked, below = 0, set()
        for city in all_cities():
            path = model.resolve_path(city) if city.country.starlink else None
            if path is None or not path.uses_isl:
                continue
            analytic_ms = (
                path.isl_distance_km / SPEED_OF_LIGHT_KM_S * 1000.0
                + path.isl_hops * ISL_HOP_PROCESSING_MS
            )
            for t, snapshot in snapshots.items():
                ends = [
                    [
                        s.index
                        for s in visible_satellites(
                            shell1_constellation, point, float(t), mask
                        )[:6]
                    ]
                    for point, mask in (
                        (city.location, MIN_ELEVATION_USER_DEG),
                        (path.gateway.location, MIN_ELEVATION_GS_DEG),
                    )
                ]
                assert all(ends), (city.name, t)
                routed_ms = fastcore.latency_batch(snapshot.core, ends[0])[:, ends[1]]
                checked += 1
                if analytic_ms < routed_ms.min():
                    below.add((city.name, t))
        assert checked > 100
        assert below == self.ISL_BELOW_ROUTED_FLOOR

    def test_access_latency_models_agree(self, shell1_snapshot):
        """Sampled analytic access latencies must bracket the graph model's
        access edge latency for a served point."""
        from repro.network.access import access_latency_ms
        from repro.orbits.visibility import nearest_visible_satellite
        from synthesis_reference import FixedJitter, uplinks_ms

        point = GeoPoint(10.0, 10.0)
        nearest = nearest_visible_satellite(
            shell1_snapshot.constellation, point, shell1_snapshot.t_s
        )
        graph_access = access_latency_ms(nearest.slant_range_km)
        samples = uplinks_ms(FixedJitter(np.random.default_rng(1)), 200)
        assert min(samples) * 0.9 < graph_access < max(samples) * 1.1


class TestEndToEndSpaceCdn:
    def test_placed_content_served_within_five_hops_everywhere(
        self, shell1_snapshot, shell1
    ):
        """Placement -> lookup -> latency: the full §4 pipeline."""
        holders = KPerPlanePlacement(copies_per_plane=4).place_object("movie", shell1)
        lookup = SpaceCdnLookup(snapshot=shell1_snapshot, max_hops=5)
        rng = np.random.default_rng(2)
        from repro.simulation.sampler import user_sample_points

        for user in user_sample_points(rng, 15):
            result = lookup.lookup_from_point(user, holders)
            assert result.source is not LookupSource.GROUND
            assert result.isl_hops <= 5
            rtt = 2 * result.one_way_ms + CDN_SERVER_THINK_TIME_MS
            # Competitive regime: well under typical current Starlink RTTs.
            assert rtt < 80.0

    def test_space_rtt_beats_analytic_starlink_rtt_for_maputo(self, shell1_snapshot, shell1):
        """The headline: SpaceCDN halves Maputo's CDN latency."""
        model = StarlinkPathModel(rng=np.random.default_rng(3))
        frankfurt = cdn_site_by_name("Frankfurt")
        maputo = city_by_name("Maputo")
        today = model.min_rtt_floor_ms(maputo, frankfurt.location, frankfurt.iso2)

        holders = KPerPlanePlacement(copies_per_plane=4).place_object("news", shell1)
        lookup = SpaceCdnLookup(snapshot=shell1_snapshot, max_hops=5)
        result = lookup.lookup_from_point(maputo.location, holders)
        space_rtt = 2 * result.one_way_ms + CDN_SERVER_THINK_TIME_MS
        assert space_rtt < today / 2.0


class TestSeedDiscipline:
    def test_experiments_fully_reproducible(self):
        """Same seed, same figures — across independent processes-worth of state."""
        from repro.experiments import figure3

        a = figure3.run(seed=123, samples_per_site=5)
        b = figure3.run(seed=123, samples_per_site=5)
        assert a.starlink_ms == b.starlink_ms
        assert a.terrestrial_ms == b.terrestrial_ms

    def test_different_seeds_differ(self):
        from repro.experiments import figure3

        a = figure3.run(seed=1, samples_per_site=5)
        b = figure3.run(seed=2, samples_per_site=5)
        assert a.starlink_ms != b.starlink_ms
