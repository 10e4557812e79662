"""Cross-model integration tests.

The repo deliberately has two fidelity levels: the analytic Starlink path
model (fast, used for AIM-scale simulation) and the full constellation-graph
model (used for Figs. 7/8), here routed through the ``networkx`` reference
of ``topology_reference.py``. These tests pin them to each other and exercise
full end-to-end request flows across subsystems.
"""

import numpy as np
import pytest

from repro.constants import CDN_SERVER_THINK_TIME_MS
from repro.geo.coordinates import GeoPoint
from repro.geo.datasets import cdn_site_by_name, city_by_name
from repro.network.bentpipe import StarlinkPathModel
from repro.network.latency import LatencyNoise
from repro.spacecdn.lookup import LookupSource, SpaceCdnLookup
from repro.spacecdn.placement import KPerPlanePlacement
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

        model = StarlinkPathModel(noise=LatencyNoise(rng=np.random.default_rng(0)))
        path = model.resolve_path(city_by_name("Maputo"))
        from repro.constants import ISL_HOP_PROCESSING_MS, SPEED_OF_LIGHT_KM_S

        analytic_ms = (
            path.isl_distance_km / SPEED_OF_LIGHT_KM_S * 1000.0
            + path.isl_hops * ISL_HOP_PROCESSING_MS
        )
        # Same order of magnitude, analytic within [0.6x, 1.8x] of the graph.
        assert 0.6 * graph_ms < analytic_ms < 1.8 * graph_ms

    def test_access_latency_models_agree(self, shell1_snapshot):
        """Sampled analytic access latencies must bracket the graph model's
        access edge latency for a served point."""
        from repro.network.access import access_latency_ms, sample_access_one_way_ms
        from repro.orbits.visibility import nearest_visible_satellite

        point = GeoPoint(10.0, 10.0)
        nearest = nearest_visible_satellite(
            shell1_snapshot.constellation, point, shell1_snapshot.t_s
        )
        graph_access = access_latency_ms(nearest.slant_range_km)
        rng = np.random.default_rng(1)
        samples = [sample_access_one_way_ms(rng) for _ in range(200)]
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
        model = StarlinkPathModel(noise=LatencyNoise(rng=np.random.default_rng(3)))
        frankfurt = cdn_site_by_name("Frankfurt")
        maputo = city_by_name("Maputo")
        today = model.min_rtt_floor_ms(maputo, frankfurt.location, frankfurt.iso2)

        holders = KPerPlanePlacement(copies_per_plane=4).place_object("news", shell1)
        lookup = SpaceCdnLookup(snapshot=shell1_snapshot, max_hops=5)
        result = lookup.lookup_from_point(maputo.location, holders)
        space_rtt = 2 * result.one_way_ms + CDN_SERVER_THINK_TIME_MS
        assert space_rtt < today / 2.0


class TestEndToEndTerrestrialCdn:
    def test_ground_fallback_latency_flows_into_lookup(self, shell1_snapshot):
        """SpaceCdnLookup ground fallback wired from a real resolved path."""
        model = StarlinkPathModel(noise=LatencyNoise(rng=np.random.default_rng(5)))
        maputo = city_by_name("Maputo")
        path = model.resolve_path(maputo)
        lookup = SpaceCdnLookup(
            snapshot=shell1_snapshot,
            max_hops=3,
            ground_fallback_one_way_ms=path.one_way_floor_ms,
        )
        result = lookup.lookup_from_point(maputo.location, frozenset())
        assert result.source is LookupSource.GROUND
        assert result.one_way_ms == pytest.approx(path.one_way_floor_ms)


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
