"""Tests for ground-segment models."""

import pytest

from repro.errors import DatasetError
from repro.geo.coordinates import great_circle_km
from repro.geo.datasets.ground_stations import all_ground_stations
from repro.geo.datasets.pops import all_pops
from repro.topology.ground import GroundSegment, GroundStation


@pytest.fixture(scope="module")
def segment() -> GroundSegment:
    return GroundSegment.from_gazetteer()


class TestGroundStation:
    def test_wraps_site(self, segment):
        station = segment.stations[0]
        assert isinstance(station, GroundStation)
        assert station.name == station.site.name

    def test_backhaul_latency_positive_and_bounded(self, segment):
        for station in segment.stations:
            latency = station.backhaul_latency_ms()
            assert 0.0 < latency < 60.0

    def test_backhaul_scales_with_distance(self, segment):
        by_distance = sorted(
            segment.stations,
            key=lambda gs: great_circle_km(gs.location, gs.site.pop.location),
        )
        nearest, farthest = by_distance[0], by_distance[-1]
        assert nearest.backhaul_latency_ms() < farthest.backhaul_latency_ms()


class TestGroundSegment:
    def test_from_gazetteer_counts(self, segment):
        assert len(segment.stations) == len(all_ground_stations())
        assert len(segment.pops) == len(all_pops())

    def test_pop_named(self, segment):
        assert segment.pop_named("Frankfurt").site.iso2 == "DE"

    def test_pop_named_unknown_raises(self, segment):
        with pytest.raises(DatasetError):
            segment.pop_named("Nowhere")

    def test_stations_for_pop(self, segment):
        frankfurt_stations = segment.stations_for_pop("Frankfurt")
        assert frankfurt_stations
        assert all(gs.site.pop_name == "Frankfurt" for gs in frankfurt_stations)

    def test_every_pop_with_stations_is_consistent(self, segment):
        for pop in segment.pops:
            for gs in segment.stations_for_pop(pop.name):
                assert gs.site.pop.name == pop.name

