"""Tests for graph-routed end-to-end paths (and analytic-model validation).

The graph router is the ``networkx`` reference of ``topology_reference.py``:
the analytic bent-pipe model is cross-checked against it.
"""

import numpy as np
import pytest

from repro.geo.datasets.cities import city_by_name
from repro.network.bentpipe import StarlinkPathModel
from repro.orbits.elements import starlink_shell1
from repro.orbits.walker import build_walker_delta
from repro.topology.graph import build_snapshot
from topology_reference import GraphPathRouter


@pytest.fixture
def router():
    constellation = build_walker_delta(starlink_shell1())
    return GraphPathRouter(snapshot=build_snapshot(constellation, 0.0))


class TestRouting:
    def test_madrid_routes_to_madrid_pop(self, router):
        path = router.route_city(city_by_name("Madrid"))
        assert path.pop_name == "Madrid"
        assert path.one_way_ms < 25.0
        assert path.satellite_hops >= 0

    def test_maputo_routes_to_frankfurt_through_many_hops(self, router):
        path = router.route_city(city_by_name("Maputo"))
        assert path.pop_name == "Frankfurt"
        assert path.satellite_hops >= 5
        assert 30.0 < path.one_way_ms < 120.0

    def test_path_endpoints(self, router):
        path = router.route_city(city_by_name("Tokyo"))
        assert str(path.path[0]).startswith("ut:")
        assert str(path.path[-1]).startswith("gs:")

    def test_repeat_routing_is_stable(self, router):
        a = router.route_city(city_by_name("Sydney"))
        b = router.route_city(city_by_name("Sydney"))
        assert a.one_way_ms == b.one_way_ms

    def test_gateway_belongs_to_pop(self, router):
        from repro.topology.ground import GroundSegment

        segment = GroundSegment.from_gazetteer()
        path = router.route_city(city_by_name("Nairobi"))
        gateway_names = {g.name for g in segment.stations_for_pop(path.pop_name)}
        assert path.gateway_name in gateway_names


class TestAnalyticValidation:
    def test_graph_and_analytic_floors_agree_for_bent_pipe(self, router):
        """For a bent-pipe city the two models must agree within ~40%."""
        model = StarlinkPathModel(rng=np.random.default_rng(0))
        for name in ("Madrid", "Tokyo", "Seattle"):
            city = city_by_name(name)
            analytic = model.resolve_path(city).one_way_floor_ms
            graph = router.route_city(city).one_way_ms
            assert 0.6 < analytic / graph < 1.6, name

    def test_graph_and_analytic_agree_for_isl_city(self, router):
        """For the Maputo ISL path the calibrated analytic stretch must land
        within a factor of two of the graph route (the graph route itself
        varies with epoch geometry)."""
        model = StarlinkPathModel(rng=np.random.default_rng(1))
        city = city_by_name("Maputo")
        analytic = model.resolve_path(city).one_way_floor_ms
        graph = router.route_city(city).one_way_ms
        assert 0.5 < analytic / graph < 2.0

    def test_isl_city_costs_more_than_bent_pipe_city_on_graph(self, router):
        bent = router.route_city(city_by_name("Madrid")).one_way_ms
        isl = router.route_city(city_by_name("Maputo")).one_way_ms
        assert isl > 2.0 * bent
