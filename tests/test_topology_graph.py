"""Tests for snapshot graph construction.

Graph-shaped checks (edges, connectivity, ground attachment) run on the
``networkx`` view of ``topology_reference.py``.
"""

import networkx as nx
import numpy as np
import pytest

from repro.constants import ISL_HOP_PROCESSING_MS, SPEED_OF_LIGHT_KM_S
from repro.errors import ConfigurationError, RoutingError, VisibilityError
from repro.geo.coordinates import GeoPoint
from repro.network.access import access_latency_ms
from repro.topology.fastcore import link_weights
from topology_reference import attach_ground_node, networkx_view


class TestLatencyFunctions:
    def test_isl_latency_zero_distance_is_processing_only(self, small_snapshot):
        topology = small_snapshot.core.topology
        distances, latencies = link_weights(
            topology, np.zeros((topology.num_nodes, 3))
        )
        assert (distances == 0.0).all()
        assert (latencies == ISL_HOP_PROCESSING_MS).all()

    def test_isl_latency_linear_in_distance(self, small_snapshot):
        # Put link 0's far end 10 light-milliseconds from its near end.
        topology = small_snapshot.core.topology
        positions = np.zeros((topology.num_nodes, 3))
        positions[topology.link_b[0]] = (2997.92458, 0.0, 0.0)
        distances, latencies = link_weights(topology, positions)
        assert distances[0] == pytest.approx(2997.92458)
        assert latencies[0] == pytest.approx(ISL_HOP_PROCESSING_MS + 10.0)

    def test_isl_positions_shape_checked(self, small_snapshot):
        topology = small_snapshot.core.topology
        with pytest.raises(RoutingError):
            link_weights(topology, np.zeros((topology.num_nodes + 1, 3)))

    def test_access_latency_includes_overheads(self):
        prop_only = 550.0 / SPEED_OF_LIGHT_KM_S * 1000.0
        assert access_latency_ms(550.0) > prop_only + 4.0

    def test_access_negative_range_rejected(self):
        with pytest.raises(ConfigurationError):
            access_latency_ms(-5.0)


class TestBuildSnapshot:
    def test_node_count(self, small_snapshot, small_shell):
        assert len(small_snapshot.satellite_nodes()) == small_shell.total_satellites

    def test_edge_count(self, small_view, small_shell):
        assert small_view.number_of_edges() == 2 * small_shell.total_satellites

    def test_edges_have_positive_latency(self, small_view):
        for _, _, data in small_view.edges(data=True):
            assert data["latency_ms"] > 0.0
            assert data["distance_km"] > 0.0

    def test_edge_latency_matches_distance(self, small_view):
        for a, b, data in small_view.edges(data=True):
            assert data["latency_ms"] == pytest.approx(
                data["distance_km"] / SPEED_OF_LIGHT_KM_S * 1000.0
                + ISL_HOP_PROCESSING_MS
            )

    def test_graph_is_connected(self, small_view):
        assert nx.is_connected(small_view)

    def test_shell1_graph_connected(self, shell1_snapshot):
        assert nx.is_connected(networkx_view(shell1_snapshot))

    def test_edge_latency_accessor(self, small_snapshot, small_view):
        core = small_snapshot.core
        a, b = int(core.topology.link_a[0]), int(core.topology.link_b[0])
        assert small_view[a][b]["latency_ms"] == core.link_latency_ms[0] > 0

    def test_arrays_are_read_only(self, small_snapshot):
        for array in (
            small_snapshot.positions,
            small_snapshot.core.link_distance_km,
            small_snapshot.core.link_latency_ms,
        ):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_view_drops_failed_satellites(self, small_snapshot):
        from repro.spacecdn.resilience import fail_satellites

        view = networkx_view(fail_satellites(small_snapshot, frozenset({0})))
        assert 0 not in view
        assert view.number_of_nodes() == small_snapshot.core.num_nodes - 1


class TestAttachGroundNode:
    def test_attach_links_to_visible_satellites(self, shell1_snapshot):
        view = networkx_view(shell1_snapshot)
        linked = attach_ground_node(
            view, shell1_snapshot, "ut:test", GeoPoint(10.0, 10.0)
        )
        assert linked
        for sat in linked:
            data = view["ut:test"][sat]
            assert data["kind"] == "access"
            assert data["latency_ms"] > 0

    def test_attach_twice_rejected(self, small_snapshot, small_view):
        attach_ground_node(small_view, small_snapshot, "ut:x", GeoPoint(0.0, 0.0))
        with pytest.raises(ConfigurationError):
            attach_ground_node(small_view, small_snapshot, "ut:x", GeoPoint(0.0, 0.0))

    def test_attach_outside_coverage_raises(self, shell1_snapshot):
        with pytest.raises(VisibilityError):
            attach_ground_node(
                networkx_view(shell1_snapshot),
                shell1_snapshot,
                "ut:svalbard",
                GeoPoint(78.2, 15.6),
            )

    def test_max_links_respected(self, shell1_snapshot):
        linked = attach_ground_node(
            networkx_view(shell1_snapshot),
            shell1_snapshot,
            "ut:limited",
            GeoPoint(-10.0, 40.0),
            max_links=2,
        )
        assert len(linked) <= 2
