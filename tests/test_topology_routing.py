"""Tests for routing over snapshot graphs.

Path reconstruction and per-edge lookups go through the ``networkx`` view
of ``topology_reference.py``; the fastcore-backed wrappers are checked
against it.
"""

import pytest

from repro.errors import RoutingError
from repro.topology.routing import (
    hop_distances,
    latency_by_hop_count,
    min_latency_at_hops,
    satellite_latencies,
)
from topology_reference import networkx_view, shortest_path


def edge_latency_ms(view, a, b) -> float:
    return view[a][b]["latency_ms"]


class TestShortestPath:
    def test_path_to_self(self, small_view):
        route = shortest_path(small_view, 0, 0)
        assert route.path == (0,)
        assert route.latency_ms == 0.0
        assert route.hops == 0

    def test_neighbor_path(self, small_view):
        neighbor = next(iter(small_view[0]))
        route = shortest_path(small_view, 0, neighbor)
        assert route.hops == 1
        assert route.latency_ms == pytest.approx(edge_latency_ms(small_view, 0, neighbor))

    def test_latency_is_sum_of_edges(self, small_view):
        route = shortest_path(small_view, 0, 20)
        total = sum(
            edge_latency_ms(small_view, a, b) for a, b in zip(route.path, route.path[1:])
        )
        assert route.latency_ms == pytest.approx(total)

    def test_unknown_node_raises(self, small_view):
        with pytest.raises(RoutingError):
            shortest_path(small_view, 0, 10_000)

    def test_triangle_inequality_vs_direct_edges(self, small_view):
        # Shortest path latency can never exceed any single concatenation.
        for target in (5, 17, 33):
            direct = shortest_path(small_view, 0, target).latency_ms
            via = (
                shortest_path(small_view, 0, 8).latency_ms
                + shortest_path(small_view, 8, target).latency_ms
            )
            assert direct <= via + 1e-9


class TestHopDistances:
    def test_source_at_zero(self, small_snapshot):
        assert hop_distances(small_snapshot, 0)[0] == 0

    def test_neighbors_at_one(self, small_snapshot, small_view):
        hops = hop_distances(small_snapshot, 0)
        for neighbor in small_view[0]:
            assert hops[neighbor] == 1

    def test_all_satellites_reachable(self, small_snapshot, small_shell):
        hops = hop_distances(small_snapshot, 0)
        assert len(hops) == small_shell.total_satellites

    def test_unknown_source_raises(self, small_snapshot):
        with pytest.raises(RoutingError):
            hop_distances(small_snapshot, 9999)

    def test_shell1_diameter_reasonable(self, shell1_snapshot):
        # A 72x22 torus has a hop diameter around (72+22)/2; sanity-bound it.
        hops = hop_distances(shell1_snapshot, 0)
        diameter = max(hops.values())
        assert 20 <= diameter <= 60


class TestSatelliteLatencies:
    def test_source_zero(self, small_snapshot):
        assert satellite_latencies(small_snapshot, 0)[0] == 0.0

    def test_consistent_with_shortest_path(self, small_snapshot, small_view):
        latencies = satellite_latencies(small_snapshot, 0)
        for target in (3, 11, 40):
            assert latencies[target] == pytest.approx(
                shortest_path(small_view, 0, target).latency_ms
            )


class TestLatencyByHopCount:
    def test_hop_zero_is_free(self, small_snapshot):
        ladder = latency_by_hop_count(small_snapshot, 0, 5)
        assert ladder[0] == 0.0

    def test_monotone_nondecreasing(self, shell1_snapshot):
        ladder = latency_by_hop_count(shell1_snapshot, 100, 10)
        values = [ladder[h] for h in sorted(ladder)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_every_hop_count_present_in_plus_grid(self, shell1_snapshot):
        ladder = latency_by_hop_count(shell1_snapshot, 100, 10)
        assert set(ladder) == set(range(11))

    def test_negative_max_hops_rejected(self, small_snapshot):
        with pytest.raises(RoutingError):
            latency_by_hop_count(small_snapshot, 0, -1)

    def test_min_latency_at_hops_matches_ladder(self, small_snapshot):
        ladder = latency_by_hop_count(small_snapshot, 0, 4)
        assert min_latency_at_hops(small_snapshot, 0, 3) == pytest.approx(ladder[3])

    def test_min_latency_at_unreachable_hops_raises(self, small_snapshot, small_shell):
        huge = small_shell.total_satellites  # farther than any BFS distance
        with pytest.raises(RoutingError):
            min_latency_at_hops(small_snapshot, 0, huge)

    def test_hop_one_is_cheapest_edge(self, shell1_snapshot):
        ladder = latency_by_hop_count(shell1_snapshot, 0, 1)
        view = networkx_view(shell1_snapshot)
        cheapest = min(edge_latency_ms(view, 0, n) for n in view[0])
        assert ladder[1] == pytest.approx(cheapest)
