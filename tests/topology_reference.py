"""``networkx`` reference views of snapshot graphs, for tests.

The library routes only over the vectorised CSR core
(:mod:`repro.topology.fastcore`). This module keeps the per-query graph
traversals it replaced, as the ground truth the kernels are verified
against (``test_topology_fastcore.py``):

* :func:`networkx_view` — a snapshot as a ``networkx`` graph, honouring
  failed satellites and cut links;
* :func:`attach_ground_node` and :func:`shortest_path` — ground nodes joined
  to every visible satellite, and Dijkstra with path reconstruction;
* the ``*_reference`` twins of the :mod:`repro.topology.fastcore` routing
  kernels (single-source hops and latencies, the hop ladder);
* :func:`full_rows` — one source's unlimited hop and latency rows from the
  kernels themselves, the oracle the bounded searches are pinned to;
* :class:`GraphPathRouter` — terminal -> space segment -> gateway -> PoP
  routed over the actual graph, the high-fidelity cross-check of the
  analytic bent-pipe model (:mod:`repro.network.bentpipe`).

Node naming: satellites are integer indices; ground nodes are strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import networkx as nx
import numpy as np

from repro.constants import MIN_ELEVATION_GS_DEG, MIN_ELEVATION_USER_DEG
from repro.errors import ConfigurationError, RoutingError, VisibilityError
from repro.geo.coordinates import GeoPoint
from repro.geo.datasets.cities import City
from repro.geo.datasets.pops import assigned_pop
from repro.network.access import access_latency_ms
from repro.orbits.visibility import visible_satellites
from repro.topology import fastcore
from repro.topology.graph import SnapshotGraph
from repro.topology.ground import GroundSegment


# -- graph views ---------------------------------------------------------------


def networkx_view(snapshot: SnapshotGraph) -> nx.Graph:
    """The live satellites and ISLs of a snapshot as a ``networkx`` graph.

    Edge weights are one-way latencies in milliseconds under the key
    ``"latency_ms"``; each edge also carries its ``kind`` and
    ``distance_km``.
    """
    core = snapshot.core
    topo = core.topology
    graph = nx.Graph()
    graph.add_nodes_from(snapshot.satellite_nodes())
    for i, (a, b) in enumerate(zip(topo.link_a, topo.link_b)):
        a, b = int(a), int(b)
        if a in snapshot.failed or b in snapshot.failed:
            continue
        if core.link_active is not None and not core.link_active[i]:
            continue
        graph.add_edge(
            a,
            b,
            latency_ms=float(core.link_latency_ms[i]),
            kind=topo.link_kind[i],
            distance_km=float(core.link_distance_km[i]),
        )
    return graph


def attach_ground_node(
    graph: nx.Graph,
    snapshot: SnapshotGraph,
    name: str,
    point: GeoPoint,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
    max_links: int | None = None,
) -> list[int]:
    """Attach a ground node to every live satellite it can currently see.

    Returns the satellite indices linked. Raises :class:`VisibilityError`
    when no satellite is visible.
    """
    if name in graph:
        raise ConfigurationError(f"ground node {name!r} already attached")
    visible = visible_satellites(
        snapshot.constellation, point, snapshot.t_s, min_elevation_deg
    )
    visible = [sat for sat in visible if sat.index not in snapshot.failed]
    if not visible:
        raise VisibilityError(f"no satellite visible from ground node {name!r}")
    if max_links is not None:
        visible = visible[:max_links]
    graph.add_node(name)
    for sat in visible:
        graph.add_edge(
            name,
            sat.index,
            latency_ms=access_latency_ms(sat.slant_range_km),
            kind="access",
        )
    return [sat.index for sat in visible]


@dataclass(frozen=True)
class RouteResult:
    """A routed path and its one-way latency."""

    path: tuple[Hashable, ...]
    latency_ms: float

    @property
    def hops(self) -> int:
        """Number of edges traversed."""
        return len(self.path) - 1


def shortest_path(graph: nx.Graph, src: Hashable, dst: Hashable) -> RouteResult:
    """Minimum-latency path between two nodes of a graph view."""
    try:
        latency, path = nx.single_source_dijkstra(graph, src, dst, weight="latency_ms")
    except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
        raise RoutingError(f"no route {src!r} -> {dst!r}: {exc}") from exc
    return RouteResult(path=tuple(path), latency_ms=float(latency))


# -- references for the repro.topology.fastcore kernels ------------------------


def full_rows(
    core: fastcore.CsrSnapshot, source: int, active=None
) -> tuple[np.ndarray, np.ndarray]:
    """``(hops, latencies)`` of one source to every satellite, unlimited:
    no hop radius and no latency limit, so every reachable satellite holds
    its exact hop count and latency float."""
    return (
        fastcore.hop_distances_batch(core, [source], active)[0],
        fastcore.latency_batch(core, [source], active)[0],
    )


def _satellite_subgraph(graph: nx.Graph, source: int) -> nx.Graph:
    if source not in graph:
        raise RoutingError(f"unknown source satellite {source}")
    return graph.subgraph(n for n in graph if isinstance(n, int))


def hop_distances_reference(graph: nx.Graph, source: int) -> dict[int, int]:
    """``networkx`` BFS reference for a hop row of
    :func:`repro.topology.fastcore.hop_distances_batch`."""
    return {
        int(node): int(d)
        for node, d in nx.single_source_shortest_path_length(
            _satellite_subgraph(graph, source), source
        ).items()
    }


def satellite_latencies_reference(graph: nx.Graph, source: int) -> dict[int, float]:
    """``networkx`` Dijkstra reference for a latency row of
    :func:`repro.topology.fastcore.latency_batch`."""
    return {
        int(node): float(d)
        for node, d in nx.single_source_dijkstra_path_length(
            _satellite_subgraph(graph, source), source, weight="latency_ms"
        ).items()
    }


def latency_by_hop_count_reference(
    graph: nx.Graph, source: int, max_hops: int
) -> dict[int, float]:
    """``networkx`` reference for one row of
    :func:`repro.topology.fastcore.hop_ladder_batch`: hop count -> cheapest
    latency to a satellite exactly that many hops away."""
    if max_hops < 0:
        raise RoutingError(f"max_hops must be non-negative, got {max_hops}")
    hops = hop_distances_reference(graph, source)
    latencies = satellite_latencies_reference(graph, source)
    result: dict[int, float] = {}
    for node, h in hops.items():
        if h > max_hops:
            continue
        latency = latencies.get(node)
        if latency is None:
            continue
        best = result.get(h)
        if best is None or latency < best:
            result[h] = latency
    return result


# -- end-to-end graph routing ------------------------------------------------------


@dataclass(frozen=True)
class EndToEndPath:
    """A graph-routed path from a terminal to its PoP."""

    pop_name: str
    gateway_name: str
    satellite_hops: int
    one_way_ms: float
    path: tuple


@dataclass
class GraphPathRouter:
    """Routes user terminals to their assigned PoP over a snapshot graph.

    Terminals and gateways are attached to the router's own graph view on
    first use; the snapshot itself is never modified.
    """

    snapshot: SnapshotGraph
    ground: GroundSegment = field(default_factory=GroundSegment.from_gazetteer)
    graph: nx.Graph = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.graph = networkx_view(self.snapshot)

    def _attach(self, node: str, point: GeoPoint, **kwargs) -> None:
        if node not in self.graph:
            attach_ground_node(self.graph, self.snapshot, node, point, **kwargs)

    def _attach_gateways(self, pop_name: str) -> list[tuple[str, float]]:
        """Attach every gateway of a PoP; returns (node, backhaul one-way ms)."""
        nodes = []
        for gateway in self.ground.stations_for_pop(pop_name):
            node = gateway.node_name
            try:
                self._attach(
                    node,
                    gateway.location,
                    min_elevation_deg=MIN_ELEVATION_GS_DEG,
                    max_links=8,
                )
            except VisibilityError:
                continue  # gateway outside this shell's coverage band
            nodes.append((node, gateway.backhaul_latency_ms()))
        return nodes

    def route_city(self, city: City) -> EndToEndPath:
        """Route a terminal in ``city`` to its assigned PoP through space.

        Picks, over every reachable gateway of the assigned PoP, the
        minimum total latency (space path + fiber backhaul).
        """
        pop = assigned_pop(city.iso2, city.lat_deg, city.lon_deg)
        terminal = f"ut:{city.name}"
        self._attach(
            terminal,
            city.location,
            min_elevation_deg=MIN_ELEVATION_USER_DEG,
            max_links=4,
        )
        gateways = self._attach_gateways(pop.name)
        if not gateways:
            raise RoutingError(f"no gateway of PoP {pop.name!r} sees the constellation")

        processing_ms = self.ground.pop_named(pop.name).processing_delay_ms
        best: EndToEndPath | None = None
        for gateway_node, backhaul_ms in gateways:
            try:
                route = shortest_path(self.graph, terminal, gateway_node)
            except RoutingError:
                continue
            total = route.latency_ms + backhaul_ms + processing_ms
            if best is None or total < best.one_way_ms:
                best = EndToEndPath(
                    pop_name=pop.name,
                    gateway_name=gateway_node.removeprefix("gs:"),
                    satellite_hops=max(0, route.hops - 2),
                    one_way_ms=total,
                    path=route.path,
                )
        if best is None:
            raise RoutingError(
                f"no space path from {city.name} to any gateway of {pop.name!r}"
            )
        return best
