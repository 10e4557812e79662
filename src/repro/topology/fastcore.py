"""Vectorised CSR routing core for the +Grid constellation topology.

The +Grid ISL structure is *static in satellite indices* — only the link
lengths change as the constellation rotates — so the neighbour structure can
be compiled once per shell configuration into flat CSR arrays
(:class:`CsrTopology`) and every snapshot only swaps in a fresh per-link
weight vector (:class:`CsrSnapshot`). Routing queries then run as batched
array kernels instead of per-query graph traversals:

* :func:`hop_distances_batch` — hop counts from many sources at once;
* :func:`latency_batch` — one-way Dijkstra latencies from many sources;
* :func:`hop_ladder_batch` — the Fig. 7 "cheapest satellite at exactly
  h hops" ladder for many sources;
* :func:`single_source_batch` — the serve walk's (hops, latencies) rows
  within a hop radius;
* :func:`single_source` — the duty-cycle lookup's rows, searched only as
  far as each source's nearest target;
* :func:`nearest_hops` — multi-source BFS (hops to the nearest of a
  replica/holder set), the placement and resilience primitive.

Searches run on ``scipy.sparse.csgraph.dijkstra`` over a CSR matrix of the
snapshot's live links, cached per snapshot for the undegraded case; hop
counts use the same matrix unweighted.

Hop counts on an intact grid need one search per shell, not one per
source. :func:`plus_grid_links` wires (p, s) to (p, s+1 mod S) and to
(p+1 mod P, s+offset mod S) at every (plane, slot), seam included, so the
+Grid is invariant under the translation
``τ_a: (p, s) -> (p + p_a mod P, s + s_a mod S)`` and
``hops[a, v] = hops[0, τ_a⁻¹(v)]``. :func:`csr_topology` stores one BFS
row from satellite 0, and undegraded hop queries gather each source's row
from it by index arithmetic. A query with an ``active`` mask or on a core
with cut links breaks the symmetry, so it runs a BFS (an unweighted
Dijkstra search).

Callers that read only a hop radius search only that far.
:func:`single_source_batch` (the serve walk) needs every satellite within
``max_hops``; :func:`hop_ladder_batch` (Fig. 7) needs only the cheapest
satellite at each hop count. Both first take the hop rows clipped to the
radius, then :func:`hop_path_bound` walks those BFS levels and gives each
satellite the float latency of its cheapest hop-shortest path. That path
exists, and float addition rounds monotonically, so by induction along it
the bound is never below Dijkstra's float latency of the satellite. The
latency search then runs with ``limit`` = the largest bound the caller
needs (scipy's ``limit`` is inclusive). Dijkstra finalises satellites in
latency order, so every satellite within the limit gets exactly the float
of an unlimited search, and rows outside the radius read
:data:`HOP_UNREACHABLE`/``inf``. :func:`single_source` (the duty-cycle
lookup) needs only each source's cheapest target within the radius, so it
walks each row's levels only down to the shallowest one holding a target,
and the latency search stops at the largest of the rows' cheapest target
bounds.

Satellite failures are expressed as an ``active`` boolean mask: failed
nodes neither relay nor terminate paths, matching graph routing on the
degraded subgraph. ISL cuts are expressed per snapshot through
:func:`degrade_core`: the degraded view shares the immutable topology and
only swaps the per-link liveness vector, so a cut costs one O(E) array
pass, never a rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix as _scipy_csr_matrix
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from repro.constants import ISL_HOP_PROCESSING_MS, SPEED_OF_LIGHT_KM_S
from repro.errors import RoutingError
from repro.obs.recorder import get_recorder
from repro.orbits.elements import ShellConfig
from repro.topology.isl import plus_grid_links


HOP_UNREACHABLE = -1
"""Hop-count value marking satellites no path reaches."""


@dataclass(frozen=True)
class CsrTopology:
    """Flat CSR adjacency of one shell's +Grid, built once per config.

    Directed slot ``k`` is the edge ``slot_row[k] -> indices[k]`` carrying
    undirected link ``slot_link[k]``; ``neighbors``/``neighbor_link`` are the
    same structure padded to a dense ``(N, max_degree)`` matrix (pad slots
    hold a safe node index and link id ``-1``) for the level-by-level walks
    (:func:`hop_path_bound` and the origin BFS).
    ``grid_shape`` is (planes, slots per plane) and ``origin_hops`` the
    hop row from satellite 0, from which every undegraded hop row is a
    translation (see the module docstring).
    """

    num_nodes: int
    link_a: np.ndarray
    link_b: np.ndarray
    link_kind: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    slot_link: np.ndarray
    slot_row: np.ndarray
    neighbors: np.ndarray
    neighbor_link: np.ndarray
    max_degree: int
    grid_shape: tuple[int, int]
    origin_hops: np.ndarray


@lru_cache(maxsize=16)
def csr_topology(config: ShellConfig) -> CsrTopology:
    """Compile the +Grid link set of a shell into CSR arrays (cached)."""
    links = plus_grid_links(config)
    n = config.total_satellites
    e = len(links)
    link_a = np.fromiter((l.a for l in links), dtype=np.int32, count=e)
    link_b = np.fromiter((l.b for l in links), dtype=np.int32, count=e)
    link_kind = tuple(l.kind for l in links)

    # Directed edge list: every undirected link contributes both directions.
    rows = np.concatenate((link_a, link_b)) if e else np.empty(0, dtype=np.int32)
    cols = np.concatenate((link_b, link_a)) if e else np.empty(0, dtype=np.int32)
    link_ids = np.concatenate((np.arange(e), np.arange(e))).astype(np.int32)

    order = np.argsort(rows, kind="stable")
    rows, cols, link_ids = rows[order], cols[order], link_ids[order]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)

    degrees = np.diff(indptr)
    max_degree = int(degrees.max()) if n else 0
    neighbors = np.zeros((n, max_degree), dtype=np.int32)
    neighbor_link = np.full((n, max_degree), -1, dtype=np.int32)
    if e:
        slot_of = (np.arange(len(rows)) - indptr[rows]).astype(np.int32)
        neighbors[rows, slot_of] = cols
        neighbor_link[rows, slot_of] = link_ids

    return CsrTopology(
        num_nodes=n,
        link_a=link_a,
        link_b=link_b,
        link_kind=link_kind,
        indptr=indptr,
        indices=cols.astype(np.int32),
        slot_link=link_ids,
        slot_row=rows.astype(np.int32),
        neighbors=neighbors,
        neighbor_link=neighbor_link,
        max_degree=max_degree,
        grid_shape=(config.num_planes, config.sats_per_plane),
        origin_hops=_bfs_row(neighbors, neighbor_link),
    )


def _bfs_row(neighbors: np.ndarray, neighbor_link: np.ndarray) -> np.ndarray:
    """Hop counts from satellite 0, one numpy frontier per BFS level."""
    hops = np.full(len(neighbors), HOP_UNREACHABLE, dtype=np.int32)
    if not len(hops):
        return hops
    hops[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        reached = neighbors[frontier][neighbor_link[frontier] >= 0]
        frontier = np.unique(reached[hops[reached] == HOP_UNREACHABLE])
        hops[frontier] = level
    return hops


def _translated_hops(topology: CsrTopology, sources: np.ndarray) -> np.ndarray:
    """Undegraded hop rows of ``sources``: ``hops[a, v] = origin[τ_a⁻¹(v)]``.

    The origin row as a (planes, slots) grid, tiled 2 x 2, holds every
    translate as a window: source (p_a, s_a)'s grid starts at
    (planes - p_a, slots - s_a), so no index needs a modulo.
    """
    planes, per = topology.grid_shape
    tile = np.tile(topology.origin_hops.reshape(planes, per), (2, 2))
    windows = np.lib.stride_tricks.sliding_window_view(tile, (planes, per))
    rows = windows[planes - sources // per, per - sources % per]
    return rows.reshape(len(sources), topology.num_nodes)


@dataclass
class CsrSnapshot:
    """Per-instant link weights over a shell's static CSR topology.

    ``link_active`` (when not ``None``) marks ISLs cut by a fault schedule:
    inactive links carry nothing in any search, exactly as if the edge
    were absent from the graph.
    """

    topology: CsrTopology
    link_distance_km: np.ndarray
    link_latency_ms: np.ndarray
    link_active: np.ndarray | None = None
    _matrix_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes


def link_weights(
    topology: CsrTopology, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distances and latencies of every link, one vectorised gather.

    ``positions`` is the ``(N, 3)`` ECEF array of the snapshot instant; the
    distances are the chord lengths between link endpoints and latencies add
    the per-hop optical-terminal switching delay.
    """
    if positions.shape != (topology.num_nodes, 3):
        raise RoutingError(
            f"positions must have shape ({topology.num_nodes}, 3), "
            f"got {positions.shape}"
        )
    diff = positions[topology.link_a] - positions[topology.link_b]
    distances = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    latencies = distances / SPEED_OF_LIGHT_KM_S * 1000.0 + ISL_HOP_PROCESSING_MS
    return distances, latencies


def degrade_core(core: CsrSnapshot, cut_links: Iterable[int] = ()) -> CsrSnapshot:
    """A degraded view of a snapshot core with the ``cut_links`` ISLs cut.

    The returned :class:`CsrSnapshot` shares the topology and link-weight
    arrays; a ``link_active`` mask marks the cut links.
    """
    e = len(core.topology.link_a)
    link_active = None if core.link_active is None else core.link_active.copy()
    cut = np.asarray(sorted(set(_as_link_ids(cut_links))), dtype=np.int64)
    if cut.size:
        if cut[0] < 0 or cut[-1] >= e:
            bad = cut[0] if cut[0] < 0 else cut[-1]
            raise RoutingError(f"unknown link id {int(bad)} in cut set")
        if link_active is None:
            link_active = np.ones(e, dtype=bool)
        link_active[cut] = False
    return CsrSnapshot(
        topology=core.topology,
        link_distance_km=core.link_distance_km,
        link_latency_ms=core.link_latency_ms,
        link_active=link_active,
    )


# -- source / mask / radius validation ----------------------------------------


def _is_int(value) -> bool:
    """A Python or numpy integer; bools are not ids or radii."""
    return isinstance(value, (int, np.integer)) and not isinstance(
        value, (bool, np.bool_)
    )


def _as_link_ids(cut_links: Iterable[int]) -> list[int]:
    ids = list(cut_links)
    for link in ids:
        if not _is_int(link):
            raise RoutingError(f"cut link ids must be integers, got {link!r}")
    return [int(link) for link in ids]


def _as_radius(max_hops) -> int:
    if not _is_int(max_hops):
        raise RoutingError(f"max_hops must be an integer, got {max_hops!r}")
    if max_hops < 0:
        raise RoutingError(f"max_hops must be non-negative, got {max_hops}")
    return int(max_hops)


def _as_sources(core: CsrSnapshot, sources, active: np.ndarray | None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(sources))
    if arr.ndim != 1 or arr.size == 0:
        raise RoutingError("sources must be a non-empty 1-D sequence")
    if not np.issubdtype(arr.dtype, np.integer):
        raise RoutingError(f"source satellites must be integers, got {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    n = core.num_nodes
    bad = (arr < 0) | (arr >= n)
    if bad.any():
        raise RoutingError(f"unknown source satellite {int(arr[bad][0])}")
    if active is not None and not active[arr].all():
        dead = arr[~active[arr]]
        raise RoutingError(f"source satellite {int(dead[0])} is failed")
    return arr


def _as_active(core: CsrSnapshot, active) -> np.ndarray | None:
    if active is None:
        return None
    mask = np.asarray(active, dtype=bool)
    if mask.shape != (core.num_nodes,):
        raise RoutingError(
            f"active mask must have shape ({core.num_nodes},), got {mask.shape}"
        )
    return mask


# -- search graph -------------------------------------------------------------


def _scipy_graph(core: CsrSnapshot, active: np.ndarray | None):
    """A csgraph CSR matrix of the (possibly degraded) snapshot's latencies,
    cached for the common undegraded case. Hop searches run on the same
    matrix with ``unweighted=True``, which ignores the weights."""
    key = None if active is None else active.tobytes()
    cached = core._matrix_cache.get(key)
    if cached is not None:
        return cached
    topo = core.topology
    rows, cols, links = topo.slot_row, topo.indices, topo.slot_link
    keep = None
    if active is not None:
        keep = active[rows] & active[cols]
    if core.link_active is not None:
        live = core.link_active[links]
        keep = live if keep is None else keep & live
    if keep is not None:
        rows, cols, links = rows[keep], cols[keep], links[keep]
    matrix = _scipy_csr_matrix(
        (core.link_latency_ms[links], (rows, cols)),
        shape=(topo.num_nodes, topo.num_nodes),
    )
    if active is None or len(core._matrix_cache) < 8:
        core._matrix_cache[key] = matrix
    return matrix


# -- padded neighbour weights -------------------------------------------------


def _padded_latencies(core: CsrSnapshot) -> np.ndarray:
    """``(N, max_degree)`` latency of each neighbour slot's link; ``inf`` on
    pad slots and cut links."""
    topo = core.topology
    pad = topo.neighbor_link < 0
    safe_link = np.where(pad, 0, topo.neighbor_link)
    weights = np.where(pad, np.inf, core.link_latency_ms[safe_link])
    if core.link_active is not None:
        weights = np.where(core.link_active[safe_link], weights, np.inf)
    return weights


# -- public kernels -----------------------------------------------------------


def _distances(
    core: CsrSnapshot,
    sources,
    active,
    weighted: bool,
    min_only: bool = False,
    limit: float | None = None,
) -> np.ndarray:
    mask = _as_active(core, active)
    src = _as_sources(core, sources, mask)
    dist = np.atleast_2d(
        _scipy_dijkstra(
            _scipy_graph(core, mask),
            indices=src,
            unweighted=not weighted,
            min_only=min_only,
            limit=np.inf if limit is None else limit,
        )
    )
    if mask is not None:
        dist[:, ~mask] = np.inf
    return dist


def latency_batch(
    core: CsrSnapshot,
    sources: Sequence[int] | np.ndarray,
    active: np.ndarray | None = None,
    limit: float | None = None,
) -> np.ndarray:
    """One-way ISL latencies from each source to every satellite.

    Returns ``(len(sources), N)`` float64; unreachable (or failed)
    satellites hold ``inf``. With a ``limit`` (ms), satellites farther
    than it hold ``inf`` too, and every satellite within it holds exactly
    the float of an unlimited search (the limit is inclusive).
    """
    with get_recorder().timer("fastcore.latency_batch"):
        return _distances(core, sources, active, weighted=True, limit=limit)


def hop_distances_batch(
    core: CsrSnapshot,
    sources: Sequence[int] | np.ndarray,
    active: np.ndarray | None = None,
    max_hops: int | None = None,
) -> np.ndarray:
    """Hop counts from each source to every satellite.

    Returns ``(len(sources), N)`` int32; unreachable (or failed) satellites,
    and with ``max_hops`` those more than ``max_hops`` hops away, hold
    :data:`HOP_UNREACHABLE`. On an undegraded core (no ``active`` mask, no
    cut links) each row is the stored satellite-0 row translated by the
    source's (plane, slot), because the +Grid looks the same from every
    satellite; no search runs. Any mask, even an all-True one, and any cut
    link fall back to a BFS, stopped at ``max_hops``.
    """
    radius = None if max_hops is None else _as_radius(max_hops)
    with get_recorder().timer("fastcore.hop_distances_batch"):
        if active is None and core.link_active is None:
            hops = _translated_hops(core.topology, _as_sources(core, sources, None))
            if radius is not None:
                hops[hops > radius] = HOP_UNREACHABLE
            return hops
        levels = _distances(core, sources, active, weighted=False, limit=radius)
        hops = np.full(levels.shape, HOP_UNREACHABLE, dtype=np.int32)
        reachable = np.isfinite(levels)
        hops[reachable] = levels[reachable].astype(np.int32)
        return hops


def hop_path_bound(core: CsrSnapshot, hops: np.ndarray) -> np.ndarray:
    """Latency of each satellite's cheapest hop-shortest path, per hop row.

    ``hops`` are ``(S, N)`` rows of :func:`hop_distances_batch` on ``core``
    (with the same mask, possibly clipped to a radius). Level by level,
    ``bound[v] = min(bound[u] + w(u, v))`` over the live links from the
    previous BFS level, in the float order a path sum takes. Each entry is
    a real path's latency, so it is never below the satellite's
    :func:`latency_batch` float (see the module docstring); satellites with
    no hop count hold ``inf``.
    """
    topo = core.topology
    n = topo.num_nodes
    flat_hops = hops.ravel()
    bound = np.where(flat_hops == 0, 0.0, np.inf)
    # Every entry past level 0, grouped by level (one scan of the rows).
    found = np.flatnonzero(flat_hops > 0)
    if found.size == 0 or topo.max_degree == 0:
        return bound.reshape(hops.shape)
    found = found[np.argsort(flat_hops[found], kind="stable")]
    cuts = np.flatnonzero(np.diff(flat_hops[found])) + 1
    weights = _padded_latencies(core)
    for level in np.split(found, cuts):
        nodes = level % n
        row_start = level - nodes
        # A level-h satellite's neighbours sit at levels h-1..h+1, and only
        # level h-1 holds finite bounds while level h is being filled.
        bound[level] = np.min(
            bound[row_start[:, None] + topo.neighbors[nodes]] + weights[nodes],
            axis=1,
        )
    return bound.reshape(hops.shape)


def _largest_finite(values: np.ndarray) -> float:
    return float(np.max(values, initial=0.0, where=np.isfinite(values)))


def _level_min(hops: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
    """``(S, width)`` minimum of the finite ``values`` at each hop count."""
    valid = (hops >= 0) & (hops < width) & np.isfinite(values)
    s_idx, node_idx = np.nonzero(valid)
    keys = s_idx * width + hops[s_idx, node_idx]
    flat = np.full(hops.shape[0] * width, np.inf)
    np.minimum.at(flat, keys, values[s_idx, node_idx])
    return flat.reshape(hops.shape[0], width)


def nearest_hops(
    core: CsrSnapshot,
    targets: Iterable[int],
    active: np.ndarray | None = None,
) -> np.ndarray:
    """Hops from every satellite to its nearest member of ``targets``.

    Multi-source BFS; the placement/resilience primitive. Returns ``(N,)``
    int32 with :data:`HOP_UNREACHABLE` where no target can be reached.
    """
    with get_recorder().timer("fastcore.nearest_hops"):
        target_arr = np.asarray(sorted(set(int(t) for t in targets)), dtype=np.int64)
        levels = _distances(
            core, target_arr, active, weighted=False, min_only=True
        )[0]
        hops = np.full(levels.shape, HOP_UNREACHABLE, dtype=np.int32)
        reachable = np.isfinite(levels)
        hops[reachable] = levels[reachable].astype(np.int32)
        return hops


def single_source(
    core: CsrSnapshot,
    sources: Sequence[int] | np.ndarray,
    max_hops: int,
    targets: np.ndarray,
    active: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(hops, latencies) rows that hold each source's cheapest target.

    ``targets`` is an ``(N,)`` boolean mask. Returns ``(hops, latencies)``
    of shapes ``(len(sources), N)``; the hop rows are those of
    :func:`single_source_batch` (:data:`HOP_UNREACHABLE` beyond
    ``max_hops``). Every finite latency is bit-identical to an unlimited
    search, and in each row every target within ``max_hops`` hops that is
    as cheap as the row's cheapest such target is finite. So the
    minimum-latency target of each row, lowest index first, is the one a
    full row picks.

    One batched pass serves all sources. Each row walks
    :func:`hop_path_bound` down to its shallowest level holding a target
    (a row with none in range walks no level), and the latency search
    stops at the largest of the rows' cheapest target bounds: the row's
    cheapest target lies at or below each target's bound.
    """
    radius = _as_radius(max_hops)
    mask = np.asarray(targets, dtype=bool)
    if mask.shape != (core.num_nodes,):
        raise RoutingError(
            f"targets mask must have shape ({core.num_nodes},), got {mask.shape}"
        )
    hops = hop_distances_batch(core, sources, active, max_hops=radius)
    reached = mask & (hops != HOP_UNREACHABLE)
    # Each row's shallowest target level; HOP_UNREACHABLE where none is in
    # range, which clips that row to nothing.
    depth = np.where(reached, hops, np.iinfo(hops.dtype).max).min(axis=1)
    depth[~reached.any(axis=1)] = HOP_UNREACHABLE
    clipped = np.where(hops <= depth[:, None], hops, HOP_UNREACHABLE)
    bound = np.where(reached, hop_path_bound(core, clipped), np.inf)
    lats = latency_batch(
        core, sources, active, limit=_largest_finite(bound.min(axis=1))
    )
    lats[hops == HOP_UNREACHABLE] = np.inf
    return hops, lats


def single_source_batch(
    core: CsrSnapshot,
    sources: Sequence[int] | np.ndarray,
    max_hops: int,
    active: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(hops, latencies) rows for many sources, within ``max_hops``.

    Returns ``(hops, latencies)`` of shapes ``(len(sources), N)``. At every
    satellite within ``max_hops`` hops of source ``i``, row ``i`` is
    bit-identical to the unlimited :func:`hop_distances_batch` and
    :func:`latency_batch` rows; every other satellite reads
    :data:`HOP_UNREACHABLE` and ``inf``. One
    batched pass serves all sources: the hop search stops at the radius
    and the latency search at the largest :func:`hop_path_bound` within
    it, which covers every satellite the radius holds.
    """
    radius = _as_radius(max_hops)
    hops = hop_distances_batch(core, sources, active, max_hops=radius)
    limit = _largest_finite(hop_path_bound(core, hops))
    lats = latency_batch(core, sources, active, limit=limit)
    lats[hops == HOP_UNREACHABLE] = np.inf
    return hops, lats


def hop_ladder_batch(
    core: CsrSnapshot,
    sources: Sequence[int] | np.ndarray,
    max_hops: int,
    active: np.ndarray | None = None,
) -> np.ndarray:
    """Minimum latency to any satellite at *exactly* h hops, per source.

    Returns ``(len(sources), max_hops + 1)`` float64; entry ``[s, h]`` is
    the cheapest one-way latency from ``sources[s]`` to a satellite exactly
    ``h`` ISL hops away (``NaN`` when no satellite sits at that hop count).
    Column 0 is always 0.0 for reachable sources — content on the access
    satellite itself. Each level's cheapest satellite lies within that
    level's cheapest :func:`hop_path_bound`, so the latency search stops at
    the largest of those minima.
    """
    radius = _as_radius(max_hops)
    width = radius + 1
    # The nested hop/latency kernels charge their own profile sites; this
    # site therefore reports the whole ladder including those legs.
    with get_recorder().timer("fastcore.hop_ladder_batch"):
        hops = hop_distances_batch(core, sources, active, max_hops=radius)
        bound = _level_min(hops, hop_path_bound(core, hops), width)
        lats = latency_batch(core, sources, active, limit=_largest_finite(bound))
        ladder = _level_min(hops, lats, width)
        ladder[np.isinf(ladder)] = np.nan
        return ladder
