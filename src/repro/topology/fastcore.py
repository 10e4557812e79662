"""Vectorised CSR routing core for the +Grid constellation topology.

The +Grid ISL structure is *static in satellite indices* — only the link
lengths change as the constellation rotates — so the neighbour structure can
be compiled once per shell configuration into flat CSR arrays
(:class:`CsrTopology`) and every snapshot only swaps in a fresh per-link
weight vector (:class:`CsrSnapshot`). Routing queries then run as batched
array kernels instead of per-query graph traversals:

* :func:`hop_distances_batch` — BFS levels from many sources at once;
* :func:`latency_batch` — one-way Dijkstra latencies from many sources;
* :func:`hop_ladder_batch` — the Fig. 7 "cheapest satellite at exactly
  h hops" ladder for many sources;
* :func:`nearest_hops` — multi-source BFS (hops to the nearest of a
  replica/holder set), the placement and resilience primitive.

Two interchangeable backends produce identical results: a
``scipy.sparse.csgraph`` fast path (used automatically when scipy is
importable — it is an optional accelerator, never a hard dependency) and a
pure-numpy min-plus relaxation over a padded neighbour matrix, which
exploits the grid's bounded degree (four ISL terminals per satellite).

Satellite failures are expressed as an ``active`` boolean mask: failed
nodes neither relay nor terminate paths, matching graph routing on the
degraded subgraph. Link-level faults (ISL cuts, latency degradation)
are expressed per snapshot through :func:`degrade_core`: the degraded view
shares the immutable topology and only swaps the per-link weight/liveness
vectors, so fault injection costs one O(E) array pass, never a rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.constants import ISL_HOP_PROCESSING_MS, SPEED_OF_LIGHT_KM_S
from repro.errors import RoutingError
from repro.obs.recorder import get_recorder
from repro.orbits.elements import ShellConfig
from repro.topology.isl import plus_grid_links

try:  # Optional accelerator; the numpy backend is always available.
    from scipy.sparse import csr_matrix as _scipy_csr_matrix
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

    HAVE_SCIPY = True
except Exception:  # pragma: no cover - exercised only without scipy
    _scipy_csr_matrix = None
    _scipy_dijkstra = None
    HAVE_SCIPY = False

HOP_UNREACHABLE = -1
"""Hop-count value marking satellites no path reaches."""

_MEMO_MAX_SOURCES = 256
"""Cap on per-snapshot memoised single-source results (~3 MB at Shell-1)."""


@dataclass(frozen=True)
class CsrTopology:
    """Flat CSR adjacency of one shell's +Grid, built once per config.

    Directed slot ``k`` is the edge ``slot_row[k] -> indices[k]`` carrying
    undirected link ``slot_link[k]``; ``neighbors``/``neighbor_link`` are the
    same structure padded to a dense ``(N, max_degree)`` matrix (pad slots
    hold a safe node index and link id ``-1``) for the numpy kernels.
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

    @property
    def num_links(self) -> int:
        return len(self.link_a)


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
    )


@dataclass
class CsrSnapshot:
    """Per-instant link weights over a shell's static CSR topology.

    ``link_active`` (when not ``None``) marks ISLs cut by a fault schedule:
    inactive links carry nothing in either backend, exactly as if the edge
    were absent from the graph.
    """

    topology: CsrTopology
    link_distance_km: np.ndarray
    link_latency_ms: np.ndarray
    link_active: np.ndarray | None = None
    _matrix_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

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


def build_core(constellation, t_s: float) -> CsrSnapshot:
    """CSR snapshot of a constellation at time ``t_s`` (positions included)."""
    with get_recorder().timer("fastcore.build_core"):
        topology = csr_topology(constellation.config)
        distances, latencies = link_weights(
            topology, constellation.positions_ecef(t_s)
        )
        return CsrSnapshot(
            topology=topology, link_distance_km=distances, link_latency_ms=latencies
        )


def degrade_core(
    core: CsrSnapshot,
    latency_multiplier: np.ndarray | None = None,
    cut_links: Iterable[int] = (),
) -> CsrSnapshot:
    """A degraded view of a snapshot core: cut ISLs, inflated link latencies.

    The returned :class:`CsrSnapshot` shares the immutable topology arrays;
    only the per-link latency vector is copied (scaled by
    ``latency_multiplier``, which must be finite and >= 1 everywhere) and a
    ``link_active`` mask marks the cut links. Distances are left untouched —
    degradation models queueing/retransmission delay, not geometry.
    """
    e = core.topology.num_links
    latencies = core.link_latency_ms
    if latency_multiplier is not None:
        mult = np.asarray(latency_multiplier, dtype=np.float64)
        if mult.shape != (e,):
            raise RoutingError(
                f"latency multiplier must have shape ({e},), got {mult.shape}"
            )
        if not np.isfinite(mult).all() or (mult < 1.0).any():
            raise RoutingError("latency multipliers must be finite and >= 1")
        latencies = latencies * mult
    link_active = None if core.link_active is None else core.link_active.copy()
    cut = np.asarray(sorted(set(int(l) for l in cut_links)), dtype=np.int64)
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
        link_latency_ms=latencies,
        link_active=link_active,
    )


# -- source / mask validation -------------------------------------------------


def _as_sources(core: CsrSnapshot, sources, active: np.ndarray | None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    if arr.ndim != 1 or arr.size == 0:
        raise RoutingError("sources must be a non-empty 1-D sequence")
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


def _pick_method(method: str) -> str:
    if method == "auto":
        return "scipy" if HAVE_SCIPY else "numpy"
    if method not in ("scipy", "numpy"):
        raise RoutingError(f"unknown routing backend {method!r}")
    if method == "scipy" and not HAVE_SCIPY:
        raise RoutingError("scipy backend requested but scipy is not importable")
    return method


# -- scipy backend ------------------------------------------------------------


def _scipy_graph(core: CsrSnapshot, active: np.ndarray | None, weighted: bool):
    """A csgraph CSR matrix of the (possibly degraded) snapshot, cached for
    the common undegraded case."""
    key = (weighted, None if active is None else active.tobytes())
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
    data = (
        core.link_latency_ms[links]
        if weighted
        else np.ones(len(links), dtype=np.float64)
    )
    matrix = _scipy_csr_matrix(
        (data, (rows, cols)), shape=(topo.num_nodes, topo.num_nodes)
    )
    if active is None or len(core._matrix_cache) < 8:
        core._matrix_cache[key] = matrix
    return matrix


# -- numpy backend: min-plus relaxation over the padded neighbour matrix -----


def _numpy_relax(
    core: CsrSnapshot,
    sources: np.ndarray,
    active: np.ndarray | None,
    weighted: bool,
    min_only: bool,
) -> np.ndarray:
    """Bellman-Ford-style min-plus iteration, vectorised over all sources.

    ``dist[s, v]`` relaxes through ``min_d dist[s, nbr[v, d]] + w[v, d]``;
    positive weights guarantee convergence within the graph eccentricity,
    detected by fixpoint.
    """
    topo = core.topology
    n = topo.num_nodes
    num_rows = 1 if min_only else len(sources)
    dist = np.full((num_rows, n), np.inf)
    if min_only:
        dist[0, sources] = 0.0
    else:
        dist[np.arange(len(sources)), sources] = 0.0
    if topo.max_degree == 0:
        return dist

    pad = topo.neighbor_link < 0
    safe_link = np.where(pad, 0, topo.neighbor_link)
    if weighted:
        weights = core.link_latency_ms[safe_link]
    else:
        weights = np.ones(topo.neighbor_link.shape)
    weights = np.where(pad, np.inf, weights)
    if core.link_active is not None:
        weights = np.where(core.link_active[safe_link], weights, np.inf)
    if active is not None:
        weights = np.where(active[:, None], weights, np.inf)

    for _ in range(n):
        candidate = np.min(dist[:, topo.neighbors] + weights, axis=2)
        relaxed = np.minimum(dist, candidate)
        if np.array_equal(relaxed, dist):
            break
        dist = relaxed
    return dist


# -- public kernels -----------------------------------------------------------


def _distances(
    core: CsrSnapshot,
    sources,
    active,
    weighted: bool,
    method: str,
    min_only: bool = False,
) -> np.ndarray:
    mask = _as_active(core, active)
    src = _as_sources(core, sources, mask)
    backend = _pick_method(method)
    if backend == "scipy":
        graph = _scipy_graph(core, mask, weighted)
        dist = _scipy_dijkstra(
            graph,
            indices=src,
            unweighted=not weighted,
            min_only=min_only,
        )
        dist = np.atleast_2d(dist)
    else:
        dist = _numpy_relax(core, src, mask, weighted, min_only)
    if mask is not None:
        dist[:, ~mask] = np.inf
    return dist


def latency_batch(
    core: CsrSnapshot,
    sources: Sequence[int] | np.ndarray,
    active: np.ndarray | None = None,
    method: str = "auto",
) -> np.ndarray:
    """One-way ISL latencies from each source to every satellite.

    Returns ``(len(sources), N)`` float64; unreachable (or failed)
    satellites hold ``inf``.
    """
    with get_recorder().timer("fastcore.latency_batch"):
        return _distances(core, sources, active, weighted=True, method=method)


def hop_distances_batch(
    core: CsrSnapshot,
    sources: Sequence[int] | np.ndarray,
    active: np.ndarray | None = None,
    method: str = "auto",
) -> np.ndarray:
    """BFS hop counts from each source to every satellite.

    Returns ``(len(sources), N)`` int32; unreachable (or failed) satellites
    hold :data:`HOP_UNREACHABLE`.
    """
    with get_recorder().timer("fastcore.hop_distances_batch"):
        levels = _distances(core, sources, active, weighted=False, method=method)
        hops = np.full(levels.shape, HOP_UNREACHABLE, dtype=np.int32)
        reachable = np.isfinite(levels)
        hops[reachable] = levels[reachable].astype(np.int32)
        return hops


def nearest_hops(
    core: CsrSnapshot,
    targets: Iterable[int],
    active: np.ndarray | None = None,
    method: str = "auto",
) -> np.ndarray:
    """Hops from every satellite to its nearest member of ``targets``.

    Multi-source BFS; the placement/resilience primitive. Returns ``(N,)``
    int32 with :data:`HOP_UNREACHABLE` where no target can be reached.
    """
    with get_recorder().timer("fastcore.nearest_hops"):
        target_arr = np.asarray(sorted(set(int(t) for t in targets)), dtype=np.int64)
        levels = _distances(
            core, target_arr, active, weighted=False, method=method, min_only=True
        )[0]
        hops = np.full(levels.shape, HOP_UNREACHABLE, dtype=np.int32)
        reachable = np.isfinite(levels)
        hops[reachable] = levels[reachable].astype(np.int32)
        return hops


def single_source(
    core: CsrSnapshot,
    source: int,
    active: np.ndarray | None = None,
    method: str = "auto",
) -> tuple[np.ndarray, np.ndarray]:
    """(hop counts, latencies) from one source — memoised per snapshot.

    The memo only applies to undegraded queries; degraded (masked) queries
    are computed fresh since failure sets vary per call.
    """
    if active is None:
        memo = core._memo
        cached = memo.get((int(source), method))
        if cached is not None:
            return cached
    hops = hop_distances_batch(core, [source], active, method)[0]
    lats = latency_batch(core, [source], active, method)[0]
    if active is None:
        if len(core._memo) >= _MEMO_MAX_SOURCES:
            core._memo.clear()
        core._memo[(int(source), method)] = (hops, lats)
    return hops, lats


def single_source_batch(
    core: CsrSnapshot,
    sources: Sequence[int] | np.ndarray,
    active: np.ndarray | None = None,
    method: str = "auto",
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked :func:`single_source` rows for many sources at once.

    Returns ``(hops, latencies)`` of shapes ``(len(sources), N)``; row ``i``
    is bit-identical to ``single_source(core, sources[i], active, method)``
    (both backends compute each source row independently).

    Unmasked queries share :func:`single_source`'s per-snapshot memo —
    rows already computed by scalar callers are reused, rows computed here
    are left behind for them — and only the missing sources pay one batched
    kernel call. Masked (degraded) queries run as a single batched pass
    over all sources, instead of one masked pass per request.
    """
    mask = _as_active(core, active)
    src = _as_sources(core, sources, mask)
    if mask is not None:
        hops = hop_distances_batch(core, src, mask, method)
        lats = latency_batch(core, src, mask, method)
        return hops, lats

    memo = core._memo
    rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    unique = list(dict.fromkeys(int(s) for s in src))
    for s in unique:
        cached = memo.get((s, method))
        if cached is not None:
            rows[s] = cached
    missing = [s for s in unique if s not in rows]
    if missing:
        hop_rows = hop_distances_batch(core, missing, None, method)
        lat_rows = latency_batch(core, missing, None, method)
        for i, s in enumerate(missing):
            pair = (hop_rows[i], lat_rows[i])
            rows[s] = pair
            if len(memo) >= _MEMO_MAX_SOURCES:
                memo.clear()
            memo[(s, method)] = pair
    n = core.num_nodes
    hops = np.empty((len(src), n), dtype=np.int32)
    lats = np.empty((len(src), n), dtype=np.float64)
    for i, s in enumerate(src):
        hop_row, lat_row = rows[int(s)]
        hops[i] = hop_row
        lats[i] = lat_row
    return hops, lats


def hop_ladder_batch(
    core: CsrSnapshot,
    sources: Sequence[int] | np.ndarray,
    max_hops: int,
    active: np.ndarray | None = None,
    method: str = "auto",
) -> np.ndarray:
    """Minimum latency to any satellite at *exactly* h hops, per source.

    Returns ``(len(sources), max_hops + 1)`` float64; entry ``[s, h]`` is
    the cheapest one-way latency from ``sources[s]`` to a satellite exactly
    ``h`` ISL hops away (``NaN`` when no satellite sits at that hop count).
    Column 0 is always 0.0 for reachable sources — content on the access
    satellite itself.
    """
    if max_hops < 0:
        raise RoutingError(f"max_hops must be non-negative, got {max_hops}")
    # The nested hop/latency kernels charge their own profile sites; this
    # site therefore reports the whole ladder including those legs.
    with get_recorder().timer("fastcore.hop_ladder_batch"):
        hops = hop_distances_batch(core, sources, active, method)
        lats = latency_batch(core, sources, active, method)
        num_sources = hops.shape[0]
        width = max_hops + 1
        valid = (hops >= 0) & (hops <= max_hops) & np.isfinite(lats)
        s_idx, node_idx = np.nonzero(valid)
        keys = s_idx * width + hops[s_idx, node_idx]
        flat = np.full(num_sources * width, np.inf)
        np.minimum.at(flat, keys, lats[s_idx, node_idx])
        ladder = flat.reshape(num_sources, width)
        ladder[np.isinf(ladder)] = np.nan
        return ladder
