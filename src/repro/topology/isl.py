"""Inter-satellite link (ISL) wiring.

Starlink-generation satellites carry four optical terminals wired in the
"+Grid" pattern: two links to the neighbours ahead/behind in the same orbital
plane and two to the same-slot satellites in the adjacent planes east/west.
The resulting 4-regular graph is *static in satellite indices* — only the
link lengths change as the constellation rotates — which lets the simulation
reuse one link list across every time snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigurationError
from repro.orbits.elements import ShellConfig


@dataclass(frozen=True)
class IslLink:
    """One undirected inter-satellite link between flat satellite indices."""

    a: int
    b: int
    kind: str  # "intra-plane" or "cross-plane"

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ConfigurationError(f"self-link on satellite {self.a}")
        if self.kind not in ("intra-plane", "cross-plane"):
            raise ConfigurationError(f"unknown ISL kind: {self.kind!r}")


@lru_cache(maxsize=8)
def nearest_cross_plane_offset(config: ShellConfig) -> int:
    """The slot offset that minimises the cross-plane neighbour distance.

    Walker-delta phasing (F > 0) shifts adjacent planes along-track, so the
    *same-slot* satellite in the next plane can be over a thousand km away
    while a slot-shifted one flies nearly alongside. Real optical terminals
    link to the nearest stable neighbour; we compute the offset once from
    the epoch geometry (it is plane-independent by symmetry).
    """
    if config.num_planes < 2:
        return 0
    from repro.orbits.walker import build_walker_delta

    constellation = build_walker_delta(config)
    positions = constellation.positions_ecef(0.0)
    per = config.sats_per_plane
    anchor = positions[0]  # plane 0, slot 0
    best_offset = 0
    best_distance = float("inf")
    for offset in range(per):
        candidate = positions[per + offset]  # plane 1, slot ``offset``
        dx = candidate - anchor
        distance = float((dx @ dx) ** 0.5)
        if distance < best_distance:
            best_offset, best_distance = offset, distance
    return best_offset


@lru_cache(maxsize=8)
def plus_grid_links(config: ShellConfig) -> tuple[IslLink, ...]:
    """The +Grid link set for a shell: 2 intra-plane + 2 cross-plane per satellite.

    Cross-plane links use the nearest-slot offset (see
    :func:`nearest_cross_plane_offset`). Each undirected link appears exactly
    once; with P planes of S satellites the grid has ``2 * P * S`` links
    (every satellite has degree 4) whenever P > 2 and S > 2.
    """
    if not config.isl_capable:
        return ()
    per = config.sats_per_plane
    planes = config.num_planes
    offset = nearest_cross_plane_offset(config)
    links: list[IslLink] = []
    seen: set[tuple[int, int]] = set()

    def add(a: int, b: int, kind: str) -> None:
        key = (a, b) if a < b else (b, a)
        if key not in seen:
            seen.add(key)
            links.append(IslLink(key[0], key[1], kind))

    for plane in range(planes):
        for slot in range(per):
            index = plane * per + slot
            ahead = plane * per + (slot + 1) % per
            east = ((plane + 1) % planes) * per + (slot + offset) % per
            if ahead != index:
                add(index, ahead, "intra-plane")
            if east != index:
                add(index, east, "cross-plane")
    return tuple(links)
