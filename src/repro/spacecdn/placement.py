"""Replica placement across the constellation.

The paper's §4 argument: Shell 1 has 22 satellites per plane, so ~4 evenly
spaced copies per plane put every satellite within a few intra-plane hops of
a replica — and fewer copies suffice once cross-plane ISLs are used.
:func:`repro.topology.fastcore.nearest_hops` measures that on the real
+Grid graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlacementError
from repro.orbits.elements import ShellConfig


def spaced_slots(sats_per_plane: int, copies: int, offset: int = 0) -> tuple[int, ...]:
    """``copies`` maximally spaced slot indices in a plane of ``sats_per_plane``.

    The offset rotates the pattern so consecutive planes need not align.
    """
    if copies < 1 or copies > sats_per_plane:
        raise PlacementError(
            f"copies must be in [1, {sats_per_plane}], got {copies}"
        )
    return tuple(
        (offset + round(i * sats_per_plane / copies)) % sats_per_plane
        for i in range(copies)
    )


@dataclass
class KPerPlanePlacement:
    """``copies_per_plane`` evenly spaced replicas in every orbital plane.

    The per-object ``offset`` is derived from a stable hash so different
    objects land on different satellites, spreading storage load; each
    plane's pattern is rotated one slot further than the previous plane's.
    """

    copies_per_plane: int

    def place_object(self, object_id: str, config: ShellConfig) -> frozenset[int]:
        """The satellites that hold ``object_id``."""
        base_offset = _stable_hash(object_id) % config.sats_per_plane
        holders: set[int] = set()
        for plane in range(config.num_planes):
            offset = base_offset + plane
            for slot in spaced_slots(config.sats_per_plane, self.copies_per_plane, offset):
                holders.add(plane * config.sats_per_plane + slot)
        return frozenset(holders)


def _stable_hash(text: str) -> int:
    """Deterministic string hash (Python's ``hash`` is salted per process)."""
    value = 2166136261
    for byte in text.encode():
        value = (value ^ byte) * 16777619 % 2**32
    return value
