"""Satellite pass prediction over a ground location.

A *pass* is a contiguous interval during which one satellite stays above the
minimum elevation from a fixed point — 5 to 10 minutes for Starlink
Shell 1, per the paper (DESIGN.md §7). The paper's §5 video-striping idea
rests on this window: a satellite stays overhead for only a few minutes of
playback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import MIN_ELEVATION_USER_DEG
from repro.errors import VisibilityError
from repro.geo.coordinates import GeoPoint
from repro.orbits.visibility import elevations_deg
from repro.orbits.walker import Constellation


@dataclass(frozen=True)
class PassWindow:
    """One visibility window of one satellite over a ground point."""

    satellite: int
    start_s: float
    end_s: float
    max_elevation_deg: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def predict_passes(
    constellation: Constellation,
    point: GeoPoint,
    start_s: float,
    duration_s: float,
    step_s: float = 10.0,
    min_elevation_deg: float = MIN_ELEVATION_USER_DEG,
) -> list[PassWindow]:
    """All passes over ``point`` in ``[start_s, start_s + duration_s]``.

    Scans elevations on a fixed grid; window edges are resolved to the grid
    step, which is sufficient for cache-scheduling purposes (a 10 s error on
    a 6-minute pass is negligible).

    Returns windows sorted by start time.
    """
    if duration_s <= 0 or step_s <= 0:
        raise VisibilityError("duration and step must be positive")

    times = np.arange(start_s, start_s + duration_s + step_s / 2.0, step_s)
    # elevation matrix: rows = times, cols = satellites
    elevation_rows = np.stack(
        [elevations_deg(constellation, point, float(t)) for t in times]
    )
    above = elevation_rows >= min_elevation_deg

    windows: list[PassWindow] = []
    for sat in range(len(constellation)):
        column = above[:, sat]
        if not column.any():
            continue
        # Find rising/falling edges of the boolean visibility column.
        padded = np.concatenate(([False], column, [False]))
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        for rise, fall in zip(edges[::2], edges[1::2]):
            segment = elevation_rows[rise:fall, sat]
            windows.append(
                PassWindow(
                    satellite=sat,
                    start_s=float(times[rise]),
                    end_s=float(times[fall - 1]),
                    max_elevation_deg=float(segment.max()),
                )
            )
    windows.sort(key=lambda w: (w.start_s, w.satellite))
    return windows
