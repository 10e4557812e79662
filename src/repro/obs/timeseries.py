"""Windowed time-series metrics keyed by *simulation* time.

Everything in :mod:`repro.obs.metrics` is a run-scoped aggregate: one
counter value, one histogram per series, no notion of *when* within the
simulated timeline an observation happened. This module adds the temporal
axis the paper's phenomena live on — availability dips as satellites
duty-cycle down, p99 inflation during handover churn, the overload knee
under a flash crowd — by bucketing each observation into a fixed-width
window derived from the observation's simulated timestamp:

    window = floor(t_s / WINDOW_S)

The window index depends only on simulated time, never on wall clock,
seed, worker id, or shard execution order. That makes the series
*merge-deterministic*: a ``--jobs N`` run ships per-shard deltas whose
windows interleave arbitrarily, yet the merged series is byte-identical
to a ``--jobs 1`` run of the same plan, because

* window assignment is a pure function of the request's ``t_s``;
* every per-window cell is an **integer** — counts, bucket counts, and
  fixed-point totals (micro-units,
  :data:`~repro.obs.metrics.FIXED_POINT_SCALE`) — so
  merge order cannot re-associate float additions;
* exports sort windows and series keys, so rendering is order-free.

``repro run --obs`` flushes the series as ``obs-timeseries.json``.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from pathlib import Path

from repro.atomicio import atomic_write_text
from repro.constants import SNAPSHOT_INTERVAL_S
from repro.errors import ObsError
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    FIXED_POINT_SCALE,
    Labels,
    _check_labels,
    add_bucket_counts,
    check_observation,
    labels_from_json,
    pin_buckets,
)

TS_FORMAT_VERSION = 1

WINDOW_S: float = SNAPSHOT_INTERVAL_S
"""Window width in simulated seconds: one snapshot slot."""


def _fp(value: float) -> int:
    """A float observation in fixed-point micro-units."""
    return int(round(value * FIXED_POINT_SCALE))


def _un_fp(value: int) -> float:
    """A fixed-point total back as a float for export."""
    return value / FIXED_POINT_SCALE


class WindowHistogram:
    """One window's worth of a fixed-bucket histogram — all integers."""

    __slots__ = ("bucket_counts", "count", "total_fp")

    def __init__(self, num_bounds: int) -> None:
        self.bucket_counts = [0] * (num_bounds + 1)  # last slot is +Inf
        self.count = 0
        self.total_fp = 0


class TimeSeriesBuffer:
    """All windowed series of one recording session.

    The API mirrors :class:`~repro.obs.metrics.MetricsRegistry` with a
    leading ``t_s`` (simulated seconds) on every recording call; series
    are keyed by ``(name, labels)`` and hold one integer cell per window
    that saw an observation (sparse — quiet windows cost nothing).
    """

    def __init__(self) -> None:
        self._counters: dict[tuple[str, Labels], dict[int, int]] = {}
        self._histograms: dict[tuple[str, Labels], dict[int, WindowHistogram]] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}

    def window_of(self, t_s: float) -> int:
        """The window index of a simulated timestamp (pure, seed-free)."""
        return int(t_s // WINDOW_S)

    # -- recording ---------------------------------------------------------

    def inc(
        self, t_s: float, name: str, labels: Labels = (), value: float = 1.0
    ) -> None:
        """Add ``value`` to a counter in the window containing ``t_s``."""
        check_observation(name, value)
        series = self._counters.setdefault((name, _check_labels(labels)), {})
        window = self.window_of(t_s)
        series[window] = series.get(window, 0) + _fp(value)

    def observe(
        self,
        t_s: float,
        name: str,
        value: float,
        labels: Labels = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        """Record one histogram sample in the window containing ``t_s``.

        Bucket bounds pin on first use per metric name and a value picks
        its bucket exactly as in the scalar registry, which refuses the
        same samples (:func:`~repro.obs.metrics.check_observation`).
        """
        check_observation(name, value)
        pinned = pin_buckets(self._buckets, name, tuple(buckets))
        series = self._histograms.setdefault((name, _check_labels(labels)), {})
        window = self.window_of(t_s)
        cell = series.get(window)
        if cell is None:
            cell = series[window] = WindowHistogram(len(pinned))
        cell.bucket_counts[bisect_left(pinned, value)] += 1
        cell.count += 1
        cell.total_fp += _fp(value)

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str, window: int, labels: Labels = ()) -> float:
        series = self._counters.get((name, labels), {})
        return _un_fp(series.get(window, 0))

    def histogram_cell(
        self, name: str, window: int, labels: Labels = ()
    ) -> WindowHistogram | None:
        return self._histograms.get((name, labels), {}).get(window)

    def windows(self) -> list[int]:
        """Every window index any series touched, ascending."""
        seen: set[int] = set()
        for series in self._counters.values():
            seen.update(series)
        for cells in self._histograms.values():
            seen.update(cells)
        return sorted(seen)

    @property
    def is_empty(self) -> bool:
        return not (self._counters or self._histograms)

    # -- delta serialisation -----------------------------------------------

    def snapshot_delta(self, drain: bool = False) -> dict:
        """A JSON-serialisable snapshot of every windowed series.

        Shipped by parallel workers alongside the scalar metrics delta;
        every value is an integer, so the parent's merge is exact. With
        ``drain=True`` the buffer empties (bucket pins are kept).
        """
        delta = {
            "window_s": WINDOW_S,
            "counters": [
                [
                    name,
                    [list(pair) for pair in labels],
                    [[window, value] for window, value in sorted(series.items())],
                ]
                for (name, labels), series in self._counters.items()
            ],
            "histograms": [
                [
                    name,
                    [list(pair) for pair in labels],
                    list(self._buckets[name]),
                    [
                        [window, list(cell.bucket_counts), cell.count, cell.total_fp]
                        for window, cell in sorted(cells.items())
                    ],
                ]
                for (name, labels), cells in self._histograms.items()
            ],
        }
        if drain:
            self._counters = {}
            self._histograms = {}
        return delta

    def merge_delta(self, delta: dict) -> None:
        """Fold a shipped windowed-series delta into this buffer.

        Window-wise integer addition — associative and commutative, so
        shard completion order cannot change the merged series. Window
        width and bucket-bound drift are configuration errors.
        """
        window_s = float(delta.get("window_s", WINDOW_S))
        if window_s != WINDOW_S:
            raise ObsError(
                f"cannot merge time series: shipped window width {window_s}s "
                f"differs from the local {WINDOW_S}s"
            )
        for name, raw_labels, points in delta.get("counters", ()):
            labels = labels_from_json(raw_labels)
            series = self._counters.setdefault((name, labels), {})
            for window, value in points:
                series[int(window)] = series.get(int(window), 0) + int(value)
        for name, raw_labels, raw_bounds, points in delta.get("histograms", ()):
            bounds = tuple(float(b) for b in raw_bounds)
            pinned = pin_buckets(self._buckets, name, bounds)
            labels = labels_from_json(raw_labels)
            cells = self._histograms.setdefault((name, labels), {})
            for window, bucket_counts, count, total_fp in points:
                cell = cells.get(int(window))
                if cell is None:
                    cell = cells[int(window)] = WindowHistogram(len(pinned))
                add_bucket_counts(name, cell.bucket_counts, bucket_counts)
                cell.count += int(count)
                cell.total_fp += int(total_fp)

    # -- exporters ---------------------------------------------------------

    def to_json(self) -> dict:
        """The whole buffer as one deterministic JSON document.

        Series and windows are sorted and fixed-point totals convert back
        to floats by a single division, so two buffers holding the same
        cells serialise to byte-identical text regardless of the order in
        which observations or shard deltas arrived.
        """

        def label_dict(labels: Labels) -> dict[str, str]:
            return {key: value for key, value in labels}

        return {
            "format_version": TS_FORMAT_VERSION,
            "window_s": WINDOW_S,
            "windows": self.windows(),
            "counters": [
                {
                    "name": name,
                    "labels": label_dict(labels),
                    "points": [
                        [window, _un_fp(value)]
                        for window, value in sorted(series.items())
                    ],
                }
                for (name, labels), series in sorted(self._counters.items())
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": label_dict(labels),
                    "bounds": list(self._buckets[name]),
                    "points": [
                        {
                            "window": window,
                            "bucket_counts": list(cell.bucket_counts),
                            "count": cell.count,
                            "sum": _un_fp(cell.total_fp),
                        }
                        for window, cell in sorted(cells.items())
                    ],
                }
                for (name, labels), cells in sorted(self._histograms.items())
            ],
        }

    def write_json(self, path: str | Path) -> None:
        """Atomically write the JSON document to ``path``."""
        atomic_write_text(path, json.dumps(self.to_json(), indent=1, sort_keys=True))

