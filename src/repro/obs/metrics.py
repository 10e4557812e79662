"""Metrics registry: counters, gauges, fixed-bucket histograms.

Series are keyed by ``(name, labels)`` where ``labels`` is a tuple of
``(key, value)`` pairs, so instrumented call sites can pass pre-built
constant tuples and pay no allocation on the hot path. The registry
renders as Prometheus text exposition format, written crash-safely
through :mod:`repro.atomicio`, and ships to a parallel run's parent as a
JSON-serialisable delta (:meth:`MetricsRegistry.snapshot_delta` and
:meth:`MetricsRegistry.merge_delta`).

Histogram buckets follow Prometheus ``le``: a value lands in the first
bucket whose upper bound is ``>=`` it (``bisect_left``). The windowed
series of :mod:`repro.obs.timeseries` use the same rule and the same
bucket pins (:func:`pin_buckets`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from pathlib import Path
from typing import Sequence

from repro.atomicio import atomic_write_text
from repro.errors import ObsError

Labels = tuple[tuple[str, str], ...]

DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 75.0, 100.0,
    150.0, 200.0, 300.0, 500.0, 1000.0,
)
"""Upper bounds (ms) of the default RTT histogram; +Inf is implicit."""

OVERLOAD_QUEUE_BUCKETS_MS: tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
)
"""Upper bounds (ms) of the queueing-delay histogram: finer at the low end
than the RTT buckets, since M/M/1 inflation is sub-millisecond until
utilisation approaches the knee."""


def _check_labels(labels: Labels) -> Labels:
    for pair in labels:
        if len(pair) != 2:
            raise ObsError(f"labels must be (key, value) pairs, got {pair!r}")
    return labels


def labels_from_json(raw: Sequence[Sequence[str]]) -> Labels:
    """A label tuple from its delta form (a list of ``[key, value]`` lists)."""
    return tuple((str(key), str(value)) for key, value in raw)


def pin_buckets(
    pins: dict[str, tuple[float, ...]], name: str, bounds: tuple[float, ...]
) -> tuple[float, ...]:
    """The bucket bounds of histogram ``name``, pinned in ``pins`` on first use.

    Mixed-bucket series cannot be aggregated, so bounds that differ from
    the pinned ones are a configuration error, whether they come from an
    observation or from a shipped delta.
    """
    pinned = pins.setdefault(name, bounds)
    if pinned != bounds:
        raise ObsError(
            f"histogram {name!r}: buckets {bounds} differ from the pinned "
            f"{pinned} (mixed-bucket series cannot be aggregated)"
        )
    return pinned


FIXED_POINT_SCALE = 1_000_000
"""The windowed series (:mod:`repro.obs.timeseries`) accumulate totals as
integer micro-units so that the merge of N shard deltas is exact integer
addition (order-independent), not float summation (order-dependent). One
micro-ms on an RTT total is far below any bucket bound, so nothing
observable is lost."""


def check_observation(name: str, value: float) -> None:
    """Refuse a histogram sample or counter increment that either store
    could not hold.

    NaN, an infinity, or a magnitude whose fixed-point form overflows
    would tear a windowed cell (its fixed-point total cannot take it) and
    poison a scalar counter or histogram total. Both stores call this
    before they touch any state, so a refused value leaves every series
    unchanged.
    """
    if not math.isfinite(value * FIXED_POINT_SCALE):
        raise ObsError(
            f"metric {name!r} cannot record {value!r}: values must be "
            f"finite and small enough for {FIXED_POINT_SCALE}x fixed point"
        )


def add_bucket_counts(name: str, into: list[int], shipped: Sequence[int]) -> None:
    """Add a shipped histogram's per-bucket counts into ``into``."""
    if len(shipped) != len(into):
        raise ObsError(
            f"cannot merge histogram {name!r}: shipped {len(shipped)} "
            f"buckets, the local series holds {len(into)}"
        )
    for index, count in enumerate(shipped):
        into[index] += int(count)


def _format_value(value: float) -> str:
    """Prometheus-style number rendering (integers without a trailing .0)."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_string(labels: Labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + body + "}"


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics)."""

    __slots__ = ("bounds", "bucket_counts", "count", "total")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ObsError("histogram buckets must be a non-empty ascending tuple")
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out


class MetricsRegistry:
    """All metric series of one recording session."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, Labels], float] = {}
        self._gauges: dict[tuple[str, Labels], float] = {}
        self._histograms: dict[tuple[str, Labels], Histogram] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, labels: Labels = (), value: float = 1.0) -> None:
        check_observation(name, value)
        key = (name, _check_labels(labels))
        self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, labels: Labels = ()) -> None:
        self._gauges[(name, _check_labels(labels))] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        labels: Labels = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        """Record one histogram sample.

        The first observation of a metric name pins its bucket bounds;
        later observations with different bounds are a configuration error
        (mixed-bucket series cannot be aggregated).
        """
        check_observation(name, value)
        pinned = pin_buckets(self._buckets, name, tuple(buckets))
        key = (name, _check_labels(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(pinned)
        histogram.observe(value)

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str, labels: Labels = ()) -> float:
        return self._counters.get((name, labels), 0.0)

    def gauge_value(self, name: str, labels: Labels = ()) -> float | None:
        return self._gauges.get((name, labels))

    def histogram(self, name: str, labels: Labels = ()) -> Histogram | None:
        return self._histograms.get((name, labels))

    @property
    def is_empty(self) -> bool:
        return not (self._counters or self._gauges or self._histograms)

    # -- delta serialisation -----------------------------------------------

    def snapshot_delta(self, drain: bool = False) -> dict:
        """A JSON-serialisable snapshot of every series.

        The snapshot is what a parallel worker ships to its parent at shard
        completion (:meth:`merge_delta` folds it back in). With
        ``drain=True`` the registry empties so consecutive snapshots are
        disjoint deltas; histogram bucket pins are kept, so later
        observations in the same process stay aggregatable.
        """
        delta = {
            "counters": [
                [name, [list(pair) for pair in labels], value]
                for (name, labels), value in self._counters.items()
            ],
            "gauges": [
                [name, [list(pair) for pair in labels], value]
                for (name, labels), value in self._gauges.items()
            ],
            "histograms": [
                [
                    name,
                    [list(pair) for pair in labels],
                    {
                        "bounds": list(histogram.bounds),
                        "bucket_counts": list(histogram.bucket_counts),
                        "count": histogram.count,
                        "total": histogram.total,
                    },
                ]
                for (name, labels), histogram in self._histograms.items()
            ],
        }
        if drain:
            self._counters = {}
            self._gauges = {}
            self._histograms = {}
        return delta

    def merge_delta(self, delta: dict, gauge_labels: Labels = ()) -> None:
        """Fold a shipped :meth:`snapshot_delta` into this registry.

        Counters sum and histograms add bucket-wise, both unlabelled, so
        aggregates do not depend on how many workers shipped them. A gauge
        is a last-write-wins sample, so each shipped gauge keeps its own
        series with ``gauge_labels`` (the shipping worker and shard)
        appended instead of overwriting the others.
        """
        for name, raw_labels, value in delta.get("counters", ()):
            self.inc(name, labels_from_json(raw_labels), value)
        for name, raw_labels, value in delta.get("gauges", ()):
            self.set_gauge(name, value, labels_from_json(raw_labels) + gauge_labels)
        for name, raw_labels, series in delta.get("histograms", ()):
            bounds = tuple(float(b) for b in series["bounds"])
            pinned = pin_buckets(self._buckets, name, bounds)
            key = (name, labels_from_json(raw_labels))
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(pinned)
            add_bucket_counts(name, histogram.bucket_counts, series["bucket_counts"])
            histogram.count += series["count"]
            histogram.total += series["total"]

    # -- exporters ---------------------------------------------------------

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: list[str] = []
        by_kind = (
            ("counter", self._counters),
            ("gauge", self._gauges),
        )
        for kind, series in by_kind:
            for name in sorted({n for n, _ in series}):
                lines.append(f"# TYPE {name} {kind}")
                for (series_name, labels), value in sorted(series.items()):
                    if series_name == name:
                        lines.append(
                            f"{name}{_label_string(labels)} {_format_value(value)}"
                        )
        for name in sorted({n for n, _ in self._histograms}):
            lines.append(f"# TYPE {name} histogram")
            for (series_name, labels), histogram in sorted(self._histograms.items()):
                if series_name != name:
                    continue
                for bound, cumulative in histogram.cumulative():
                    le = (("le", _format_value(bound)),)
                    lines.append(
                        f"{name}_bucket{_label_string(labels, le)} {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{_label_string(labels)} "
                    f"{_format_value(histogram.total)}"
                )
                lines.append(f"{name}_count{_label_string(labels)} {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: str | Path) -> None:
        """Atomically write the Prometheus text rendering to ``path``."""
        atomic_write_text(path, self.render_prometheus())
