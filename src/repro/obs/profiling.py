"""Wall-clock profiling hooks: cheap timer contexts keyed by site name.

A *site* is a stable string naming one instrumented code region
(``"fastcore.latency_batch"``, ``"runner.shard"``, ...). Each site keeps
call count and total/min/max seconds — enough to answer "where did the
wall-clock go" for a whole run without a sampling profiler, and cheap
enough (one ``perf_counter`` pair per call) to leave permanently wired.

For cross-process aggregation the accumulator snapshots as a serialisable
*delta* (:meth:`ProfileAccumulator.snapshot_delta`). A draining snapshot
bumps an internal epoch: timers still open at snapshot time are counted as
*abandoned* (they belong to work that was cut short — a worker killed
mid-shard) and their eventual close is discarded instead of poisoning the
next delta with a partial measurement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class SiteStats:
    """Accumulated timings of one profiling site."""

    calls: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, seconds: float) -> None:
        self.calls += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def merge(self, calls: int, total_s: float, min_s: float, max_s: float) -> None:
        """Fold another accumulator's stats for the same site into this one."""
        self.calls += calls
        self.total_s += total_s
        if min_s < self.min_s:
            self.min_s = min_s
        if max_s > self.max_s:
            self.max_s = max_s


class _Timer:
    """Context manager timing one region into an accumulator site."""

    __slots__ = ("_profile", "_site", "_start", "_epoch")

    def __init__(self, profile: "ProfileAccumulator", site: str) -> None:
        self._profile = profile
        self._site = site
        self._start = 0.0
        self._epoch = 0

    def __enter__(self) -> "_Timer":
        self._epoch = self._profile._open_timer()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._profile._close_timer(
            self._site, time.perf_counter() - self._start, self._epoch
        )


@dataclass
class ProfileAccumulator:
    """Per-site wall-clock accounting for one recording session."""

    sites: dict[str, SiteStats] = field(default_factory=dict)
    _epoch: int = field(default=0, repr=False)
    _open: int = field(default=0, repr=False)

    def timer(self, site: str) -> _Timer:
        """A context manager that charges its elapsed time to ``site``."""
        return _Timer(self, site)

    def add(self, site: str, seconds: float) -> None:
        stats = self.sites.get(site)
        if stats is None:
            stats = self.sites[site] = SiteStats()
        stats.add(seconds)

    # -- timer bookkeeping (epoch-guarded against draining snapshots) ------

    def _open_timer(self) -> int:
        self._open += 1
        return self._epoch

    def _close_timer(self, site: str, seconds: float, epoch: int) -> None:
        if epoch != self._epoch:
            # The accumulator was drained while this timer was open: its
            # measurement spans the snapshot boundary and was already
            # counted as abandoned — discard rather than mis-attribute.
            return
        self._open -= 1
        self.add(site, seconds)

    @property
    def open_timers(self) -> int:
        """How many timers are currently open (this epoch)."""
        return self._open

    # -- delta serialisation -----------------------------------------------

    def snapshot_delta(self, drain: bool = False) -> dict:
        """A JSON-serialisable snapshot of every site.

        With ``drain=True`` the accumulator resets for the next delta and
        any still-open timer is *abandoned*: reported in the snapshot's
        ``"abandoned"`` count and discarded when it eventually closes.
        """
        delta = {
            "sites": {
                site: [stats.calls, stats.total_s, stats.min_s, stats.max_s]
                for site, stats in self.sites.items()
            },
            "abandoned": self._open if drain else 0,
        }
        if drain:
            self.sites = {}
            self._epoch += 1
            self._open = 0
        return delta

    def merge_delta(self, delta: dict) -> None:
        """Fold a shipped :meth:`snapshot_delta`'s sites in stat-wise.

        Its abandoned timers are the recorder's concern: they become a
        counter, not a site.
        """
        for site, (calls, total_s, min_s, max_s) in delta.get("sites", {}).items():
            stats = self.sites.get(site)
            if stats is None:
                stats = self.sites[site] = SiteStats()
            stats.merge(int(calls), float(total_s), float(min_s), float(max_s))

    @property
    def is_empty(self) -> bool:
        return not self.sites

    def summary(self) -> dict[str, dict[str, float]]:
        """JSON-serialisable per-site timing summary, sorted by total time."""
        return {
            site: {
                "calls": stats.calls,
                "total_s": stats.total_s,
                "mean_s": stats.total_s / stats.calls if stats.calls else 0.0,
                "min_s": stats.min_s if stats.calls else 0.0,
                "max_s": stats.max_s,
            }
            for site, stats in sorted(
                self.sites.items(), key=lambda kv: -kv[1].total_s
            )
        }
