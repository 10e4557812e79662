"""The full SpaceCDN system: per-satellite caches served over time.

Where :mod:`repro.spacecdn.lookup` answers a single geometric query, the
:class:`SpaceCdnSystem` runs the whole machine: every satellite carries a
real byte-bounded cache, requests arrive on a timeline, the constellation
rotates underneath (snapshots are rebuilt on a quantised clock), misses
pull content up from the ground and populate the access satellite's cache,
and a content index tracks which satellites currently hold which objects.

This is the component a downstream user would actually embed: give it a
catalog, a placement plan and a request stream, get back hit
levels and latency samples.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cdn.cache import Cache, HoldersIndex
from repro.cdn.content import Catalog
from repro.constants import CDN_SERVER_THINK_TIME_MS, GROUND_RTT_MS, SNAPSHOT_INTERVAL_S
from repro.errors import ConfigurationError, OverloadedError, UnavailableError
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule, apply_fault_view
from repro.geo.coordinates import GeoPoint
from repro.network.access import access_latency_ms
from repro.obs.metrics import OVERLOAD_QUEUE_BUCKETS_MS
from repro.obs.recorder import get_recorder
from repro.orbits.walker import Constellation
from repro.overload.model import GROUND_TARGET, OverloadModel
from repro.spacecdn.lookup import LookupSource, ranked_cached_from_rows
from repro.topology import fastcore
from repro.topology.graph import SnapshotGraph, build_snapshot

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.workloads.requests import Request

TIER_OF_SOURCE: dict[LookupSource, str] = {
    LookupSource.ACCESS_SATELLITE: "access",
    LookupSource.DIRECT_VISIBLE: "direct-visible",
    LookupSource.ISL_NEIGHBOR: "isl",
    LookupSource.GROUND: "ground",
}
"""Ladder-tier names used in metrics labels and trace spans."""

_TIER_LABELS = {tier: (("tier", tier),) for tier in TIER_OF_SOURCE.values()}


def _check_time(t_s: float) -> None:
    """Reject a request time that maps to no snapshot slot."""
    if not math.isfinite(t_s):
        raise ConfigurationError(f"non-finite time: {t_s}")
    if t_s < 0:
        raise ConfigurationError(f"negative time: {t_s}")


@dataclass(frozen=True)
class ServedRequest:
    """Outcome of one request through the system.

    ``attempts`` counts fetch attempts including the successful one (1
    unless an attempt was lost or refused); ``fallback_reason``
    explains why the request was not served by its preferred rung
    (``None`` when it was): one of ``"transient-loss"``,
    ``"no-space-replica"``, ``"space-exhausted"``. ``priority`` is the
    request's admission class on the overloaded serve path (``None``
    everywhere else).
    """

    object_id: str
    t_s: float
    source: LookupSource
    serving_satellite: int | None
    isl_hops: int
    rtt_ms: float
    attempts: int = 1
    fallback_reason: str | None = None
    priority: int | None = None


@dataclass
class SystemStats:
    """Aggregate counters over a run."""

    access_hits: int = 0
    direct_hits: int = 0
    isl_hits: int = 0
    ground_fetches: int = 0
    timeouts: int = 0
    """Attempts lost to transient loss (each lost attempt counts once)."""
    retries: int = 0
    """Extra attempts beyond the first, summed over all requests."""
    unavailable: int = 0
    """Requests that exhausted the fallback ladder and raised
    :class:`~repro.errors.UnavailableError`."""
    shed: int = 0
    """Requests refused by overload protection (admission, breakers, or a
    spent deadline) and raised as :class:`~repro.errors.OverloadedError` —
    disjoint from ``unavailable``, which counts fault-path exhaustion."""
    deadline_exhausted: int = 0
    """The subset of ``shed`` whose end-to-end deadline budget ran out."""
    rtt_samples_ms: list[float] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return (
            self.access_hits
            + self.direct_hits
            + self.isl_hits
            + self.ground_fetches
            + self.unavailable
            + self.shed
        )

    @property
    def served(self) -> int:
        """Requests that completed with content delivered."""
        return self.requests - self.unavailable - self.shed

    @property
    def shed_fraction(self) -> float | None:
        """Fraction of requests shed by overload protection; ``None`` before
        any request (same empty-evidence convention as ``availability``)."""
        if self.requests == 0:
            return None
        return self.shed / self.requests

    @property
    def availability(self) -> float | None:
        """Fraction of requests served at all; ``None`` before any request.

        Zero requests means *no evidence*, which is different from
        "perfectly available": returning ``None`` (rather than a made-up
        1.0 or a division by zero) keeps aggregation over empty shards
        well-defined — callers render it as "n/a" instead of averaging a
        fictitious value into a sweep.
        """
        if self.requests == 0:
            return None
        return self.served / self.requests

    @property
    def space_hit_ratio(self) -> float:
        """Fraction of *served* requests answered without touching the ground."""
        if self.served == 0:
            return 0.0
        return (self.served - self.ground_fetches) / self.served


@dataclass
class SpaceCdnSystem:
    """A running SpaceCDN: caches on every satellite, time-aware routing.

    Args:
        constellation: the shell to run on.
        catalog: the content universe (sizes drive cache occupancy).
        cache_bytes_per_satellite: capacity of each on-board cache.
        max_hops: ISL search radius before falling back to the ground
            (at :data:`~repro.constants.GROUND_RTT_MS`). The ISL graph is
            rebuilt every :data:`~repro.constants.SNAPSHOT_INTERVAL_S` as
            the constellation rotates.
        fault_schedule: composed fault processes. Every request runs the
            attempt walk; a non-empty schedule runs it over the
            fault-masked snapshot, and ``None`` (or an empty schedule)
            over the healthy one. Faults are applied at snapshot
            granularity — the schedule compiles once per snapshot slot
            into the CSR core's node mask.
        retry_policy: bounded attempts and simulated exponential backoff
            for the attempt walk (applied with or without a fault
            schedule).
        overload: per-satellite capacity, admission control, circuit
            breakers, and deadline budgets
            (:class:`~repro.overload.model.OverloadModel`). ``None`` (the
            default) applies no protection; set, every request runs the
            attempt walk with the protections — which also honours the
            fault schedule, so faults and load compose.
    """

    constellation: Constellation
    catalog: Catalog
    cache_bytes_per_satellite: int = 10**9
    max_hops: int = 5
    fault_schedule: FaultSchedule | None = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    overload: OverloadModel | None = None

    stats: SystemStats = field(default_factory=SystemStats)
    _caches: dict[int, Cache] = field(default_factory=dict, repr=False)
    _index: HoldersIndex = field(default_factory=HoldersIndex, repr=False)
    _snapshot: SnapshotGraph | None = field(default=None, repr=False)
    _snapshot_slot: int = field(default=-1, repr=False)
    _degraded: SnapshotGraph | None = field(default=None, repr=False)
    _fault_slot: int = field(default=-1, repr=False)
    _down_prev: frozenset[int] = field(default=frozenset(), repr=False)
    _request_counter: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.cache_bytes_per_satellite <= 0:
            raise ConfigurationError("cache capacity must be positive")
        if (
            isinstance(self.max_hops, bool)
            or not isinstance(self.max_hops, numbers.Integral)
            or self.max_hops < 0
        ):
            raise ConfigurationError(
                f"max_hops must be a non-negative integer, got {self.max_hops!r}"
            )

    # -- cache plumbing ----------------------------------------------------

    def cache_of(self, satellite: int) -> Cache:
        """The on-board cache of one satellite (created lazily)."""
        if not 0 <= satellite < len(self.constellation):
            raise ConfigurationError(f"satellite {satellite} out of range")
        cache = self._caches.get(satellite)
        if cache is None:
            cache = Cache(self.cache_bytes_per_satellite)
            self._caches[satellite] = cache
        return cache

    def holders_of(self, object_id: str) -> frozenset[int]:
        """Satellites currently caching an object."""
        return self._index.holders(object_id)

    def _store(self, satellite: int, object_id: str) -> None:
        """Insert an object into a satellite's cache, maintaining the index."""
        obj = self.catalog.get(object_id)
        cache = self.cache_of(satellite)
        if obj.size_bytes > cache.capacity_bytes:
            return  # too large to cache anywhere; served pass-through
        evicted = cache.put(obj)
        for victim in evicted:
            self._index.discard(victim, satellite)
        self._index.add(object_id, satellite)

    def preload(self, placement: dict[str, frozenset[int]]) -> int:
        """Push a placement plan into the on-board caches.

        Stores each object in each of its satellites' caches, in plan
        order, as :meth:`_store` would one at a time. Returns the number
        of copies actually stored: an object larger than a whole cache is
        skipped (served pass-through) and not counted.
        """
        num_satellites = len(self.constellation)
        capacity = self.cache_bytes_per_satellite
        caches = self._caches
        index = self._index
        stored = 0
        for object_id, satellites in placement.items():
            obj = self.catalog.get(object_id)
            fits = obj.size_bytes <= capacity
            for satellite in satellites:
                if not 0 <= satellite < num_satellites:
                    raise ConfigurationError(f"satellite {satellite} out of range")
                cache = caches.get(satellite)
                if cache is None:
                    cache = caches[satellite] = Cache(capacity)
                if not fits:
                    continue
                for victim in cache.put(obj):
                    index.discard(victim, satellite)
                index.add(object_id, satellite)
                stored += 1
        return stored

    # -- time-aware topology -------------------------------------------------

    def snapshot_at(self, t_s: float) -> SnapshotGraph:
        """The ISL graph for the quantised instant containing ``t_s``."""
        _check_time(t_s)
        slot = int(t_s // SNAPSHOT_INTERVAL_S)
        if slot != self._snapshot_slot or self._snapshot is None:
            self._snapshot = build_snapshot(
                self.constellation, slot * SNAPSHOT_INTERVAL_S
            )
            self._snapshot_slot = slot
        return self._snapshot

    # -- fault plumbing --------------------------------------------------------

    def _degraded_at(self, snapshot: SnapshotGraph) -> SnapshotGraph:
        """The fault-masked sibling of the current slot's snapshot.

        Compiled once per snapshot slot: the schedule's processes are
        sampled at the snapshot instant and turned into a node mask over
        the shared CSR core. Newly-failed satellites lose their cache
        contents here.
        """
        if self._fault_slot != self._snapshot_slot or self._degraded is None:
            view = self.fault_schedule.compile_at(snapshot.t_s)
            self._degraded = apply_fault_view(snapshot, view)
            self._fault_slot = self._snapshot_slot
            down = frozenset(
                s
                for s in view.failed_satellites
                if 0 <= s < len(self.constellation)
            )
            for satellite in sorted(down - self._down_prev):
                self._wipe_cache(satellite)
            self._down_prev = down
        return self._degraded

    def _wipe_cache(self, satellite: int) -> int:
        """Drop a satellite's cache contents (duty-cycle exit / power loss)."""
        cache = self._caches.get(satellite)
        if cache is None:
            return 0
        wiped = cache.object_ids()
        self._index.drop_satellite(satellite, wiped)
        cache.clear()
        return len(wiped)

    # -- the serve path -------------------------------------------------------

    def serve(
        self,
        user: GeoPoint,
        object_id: str,
        t_s: float,
        priority: int | None = None,
    ) -> ServedRequest:
        """Serve one request at simulated time ``t_s`` from ``user``.

        Resolution order (paper Fig. 6): access satellite's cache, nearest
        caching satellite within ``max_hops`` ISLs, ground fallback. Ground
        fetches populate the access satellite's cache (pull-through), which
        is how popularity organically builds the space tier.

        Each rung is one attempt: ``retry_policy`` bounds attempts and
        charges simulated backoff, a non-empty ``fault_schedule`` masks the
        snapshot the ladder runs over, and
        :class:`~repro.errors.UnavailableError` is raised when no serving
        path survives (including a user with no live satellite in view).
        With an ``overload`` model (which composes with any fault
        schedule) the walk adds admission control per priority class,
        circuit breakers over the ladder's rungs, queueing delay as
        utilisation rises, and the deadline budget bounding the whole walk.
        ``priority`` overrides the model's seeded class assignment (and is
        only meaningful with a model).
        :class:`~repro.errors.OverloadedError` marks requests refused by
        protection rather than faults.

        This is a cohort of one through :meth:`serve_batch`: the same walk,
        the same side effects, and a ``serve_cohort`` trace span of size 1.
        """
        self.catalog.get(object_id)  # validate early
        if priority is not None and self.overload is None:
            raise ConfigurationError("request priorities require an overload model")
        (served,) = self.serve_batch(
            [user],
            [object_id],
            t_s,
            priorities=None if priority is None else [priority],
        )
        return served

    def serve_batch(
        self,
        users: Sequence[GeoPoint],
        object_ids: Sequence[str],
        t_s: float | Sequence[float],
        continue_on_unavailable: bool = False,
        priorities: Sequence[int] | None = None,
    ) -> list[ServedRequest | None]:
        """Serve a whole cohort of requests sharing one snapshot epoch.

        Every request runs the one attempt walk (:meth:`_walk`), in order
        and with the side effects of serving it alone (caches, stats, the
        fault schedule's per-request determinism); a system with no faults
        walks over the healthy snapshot. The per-request O(N) work is hoisted to
        per-cohort passes: one visibility batch over the unique users (their
        usable satellites only, nearest first) and one routing pass over the
        unique access satellites (masked once for the whole cohort under
        faults).

        ``t_s`` may be a scalar (the whole cohort at one instant) or a
        per-request sequence of finite, non-negative times; all must land
        in the *same* snapshot slot — :meth:`run` does the slot grouping.
        Every argument is checked before any state changes (lengths, times,
        priorities, catalog membership), so a rejected call leaves caches,
        fault state and the request counter untouched.

        Returns one entry per request, in order. With
        ``continue_on_unavailable``, requests that exhaust the ladder (or
        see no live satellite) keep their slot as ``None`` (they are counted
        in ``stats.unavailable``); without it the first such request raises
        :class:`~repro.errors.UnavailableError` after the preceding
        requests' effects are applied.

        With an ``overload`` model every request runs the protected walk;
        ``continue_on_unavailable`` keeps shed requests as ``None`` slots
        too, since :class:`~repro.errors.OverloadedError` is an
        :class:`~repro.errors.UnavailableError`. ``priorities`` optionally
        fixes each request's admission class (requires the model; default
        is the model's seeded assignment).

        With an enabled recorder the cohort emits one ``serve_cohort``
        trace span carrying per-rung attempt counts; under a model it also
        carries a ``shed`` attribute and per-class ``shed`` children.
        """
        num = len(users)
        if len(object_ids) != num:
            raise ConfigurationError(
                f"cohort mismatch: {num} users but {len(object_ids)} object ids"
            )
        if isinstance(t_s, (int, float)):
            times = [float(t_s)] * num
        else:
            times = [float(t) for t in t_s]
            if len(times) != num:
                raise ConfigurationError(
                    f"cohort mismatch: {num} users but {len(times)} times"
                )
        model = self.overload
        if priorities is not None:
            if model is None:
                raise ConfigurationError(
                    "request priorities require an overload model"
                )
            if len(priorities) != num:
                raise ConfigurationError(
                    f"cohort mismatch: {num} users but "
                    f"{len(priorities)} priorities"
                )
            priorities = [model.validate_priority(p) for p in priorities]
        if num == 0:
            return []
        for t in times:
            _check_time(t)
        slot = int(times[0] // SNAPSHOT_INTERVAL_S)
        if any(int(t // SNAPSHOT_INTERVAL_S) != slot for t in times):
            raise ConfigurationError(
                "cohort spans multiple snapshot slots; split it at "
                "snapshot boundaries (run() does this)"
            )
        for oid in dict.fromkeys(object_ids):
            self.catalog.get(oid)

        snapshot = self.snapshot_at(times[0])
        faulted = (
            self.fault_schedule is not None and not self.fault_schedule.is_empty
        )
        # Nothing fails without faults: the walk runs over the healthy
        # snapshot (overload protection, if any, only meters admission).
        degraded = self._degraded_at(snapshot) if faulted else snapshot

        from repro.orbits.visibility import visible_satellites_batch

        u_of: dict[GeoPoint, int] = {}
        u_idx = np.empty(num, dtype=np.int64)
        unique_users: list[GeoPoint] = []
        for r, user in enumerate(users):
            i = u_of.get(user)
            if i is None:
                i = len(unique_users)
                u_of[user] = i
                unique_users.append(user)
            u_idx[r] = i
        vb = visible_satellites_batch(self.constellation, unique_users, snapshot.t_s)

        rec = get_recorder()
        counts: Counter | None = Counter() if rec.enabled else None
        shed_counts: Counter | None = (
            Counter() if (rec.enabled and model is not None) else None
        )
        results: list[ServedRequest | None] = []
        unavailable_before = self.stats.unavailable
        try:
            self._serve_walks(
                users, object_ids, times, u_idx, vb, degraded,
                counts, continue_on_unavailable, results, priorities,
                shed_counts,
            )
        finally:
            if rec.enabled:
                # Counted from stats, so a request that raised out of the
                # cohort is still reported as unavailable (or shed).
                mode = (
                    "overloaded"
                    if model is not None
                    else "degraded" if faulted else "healthy"
                )
                span = rec.open_span(
                    "serve_cohort",
                    t_s=times[0],
                    size=num,
                    served=sum(1 for r in results if r is not None),
                    unavailable=self.stats.unavailable - unavailable_before,
                    mode=mode,
                )
                if shed_counts is not None:
                    span.set(shed=sum(shed_counts.values()))
                    for (cls, shed_reason), count in sorted(shed_counts.items()):
                        span.child(
                            "shed",
                            priority=cls,
                            reason=shed_reason,
                            count=count,
                        )
                for (tier, outcome), count in sorted(counts.items()):
                    span.child("rung", tier=tier, outcome=outcome, count=count)
                    rec.inc(
                        "repro_serve_attempts_total",
                        (("tier", tier), ("outcome", outcome)),
                        count,
                    )
        return results

    def _serve_walks(
        self,
        users: Sequence[GeoPoint],
        object_ids: Sequence[str],
        times: list[float],
        u_idx: np.ndarray,
        vb,
        degraded: SnapshotGraph,
        counts: Counter | None,
        continue_on_unavailable: bool,
        results: list,
        priorities: Sequence[int] | None,
        shed_counts: Counter | None,
    ) -> None:
        """The cohort: shared routing, per-request walks.

        The expensive parts of a request are its visibility and its masked
        routing pass (never memoised, since failure sets vary); both are
        hoisted here to one pass per unique user / unique access satellite,
        and the routing pass searches only ``max_hops`` deep.
        The attempt walk itself stays per request: it is inherently
        sequential, since transient losses are deterministic in request
        order and admission counters fill and breakers trip in request
        order.
        """
        model = self.overload
        if model is not None:
            model.begin_slot(
                self._snapshot_slot,
                degraded.t_s,
                len(self.constellation),
                self.fault_schedule,
            )
        live = vb.live(degraded.active_mask)
        live_of_u = [live.visible_list(i) for i in range(live.num_points)]
        accs = sorted({lv[0].index for lv in live_of_u if lv})
        row_of_acc: dict[int, int] = {}
        if accs:
            hops_m, lats_m = fastcore.single_source_batch(
                degraded.core, accs, self.max_hops, degraded.active_mask
            )
            row_of_acc = {a: i for i, a in enumerate(accs)}
        for r in range(len(object_ids)):
            lv = live_of_u[int(u_idx[r])]
            rows = None
            if lv:
                i = row_of_acc[lv[0].index]
                rows = (hops_m[i], lats_m[i])
            try:
                results.append(
                    self._walk(
                        users[r], object_ids[r], times[r], lv, rows,
                        counts,
                        None if priorities is None else priorities[r],
                        shed_counts,
                    )
                )
            except UnavailableError:
                if not continue_on_unavailable:
                    raise
                results.append(None)

    def _fallback_ladder(
        self, live_visible: list, object_id: str, rows: tuple
    ) -> list[tuple[LookupSource, int, int, float]]:
        """Every live space rung for one request, cheapest first.

        Entries are ``(source, satellite, hops, rtt_ms)`` in resolution
        order: access satellite, other directly visible holders, then the
        ISL ladder ranked by latency. Each satellite appears once, at its
        cheapest rung; failed satellites never appear (the degraded
        snapshot's mask removes them from every routing pass). ``rows`` are
        the access satellite's masked ``(hops, latencies)`` single-source
        rows within ``max_hops``, computed once per cohort.
        """
        holders = self.holders_of(object_id)
        if not holders:
            return []
        ladder: list[tuple[LookupSource, int, int, float]] = []
        seen: set[int] = set()
        access = live_visible[0]
        if access.index in holders:
            rtt = 2.0 * access_latency_ms(access.slant_range_km)
            ladder.append(
                (
                    LookupSource.ACCESS_SATELLITE,
                    access.index,
                    0,
                    rtt + CDN_SERVER_THINK_TIME_MS,
                )
            )
            seen.add(access.index)
        for candidate in live_visible[1:]:
            if candidate.index in holders and candidate.index not in seen:
                rtt = 2.0 * access_latency_ms(candidate.slant_range_km)
                ladder.append(
                    (
                        LookupSource.DIRECT_VISIBLE,
                        candidate.index,
                        0,
                        rtt + CDN_SERVER_THINK_TIME_MS,
                    )
                )
                seen.add(candidate.index)
        access_rtt = 2.0 * access_latency_ms(access.slant_range_km)
        ranked = ranked_cached_from_rows(
            rows[0], rows[1], holders, self.max_hops,
            min_hops=1, exclude=frozenset(seen),
        )
        for satellite, hops, isl_one_way in ranked:
            ladder.append(
                (
                    LookupSource.ISL_NEIGHBOR,
                    satellite,
                    hops,
                    access_rtt + 2.0 * isl_one_way + CDN_SERVER_THINK_TIME_MS,
                )
            )
        return ladder

    def _walk(
        self,
        user: GeoPoint,
        object_id: str,
        t_s: float,
        live_visible: list,
        rows: tuple | None,
        counts: Counter | None,
        priority: int | None,
        shed_counts: Counter | None,
    ) -> ServedRequest:
        """One request's attempt walk down the ladder.

        Each tried rung is one attempt. Attempts lost to transient loss add
        simulated backoff and descend to the next rung; after the space
        rungs, the ground rung absorbs the remaining attempts. A request
        that exhausts the ladder or its attempts raises
        :class:`~repro.errors.UnavailableError`.

        With an overload model four protections apply per rung, in this
        order: an open circuit breaker skips the rung *without* consuming an
        attempt (the client never contacts the target); admission control
        refuses at-capacity targets (a failed attempt: backoff is charged
        and the breaker records the refusal); transient loss as above;
        finally the deadline budget, charged every backoff,
        must fit the rung's queue-inflated RTT or the walk ends (rungs are
        cheapest first, so nothing later could fit). Served requests pay
        their target's M/M/1 queueing delay on top of the propagation RTT.
        Exhaustion then raises :class:`~repro.errors.OverloadedError` when
        protection refused the request (reason ``"deadline"``,
        ``"admission"`` or ``"breaker-open"``, in that precedence). Without
        a model the queueing delay is 0.0 and ``rtt + 0.0 == rtt``, so the
        walk is exactly the fault-only ladder.

        ``rows`` are the access satellite's masked routing rows; ``counts``
        and ``shed_counts`` are the cohort span's ``(tier, outcome)`` and
        ``(priority, reason)`` accumulators (``None`` with obs off).
        """
        model = self.overload
        policy = self.retry_policy
        schedule = self.fault_schedule
        request_index = self._request_counter
        self._request_counter += 1
        deadline = None
        if model is not None:
            if priority is None:
                priority = model.priority_of(request_index)
            deadline = model.deadline_budget()
        rec = get_recorder()

        def _note(tier: str, outcome: str) -> None:
            if counts is not None:
                counts[(tier, outcome)] += 1

        if not live_visible:
            self.stats.unavailable += 1
            if rec.enabled:
                labels = (("reason", "no-sky"),)
                rec.inc("repro_serve_unavailable_total", labels)
                rec.window_inc(t_s, "repro_serve_unavailable_total", labels)
            raise UnavailableError(
                f"no live satellite visible from ({user.lat_deg:.1f}, "
                f"{user.lon_deg:.1f})"
            )
        access = live_visible[0]
        ladder = self._fallback_ladder(live_visible, object_id, rows)
        ground_rungs = itertools.repeat(
            (LookupSource.GROUND, None, 0, GROUND_RTT_MS)
        )

        attempts = 0
        backoff_ms = 0.0
        reason: str | None = None
        admission_refused = breaker_skipped = deadline_hit = False
        for source, satellite, hops, rtt in itertools.chain(ladder, ground_rungs):
            if attempts >= policy.max_attempts or deadline_hit:
                break
            ground = satellite is None
            tier = TIER_OF_SOURCE[source]
            breaker = None
            if model is not None:
                breaker = model.breaker_for(GROUND_TARGET if ground else satellite)
            if breaker is not None and not breaker.allow(t_s):
                breaker_skipped = True
                _note(tier, "breaker-open")
                if ground:
                    break  # an open breaker stays open for this whole walk
                continue
            attempts += 1
            if model is not None and not model.admit(satellite, priority):
                admission_refused = True
                outcome = "admission-reject"
            elif schedule is not None and schedule.attempt_lost(
                request_index, attempts
            ):
                outcome = reason = "transient-loss"
                self.stats.timeouts += 1
            else:
                queue_ms = 0.0 if model is None else model.queue_delay_ms(satellite)
                rung_rtt = rtt + queue_ms
                if deadline is not None and not deadline.allows(rung_rtt):
                    deadline_hit = True
                    _note(tier, "deadline-exhausted")
                    break
                if ground:
                    self._store(access.index, object_id)  # pull-through
                    if reason is None:
                        reason = "space-exhausted" if ladder else "no-space-replica"
                else:
                    self.cache_of(satellite).get(object_id)  # count the hit
                if breaker is not None:
                    breaker.record_success(t_s)
                self.stats.retries += attempts - 1
                _note(tier, "served")
                if model is not None:
                    model.note_served(satellite)
                    if rec.enabled:
                        rec.inc(
                            "repro_overload_admitted_total",
                            (("class", str(priority)),),
                        )
                        rec.observe(
                            "repro_overload_queue_delay_ms",
                            queue_ms,
                            buckets=OVERLOAD_QUEUE_BUCKETS_MS,
                        )
                return self._record(
                    object_id,
                    t_s,
                    source,
                    satellite,
                    hops,
                    rung_rtt + backoff_ms,
                    attempts=attempts,
                    fallback_reason=reason,
                    priority=priority,
                )
            step_ms = policy.backoff_ms(attempts)
            backoff_ms += step_ms
            if deadline is not None:
                deadline.charge(step_ms)
            if breaker is not None:
                breaker.record_failure(t_s)
            _note(tier, outcome)
            if outcome == "admission-reject" and rec.enabled:
                rec.inc(
                    "repro_overload_rejections_total", (("class", str(priority)),)
                )

        if model is not None:
            # A walk not served from space registers the ground breaker even
            # when no attempt was left for it: the breaker-state gauges
            # count every target a walk reached.
            model.breaker_for(GROUND_TARGET)
        self.stats.retries += max(0, attempts - 1)
        if deadline_hit or admission_refused or breaker_skipped:
            shed_reason = (
                "deadline"
                if deadline_hit
                else "admission" if admission_refused else "breaker-open"
            )
            self.stats.shed += 1
            if deadline_hit:
                self.stats.deadline_exhausted += 1
            if shed_counts is not None:
                shed_counts[(priority, shed_reason)] += 1
            if rec.enabled:
                labels = (("class", str(priority)), ("reason", shed_reason))
                rec.inc("repro_overload_shed_total", labels)
                rec.window_inc(t_s, "repro_overload_shed_total", labels)
            error = OverloadedError(
                f"object {object_id!r}: shed by overload protection "
                f"({shed_reason}, class {priority}) after {attempts} attempt(s)"
            )
            error.reason = shed_reason
            error.priority_class = priority
            raise error
        self.stats.unavailable += 1
        if rec.enabled:
            labels = (("reason", "budget-exhausted"),)
            rec.inc("repro_serve_unavailable_total", labels)
            rec.window_inc(t_s, "repro_serve_unavailable_total", labels)
        raise UnavailableError(
            f"object {object_id!r}: retry budget exhausted after "
            f"{attempts} attempt(s)"
        )

    def run(
        self,
        requests: list[Request],
        continue_on_unavailable: bool = False,
    ) -> list[ServedRequest]:
        """Serve a whole request stream (must be time-ordered).

        The stream is grouped into per-snapshot-slot cohorts, each resolved
        through :meth:`serve_batch`. With ``continue_on_unavailable`` the
        stream survives requests that raise
        :class:`~repro.errors.UnavailableError` (fault exhaustion or an
        overload shed): they are counted in ``stats`` and skipped, which is
        what availability experiments want.
        """
        results: list[ServedRequest] = []
        group_users: list[GeoPoint] = []
        group_oids: list[str] = []
        group_ts: list[float] = []
        group_slot: int | None = None
        last_t = -1.0

        def flush() -> None:
            if not group_users:
                return
            served = self.serve_batch(
                group_users,
                group_oids,
                group_ts,
                continue_on_unavailable=continue_on_unavailable,
            )
            results.extend(r for r in served if r is not None)
            group_users.clear()
            group_oids.clear()
            group_ts.clear()

        for request in requests:
            if request.t_s < last_t:
                flush()  # the stream up to here is served
                raise ConfigurationError("request stream is not time-ordered")
            last_t = request.t_s
            slot = int(request.t_s // SNAPSHOT_INTERVAL_S)
            if group_slot is not None and slot != group_slot:
                flush()
            group_slot = slot
            group_users.append(request.city.location)
            group_oids.append(request.object_id)
            group_ts.append(request.t_s)
        flush()
        return results

    def _record(
        self,
        object_id: str,
        t_s: float,
        source: LookupSource,
        satellite: int | None,
        hops: int,
        rtt_ms: float,
        attempts: int = 1,
        fallback_reason: str | None = None,
        priority: int | None = None,
    ) -> ServedRequest:
        if source is LookupSource.ACCESS_SATELLITE:
            self.stats.access_hits += 1
        elif source is LookupSource.DIRECT_VISIBLE:
            self.stats.direct_hits += 1
        elif source is LookupSource.ISL_NEIGHBOR:
            self.stats.isl_hits += 1
        else:
            self.stats.ground_fetches += 1
        self.stats.rtt_samples_ms.append(rtt_ms)
        rec = get_recorder()
        if rec.enabled:
            tier = TIER_OF_SOURCE[source]
            labels = _TIER_LABELS[tier]
            rec.inc("repro_serve_total", labels)
            rec.observe("repro_serve_rtt_ms", rtt_ms, labels)
            # Windowed twins of the scalar series, keyed by the request's
            # *simulated* arrival time (``obs-timeseries.json``).
            rec.window_inc(t_s, "repro_serve_total", labels)
            rec.window_observe(t_s, "repro_serve_rtt_ms", rtt_ms, labels)
            if fallback_reason is None:
                rec.window_inc(t_s, "repro_serve_hit_total", labels)
            if attempts > 1:
                rec.window_inc(
                    t_s, "repro_serve_retries_total", value=float(attempts - 1)
                )
            if fallback_reason is not None:
                rec.inc(
                    "repro_serve_fallback_total", (("reason", fallback_reason),)
                )
        return ServedRequest(
            object_id=object_id,
            t_s=t_s,
            source=source,
            serving_satellite=satellite,
            isl_hops=hops,
            rtt_ms=rtt_ms,
            attempts=attempts,
            fallback_reason=fallback_reason,
            priority=priority,
        )
