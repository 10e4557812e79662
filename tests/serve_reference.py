"""A naive per-request reference for :class:`SpaceCdnSystem`'s serve path.

The system resolves requests in cohorts: one visibility batch and one
routing pass per access satellite. This module answers the same requests
the plain way, one at a time, so the property suites can check the cohort
code element by element. Each satellite has an LRU cache and the provider
keeps a dict view of which satellites hold which object. Candidates are
ranked per request by :func:`ranked_cached_reference`, a plain loop over
the access satellite's routing rows. Every request runs
the attempt walk; with no faults it walks over the healthy snapshot. The
fault schedule and the overload model see the same calls, in the same
order, as in the system. Nothing is recorded to obs.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.cdn.cache import Cache
from repro.constants import CDN_SERVER_THINK_TIME_MS, GROUND_RTT_MS, SNAPSHOT_INTERVAL_S
from repro.errors import ConfigurationError, OverloadedError, UnavailableError
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import apply_fault_view
from repro.network.access import access_latency_ms
from repro.orbits.visibility import visible_satellites
from repro.overload.model import GROUND_TARGET
from repro.spacecdn.lookup import LookupSource
from repro.spacecdn.system import TIER_OF_SOURCE, ServedRequest, SystemStats
from repro.topology import fastcore
from repro.topology.graph import build_snapshot
from topology_reference import full_rows

_BREAKER_OPEN = "breaker-open"


def ranked_cached_reference(
    hops,
    latencies,
    cache_satellites,
    max_hops: int,
    min_hops: int = 0,
    exclude: frozenset[int] = frozenset(),
) -> list[tuple[int, int, float]]:
    """Plain-loop reference for
    :func:`repro.spacecdn.lookup.ranked_cached_from_rows`.

    Every in-range caching satellite of one routing row as ``(satellite,
    hops, one-way ISL ms)``, cheapest first, lowest index on ties.
    """
    num_nodes = hops.shape[0]
    ranked = []
    for satellite in sorted(set(cache_satellites) - exclude):
        if not 0 <= satellite < num_nodes:
            continue
        h = int(hops[satellite])
        if h == fastcore.HOP_UNREACHABLE or not min_hops <= h <= max_hops:
            continue
        latency = float(latencies[satellite])
        if not math.isfinite(latency):
            continue
        ranked.append((satellite, h, latency))
    ranked.sort(key=lambda entry: (entry[2], entry[0]))
    return ranked


class ReferenceCdn:
    """Takes :class:`SpaceCdnSystem`'s constructor arguments and serves
    the same way, one request at a time."""

    def __init__(
        self,
        constellation,
        catalog,
        cache_bytes_per_satellite: int = 10**9,
        max_hops: int = 5,
        fault_schedule=None,
        retry_policy: RetryPolicy | None = None,
        overload=None,
    ) -> None:
        self.constellation = constellation
        self.catalog = catalog
        self.cache_bytes = cache_bytes_per_satellite
        self.max_hops = max_hops
        self.fault_schedule = fault_schedule
        self.retry_policy = retry_policy or RetryPolicy()
        self.overload = overload
        self.stats = SystemStats()
        self.caches: dict[int, Cache] = {}
        self.holders: dict[str, set[int]] = {}
        self.attempt_counts: Counter = Counter()
        """``(tier, outcome)`` -> attempts, as ``repro_serve_attempts_total``
        counts them."""
        self._requests = 0
        self._slot: int | None = None
        self._snapshot = None
        self._faults = None
        self._down: frozenset[int] = frozenset()

    # -- caches and the holders view ---------------------------------------

    def cache(self, satellite: int) -> Cache:
        if satellite not in self.caches:
            self.caches[satellite] = Cache(self.cache_bytes)
        return self.caches[satellite]

    def holders_of(self, object_id: str) -> frozenset[int]:
        return frozenset(self.holders.get(object_id, ()))

    def store(self, satellite: int, object_id: str) -> None:
        obj = self.catalog.get(object_id)
        cache = self.cache(satellite)
        if obj.size_bytes > cache.capacity_bytes:
            return
        for victim in cache.put(obj):
            self.holders[victim].discard(satellite)
        self.holders.setdefault(object_id, set()).add(satellite)

    def preload(self, placement: dict[str, frozenset[int]]) -> None:
        for object_id, satellites in placement.items():
            for satellite in satellites:
                self.store(satellite, object_id)

    def _wipe(self, satellite: int) -> None:
        cache = self.caches.get(satellite)
        if cache is None:
            return
        for object_id in cache.object_ids():
            self.holders[object_id].discard(satellite)
        cache.clear()

    # -- time and faults ----------------------------------------------------

    def _enter_slot(self, t_s: float) -> None:
        if t_s < 0:
            raise ConfigurationError(f"negative time: {t_s}")
        slot = int(t_s // SNAPSHOT_INTERVAL_S)
        if slot != self._slot:
            self._slot = slot
            self._snapshot = build_snapshot(
                self.constellation, slot * SNAPSHOT_INTERVAL_S
            )
            self._faults = None

    def _degraded(self):
        """The slot's masked snapshot, compiled once per slot."""
        schedule = self.fault_schedule
        snapshot = self._snapshot
        if schedule is None or schedule.is_empty:
            return snapshot
        if self._faults is None:
            view = schedule.compile_at(snapshot.t_s)
            self._faults = apply_fault_view(snapshot, view)
            down = frozenset(
                s for s in view.failed_satellites if 0 <= s < len(self.constellation)
            )
            for satellite in sorted(down - self._down):
                self._wipe(satellite)
            self._down = down
        return self._faults

    # -- serving --------------------------------------------------------------

    def serve(self, user, object_id: str, t_s: float, priority=None) -> ServedRequest:
        self.catalog.get(object_id)
        if priority is not None:
            if self.overload is None:
                raise ConfigurationError("request priorities require an overload model")
            self.overload.validate_priority(priority)
        self._enter_slot(t_s)
        return self._serve_walk(user, object_id, t_s, priority)

    def run(self, requests, continue_on_unavailable: bool = False) -> list:
        served = []
        for request in requests:
            try:
                served.append(
                    self.serve(request.city.location, request.object_id, request.t_s)
                )
            except UnavailableError:
                if not continue_on_unavailable:
                    raise
        return served

    def _served(self, object_id, t_s, source, satellite, hops, rtt_ms,
                attempts=1, reason=None, priority=None) -> ServedRequest:
        if source is LookupSource.ACCESS_SATELLITE:
            self.stats.access_hits += 1
        elif source is LookupSource.DIRECT_VISIBLE:
            self.stats.direct_hits += 1
        elif source is LookupSource.ISL_NEIGHBOR:
            self.stats.isl_hits += 1
        else:
            self.stats.ground_fetches += 1
        self.stats.rtt_samples_ms.append(rtt_ms)
        return ServedRequest(object_id, t_s, source, satellite, hops, rtt_ms,
                             attempts, reason, priority)

    def _ladder(self, live, holders, degraded) -> list[tuple]:
        """Space rungs cheapest first: access, other visible holders, ISL."""
        if not holders:
            return []
        access = live[0]
        rungs, seen = [], set()
        for k, sat in enumerate(live):
            if sat.index in holders and sat.index not in seen:
                source = (
                    LookupSource.ACCESS_SATELLITE if k == 0
                    else LookupSource.DIRECT_VISIBLE
                )
                rtt = 2.0 * access_latency_ms(sat.slant_range_km)
                rungs.append((source, sat.index, 0, rtt + CDN_SERVER_THINK_TIME_MS))
                seen.add(sat.index)
        access_rtt = 2.0 * access_latency_ms(access.slant_range_km)
        rows = full_rows(degraded.core, access.index, degraded.active_mask)
        for satellite, hops, one_way in ranked_cached_reference(
            *rows, holders, self.max_hops, min_hops=1, exclude=frozenset(seen)
        ):
            rtt = access_rtt + 2.0 * one_way + CDN_SERVER_THINK_TIME_MS
            rungs.append((LookupSource.ISL_NEIGHBOR, satellite, hops, rtt))
        return rungs

    def _serve_walk(self, user, object_id, t_s, priority) -> ServedRequest:
        """The attempt walk, under whatever faults and protection are set."""
        model, policy, schedule = self.overload, self.retry_policy, self.fault_schedule
        degraded = self._degraded()
        index = self._requests
        self._requests += 1
        deadline = None
        if model is not None:
            model.begin_slot(
                self._slot, degraded.t_s, len(self.constellation), schedule
            )
            if priority is None:
                priority = model.priority_of(index)
            deadline = model.deadline_budget()
        live = [
            s
            for s in visible_satellites(self.constellation, user, degraded.t_s)
            if degraded.has_satellite(s.index)
        ]
        if not live:
            self.stats.unavailable += 1
            raise UnavailableError("no live satellite visible")
        attempts, backoff_ms, reason = 0, 0.0, None
        refused = skipped = deadline_hit = False

        def attempt(tier, target, satellite, rtt):
            """Try one rung: its queue-inflated RTT if it serves, else None."""
            nonlocal attempts, backoff_ms, reason, refused, skipped, deadline_hit
            breaker = None if model is None else model.breaker_for(target)
            if breaker is not None and not breaker.allow(t_s):
                skipped = True
                self.attempt_counts[(tier, "breaker-open")] += 1
                return _BREAKER_OPEN
            attempts += 1
            if model is not None and not model.admit(satellite, priority):
                refused, failure = True, "admission-reject"
            elif schedule is not None and schedule.attempt_lost(index, attempts):
                reason = failure = "transient-loss"
            else:
                queue_ms = 0.0 if model is None else model.queue_delay_ms(satellite)
                if deadline is not None and not deadline.allows(rtt + queue_ms):
                    deadline_hit = True
                    self.attempt_counts[(tier, "deadline-exhausted")] += 1
                    return None
                if breaker is not None:
                    breaker.record_success(t_s)
                if model is not None:
                    model.note_served(satellite)
                self.attempt_counts[(tier, "served")] += 1
                return rtt + queue_ms
            if failure == "transient-loss":
                self.stats.timeouts += 1
            step_ms = policy.backoff_ms(attempts)
            backoff_ms += step_ms
            if deadline is not None:
                deadline.charge(step_ms)
            if breaker is not None:
                breaker.record_failure(t_s)
            self.attempt_counts[(tier, failure)] += 1
            return None

        ladder = self._ladder(live, self.holders_of(object_id), degraded)
        for source, satellite, hops, rtt in ladder:
            if attempts >= policy.max_attempts or deadline_hit:
                break
            got = attempt(TIER_OF_SOURCE[source], satellite, satellite, rtt)
            if isinstance(got, float):
                self.cache(satellite).get(object_id)
                self.stats.retries += attempts - 1
                return self._served(object_id, t_s, source, satellite, hops,
                                    got + backoff_ms, attempts, reason, priority)
        while not deadline_hit and attempts < policy.max_attempts:
            got = attempt("ground", GROUND_TARGET, None, GROUND_RTT_MS)
            if got is _BREAKER_OPEN:
                break
            if isinstance(got, float):
                self.store(live[0].index, object_id)
                self.stats.retries += attempts - 1
                if reason is None:
                    reason = "space-exhausted" if ladder else "no-space-replica"
                return self._served(object_id, t_s, LookupSource.GROUND, None, 0,
                                    got + backoff_ms, attempts, reason, priority)

        self.stats.retries += max(0, attempts - 1)
        if deadline_hit or refused or skipped:
            self.stats.shed += 1
            self.stats.deadline_exhausted += int(deadline_hit)
            error = OverloadedError("shed")
            error.reason = (
                "deadline" if deadline_hit
                else "admission" if refused else "breaker-open"
            )
            error.priority_class = priority
            raise error
        self.stats.unavailable += 1
        raise UnavailableError("fallback ladder exhausted")


# -- drivers shared by the equality suites ----------------------------------


def serve_each(system, users, object_ids, times, priorities=None) -> list:
    """Serve one request at a time; unavailable or shed requests give None."""
    results = []
    for k, (user, object_id, t_s) in enumerate(zip(users, object_ids, times)):
        priority = None if priorities is None else priorities[k]
        try:
            results.append(system.serve(user, object_id, t_s, priority=priority))
        except UnavailableError:  # OverloadedError sheds included
            results.append(None)
    return results


def serve_cohorts(system, users, object_ids, times, priorities=None) -> list:
    """Serve per-snapshot-slot cohorts through ``serve_batch``, grouped as
    ``SpaceCdnSystem.run`` groups a stream."""

    def slot(k):
        return int(times[k] // SNAPSHOT_INTERVAL_S)

    results = []
    start = 0
    while start < len(times):
        end = start + 1
        while end < len(times) and slot(end) == slot(start):
            end += 1
        results.extend(
            system.serve_batch(
                users[start:end],
                object_ids[start:end],
                times[start:end],
                continue_on_unavailable=True,
                priorities=None if priorities is None else priorities[start:end],
            )
        )
        start = end
    return results


def cache_state(system) -> dict[int, set[str]]:
    """Object ids per satellite with a non-empty cache."""
    caches = system.caches if isinstance(system, ReferenceCdn) else system._caches
    return {s: c.object_ids() for s, c in caches.items() if c.object_ids()}


def holders_state(system, object_ids) -> dict[str, frozenset[int]]:
    return {object_id: system.holders_of(object_id) for object_id in object_ids}


def assert_same_state(system, reference, object_ids) -> None:
    """Stats, cache contents and the holders index all agree."""
    assert system.stats == reference.stats
    assert cache_state(system) == cache_state(reference)
    assert holders_state(system, object_ids) == holders_state(reference, object_ids)
