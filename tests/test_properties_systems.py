"""Property-based tests on the system-level components."""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from repro.constants import (
    CDN_SERVER_THINK_TIME_MS,
    SNAPSHOT_INTERVAL_S,
    SPEED_OF_LIGHT_KM_S,
)
from repro.experiments import figure7
from repro.experiments.shells import (
    shell1_epochs,
    shell1_snapshot,
    small_constellation,
)
from repro.experiments.sweep import sweep_catalog, sweep_requests
from repro.faults.processes import OutageWindow
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import FaultSchedule, apply_fault_view
from repro.network.access import access_latency_ms
from repro.orbits.elements import ShellConfig
from repro.orbits.visibility import nearest_visible_satellites, visible_satellites
from repro.overload.model import OverloadModel
from repro.simulation.sampler import seeded_rng, user_sample_points
from repro.spacecdn.dutycycle import DutyCycleScheduler
from repro.spacecdn.lookup import LookupSource
from repro.spacecdn.resilience import random_failure_set
from repro.spacecdn.system import SpaceCdnSystem
from repro.topology import fastcore
from repro.topology.graph import build_snapshot
from serve_reference import has_satellite


class TestDutyCycleProperties:
    @given(
        st.integers(min_value=1, max_value=2000),
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_active_set_size_and_bounds(self, total, fraction, slot):
        scheduler = DutyCycleScheduler(
            total_satellites=total, cache_fraction=fraction, seed=1
        )
        active = scheduler.active_caches(slot)
        assert len(active) == scheduler.caches_per_slot
        assert 1 <= len(active) <= total
        assert all(0 <= s < total for s in active)

    @given(
        st.integers(min_value=10, max_value=500),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_determinism(self, total, slot):
        a = DutyCycleScheduler(total_satellites=total, cache_fraction=0.4, seed=9)
        b = DutyCycleScheduler(total_satellites=total, cache_fraction=0.4, seed=9)
        assert a.active_caches(slot) == b.active_caches(slot)

    @given(st.floats(min_value=0.0, max_value=100_000.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_slot_index_consistent_with_duration(self, t):
        scheduler = DutyCycleScheduler(total_satellites=10, cache_fraction=0.5)
        slot = scheduler.slot_index(t)
        assert slot * 600.0 <= t < (slot + 1) * 600.0


class TestFigure7Properties:
    """Fig. 7 per user: the RTT at 0, 3, 5 and 10 hops strictly rises.

    The cheapest path to a satellite h+1 hops away passes a satellite h
    hops away at a strictly lower latency, so the cheapest satellite at
    exactly h hops is cheaper than the one at h+1. That holds for every
    user, seed and epoch, and under failures too.
    """

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=12),
        st.sampled_from([0.0, 0.05, 0.2]),
    )
    @example(seed=7, epoch_index=0, num_users=8, failed_fraction=0.0)
    @example(seed=7, epoch_index=1, num_users=8, failed_fraction=0.0)
    @settings(max_examples=25, deadline=None)
    def test_per_user_rtt_strictly_rises_with_hops(
        self, seed, epoch_index, num_users, failed_fraction
    ):
        epoch = shell1_epochs(5, seed)[epoch_index]
        users = user_sample_points(seeded_rng(seed, 0x717, epoch_index), num_users)
        if failed_fraction == 0.0:
            # The shipped epoch shard: with no failures every hop count is
            # present, so its per-curve lists align user by user.
            samples = figure7.epoch_rtt_samples(epoch, users)
            rtts = np.array([samples[n] for n in figure7.HOP_COUNTS]).T
            assert rtts.shape == (num_users, len(figure7.HOP_COUNTS))
        else:
            snapshot = shell1_snapshot(epoch)
            failed = random_failure_set(
                len(snapshot.constellation),
                failed_fraction,
                np.random.default_rng(seed),
            )
            access, slant_km = nearest_visible_satellites(
                snapshot.constellation, users, epoch
            )
            live = np.array([int(a) not in failed for a in access])
            if not live.any():
                return
            active = np.ones(snapshot.core.num_nodes, dtype=bool)
            active[list(failed)] = False
            ladders = fastcore.hop_ladder_batch(
                snapshot.core, access[live], max(figure7.HOP_COUNTS), active
            )[:, list(figure7.HOP_COUNTS)]
            rtts = (
                2.0 * (access_latency_ms(slant_km[live])[:, None] + ladders)
                + CDN_SERVER_THINK_TIME_MS
            )
        for row in rtts:
            present = ~np.isnan(row)
            # A hop count is reachable only if every smaller one is.
            assert np.all(present[: np.count_nonzero(present)])
            assert np.all(np.diff(row[present]) > 0.0)


def _served_with_light_floor(seed: int, fraction: float, load: float | None):
    """Serve a smoke-shell request stream; each served request with its
    speed-of-light floor in ms.

    The stream is the chaos sweep's (``load=None``, no overload model) or
    the overload sweep's at that load multiplier, with ``fraction`` of the
    fleet failed. The floor is twice the user's uplink slant range plus
    twice the shortest live ISL path to the serving satellite, at vacuum c:
    the uplink lands on the serving satellite for access and direct-visible
    hits and on the live access satellite otherwise; ground fetches fly no
    ISL.
    """
    constellation = small_constellation()
    catalog, preload = sweep_catalog(seed, 0x5EED, constellation)
    num_requests = 60 if load is None else max(1, round(60 * load))
    requests = sweep_requests(catalog, num_requests, seed, 0x5EED1, 0x5EED2)
    failed = random_failure_set(len(constellation), fraction, seeded_rng(seed, 0xFA11))
    schedule = FaultSchedule().add(OutageWindow(satellites=failed))
    system = SpaceCdnSystem(
        constellation=constellation,
        catalog=catalog,
        cache_bytes_per_satellite=10**9,
        fault_schedule=schedule,
        retry_policy=RetryPolicy(max_attempts=3),
        overload=None
        if load is None
        else OverloadModel(
            capacity_per_slot=6.0,
            ground_capacity_per_slot=40.0,
            deadline_ms=1500.0,
            seed=seed,
        ),
    )
    system.preload(preload)
    checked = []
    for slot, cohort in itertools.groupby(
        requests, key=lambda r: int(r.t_s // SNAPSHOT_INTERVAL_S)
    ):
        cohort = list(cohort)
        served = system.serve_batch(
            [r.city.location for r in cohort],
            [r.object_id for r in cohort],
            [r.t_s for r in cohort],
            continue_on_unavailable=True,
        )
        t_s = slot * SNAPSHOT_INTERVAL_S
        degraded = apply_fault_view(
            build_snapshot(constellation, t_s), schedule.compile_at(t_s)
        )
        topology = degraded.core.topology
        alive = np.ones(topology.num_nodes, dtype=bool)
        alive[list(degraded.failed)] = False
        live_link = alive[topology.link_a] & alive[topology.link_b]
        isl_km = coo_matrix(
            (
                degraded.core.link_distance_km[live_link],
                (topology.link_a[live_link], topology.link_b[live_link]),
            ),
            shape=(topology.num_nodes, topology.num_nodes),
        ).tocsr()
        for request, result in zip(cohort, served):
            if result is None:
                continue
            slant = {
                s.index: s.slant_range_km
                for s in visible_satellites(constellation, request.city.location, t_s)
                if has_satellite(degraded, s.index)
            }
            access = next(iter(slant))
            if result.source in (
                LookupSource.ACCESS_SATELLITE, LookupSource.DIRECT_VISIBLE
            ):
                uplink_km, path_km = slant[result.serving_satellite], 0.0
            elif result.source is LookupSource.ISL_NEIGHBOR:
                uplink_km = slant[access]
                path_km = dijkstra(isl_km, directed=False, indices=access)[
                    result.serving_satellite
                ]
            else:
                uplink_km, path_km = slant[access], 0.0
            floor_ms = 2.0 * (uplink_km + path_km) / SPEED_OF_LIGHT_KM_S * 1000.0
            checked.append((result, floor_ms))
    return checked


class TestServeWalkSpeedOfLight:
    """No served RTT beats light: every request the serve walk serves costs
    at least twice its uplink slant range plus twice the shortest live ISL
    path to the serving satellite, at vacuum c. Checked over seeds, failure
    fractions and overload loads on the smoke shell."""

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.0, 0.1, 0.3]),
        st.sampled_from([None, 0.5, 1.0, 4.0]),
    )
    @example(seed=7, fraction=0.1, load=None)
    @example(seed=7, fraction=0.3, load=4.0)
    @settings(max_examples=15, deadline=None)
    def test_served_rtt_at_least_light_floor(self, seed, fraction, load):
        for result, floor_ms in _served_with_light_floor(seed, fraction, load):
            assert result.rtt_ms >= floor_ms, (result, floor_ms)

    def test_every_space_rung_is_checked(self):
        sources = {
            result.source
            for load in (None, 4.0)
            for result, _ in _served_with_light_floor(7, 0.1, load)
        }
        assert sources == set(LookupSource)


class TestResilienceProperties:
    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_failure_set_size_and_membership(self, total, fraction, seed):
        failed = random_failure_set(total, fraction, np.random.default_rng(seed))
        assert len(failed) == round(total * fraction)
        assert all(0 <= s < total for s in failed)


class TestShellConfigProperties:
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=200.0, max_value=2000.0, allow_nan=False),
        st.floats(min_value=30.0, max_value=98.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_shell_invariants(self, planes, per_plane, altitude, inclination):
        shell = ShellConfig(
            altitude_km=altitude,
            inclination_deg=inclination,
            num_planes=planes,
            sats_per_plane=per_plane,
        )
        assert shell.total_satellites == planes * per_plane
        assert shell.period_s > 0
        assert 0 < shell.raan_spacing_deg <= 360.0
        assert 0 < shell.in_plane_spacing_deg <= 360.0

    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_walker_positions_on_sphere(self, planes, per_plane):
        from repro.orbits.walker import build_walker_delta

        shell = ShellConfig(
            altitude_km=550.0,
            inclination_deg=53.0,
            num_planes=planes,
            sats_per_plane=per_plane,
        )
        constellation = build_walker_delta(shell)
        positions = constellation.positions_ecef(123.0)
        radii = np.linalg.norm(positions, axis=1)
        assert np.allclose(radii, constellation.orbit_radius_km)
