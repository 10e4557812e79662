"""Cohort serving against the per-request reference walker.

``SpaceCdnSystem.serve_batch`` and ``serve`` (a cohort of one) must match
the naive walker in ``tests/serve_reference.py`` for any request stream:
results, stats, cache contents, and the holders index — healthy and under
fault schedules. These tests pin that contract, plus the batch kernels it
leans on (batched visibility, batched single-source routing, the
vectorised holder argmin) and the holders-index bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.cache import HoldersIndex
from repro.cdn.content import build_catalog
from repro.errors import ConfigurationError, ReproError, UnavailableError
from repro.faults.processes import OutageWindow, TransientAttemptLoss
from repro.faults.schedule import FaultSchedule
from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import ShellConfig
from repro.orbits.visibility import visible_satellites, visible_satellites_batch
from repro.orbits.walker import build_walker_delta
from repro.overload.model import OverloadModel
from repro.spacecdn.lookup import nearest_cached_batch
from repro.spacecdn.system import SpaceCdnSystem
from repro.topology import fastcore
from repro.topology.graph import build_snapshot
from serve_reference import (
    ReferenceCdn,
    assert_same_state,
    holders_state,
    ranked_cached_reference,
    serve_cohorts,
    serve_each,
)
from topology_reference import full_rows

CONSTELLATION = build_walker_delta(
    ShellConfig(
        altitude_km=550.0,
        inclination_deg=53.0,
        num_planes=20,
        sats_per_plane=20,
        phase_offset=7,
        name="batch-shell",
    )
)
CATALOG = build_catalog(
    np.random.default_rng(1),
    40,
    regions=("africa", "europe"),
    kind_weights={"web": 1.0},
)
OBJECTS = sorted(o.object_id for o in CATALOG)
USERS = [
    GeoPoint(0.0, 0.0, 0.0),
    GeoPoint(-25.9, 32.6, 0.0),  # Maputo
    GeoPoint(51.5, -0.1, 0.0),  # London
    GeoPoint(40.7, -74.0, 0.0),  # New York
    GeoPoint(-1.3, 36.8, 0.0),  # Nairobi
    GeoPoint(35.7, 139.7, 0.0),  # Tokyo
]


def make_system(
    schedule: FaultSchedule | None = None, cls=SpaceCdnSystem, **kwargs
) -> SpaceCdnSystem:
    system = cls(
        constellation=CONSTELLATION,
        catalog=CATALOG,
        cache_bytes_per_satellite=10**8,
        max_hops=6,
        fault_schedule=schedule,
        **kwargs,
    )
    system.preload(
        {
            oid: frozenset(
                {(i * 7) % len(CONSTELLATION), (i * 13 + 5) % len(CONSTELLATION)}
            )
            for i, oid in enumerate(OBJECTS[:12])
        }
    )
    return system


def unpack(spec):
    return (
        [USERS[u] for u, _, _ in spec],
        [OBJECTS[o] for _, o, _ in spec],
        [t for _, _, t in spec],
    )


def run_batched(system, spec):
    return serve_cohorts(system, *unpack(spec))


def assert_equivalent(spec, schedule_factory=lambda: None, make=make_system):
    """``serve`` one by one and ``serve_batch`` per slot both match the
    reference walker's results and end state."""
    reference = make(schedule_factory(), ReferenceCdn)
    expected = serve_each(reference, *unpack(spec))
    for serve in (serve_each, serve_cohorts):
        system = make(schedule_factory())
        assert serve(system, *unpack(spec)) == expected, serve.__name__
        assert_same_state(system, reference, OBJECTS)


def dense_spec(n, seed, max_step_s=4.0):
    rng = np.random.default_rng(seed)
    t = 0.0
    spec = []
    for _ in range(n):
        t += float(rng.uniform(0.0, max_step_s))
        spec.append(
            (int(rng.integers(len(USERS))), int(rng.integers(len(OBJECTS))), t)
        )
    return spec


class TestHealthyEquivalence:
    def test_dense_stream_matches_scalar(self):
        assert_equivalent(dense_spec(150, seed=3))

    def test_repeated_object_promotes_within_cohort(self):
        """A ground pull-through must be visible to the very next request
        of the same cohort — the second fetch hits the access cache."""
        system = make_system()
        oid = OBJECTS[-1]  # never preloaded
        results = system.serve_batch(
            [USERS[0], USERS[0]], [oid, oid], 0.0
        )
        assert results[0].source.value == "ground"
        assert results[1].source.value == "access-satellite"

    def test_eviction_churn_matches_scalar(self):
        """Caches sized for ~1 object force evictions mid-cohort; later
        requests of the cohort must see them exactly."""
        sizes = sorted(o.size_bytes for o in CATALOG)

        def tiny(schedule, cls=SpaceCdnSystem):
            return cls(
                constellation=CONSTELLATION,
                catalog=CATALOG,
                cache_bytes_per_satellite=max(sizes) + 1,
                max_hops=6,
                fault_schedule=schedule,
            )

        assert_equivalent(dense_spec(120, seed=9, max_step_s=1.0), make=tiny)


class TestEmptyFaultView:
    """No schedule, an empty schedule and an outage of no satellites are
    the same system: one walk under an empty fault view."""

    NO_SKY = GeoPoint(89.0, 0.0, 0.0)  # above the 53-degree shell's reach

    @staticmethod
    def schedules():
        return [
            lambda: None,
            FaultSchedule,
            lambda: FaultSchedule().add(OutageWindow(satellites=frozenset())),
        ]

    def spec(self):
        spec = dense_spec(60, seed=4, max_step_s=2.0)
        users, oids, times = unpack(spec)
        for k in (0, 17, 18, 41):
            users[k] = self.NO_SKY
        return users, oids, times

    def test_three_systems_agree_with_a_no_sky_user(self):
        users, oids, times = self.spec()
        reference = make_system(None, ReferenceCdn)
        expected = serve_each(reference, users, oids, times)
        assert expected.count(None) == 4
        assert reference.stats.unavailable == 4
        for factory in self.schedules():
            for serve in (serve_each, serve_cohorts):
                system = make_system(factory())
                assert serve(system, users, oids, times) == expected
                assert_same_state(system, reference, OBJECTS)

    def test_no_sky_user_raises_unavailable(self):
        for factory in self.schedules():
            system = make_system(factory())
            with pytest.raises(UnavailableError):
                system.serve_batch([USERS[0], self.NO_SKY], OBJECTS[:2], 0.0)
            assert system.stats.unavailable == 1
            assert system.stats.served == 1

    def test_ground_fetch_names_its_fallback(self):
        for factory in self.schedules():
            (served,) = make_system(factory()).serve_batch(
                [USERS[0]], [OBJECTS[-1]], 0.0
            )
            assert served.source.value == "ground"
            assert served.fallback_reason == "no-space-replica"


class TestDegradedEquivalence:
    @staticmethod
    def schedule():
        return (
            FaultSchedule()
            .add(
                OutageWindow(
                    satellites=frozenset(range(0, len(CONSTELLATION), 7))
                )
            )
            .add(TransientAttemptLoss(probability=0.3, seed=7))
        )

    def test_faulted_stream_matches_scalar(self):
        assert_equivalent(dense_spec(120, seed=5), self.schedule)

    def test_all_down_raises_like_scalar(self):
        schedule = FaultSchedule().add(
            OutageWindow(satellites=frozenset(range(len(CONSTELLATION))))
        )
        system = make_system(schedule)
        with pytest.raises(UnavailableError):
            system.serve_batch([USERS[0]], [OBJECTS[0]], 0.0)

    def test_all_down_continue_yields_none_slots(self):
        schedule = FaultSchedule().add(
            OutageWindow(satellites=frozenset(range(len(CONSTELLATION))))
        )
        system = make_system(schedule)
        results = system.serve_batch(
            [USERS[0], USERS[1]],
            [OBJECTS[0], OBJECTS[1]],
            0.0,
            continue_on_unavailable=True,
        )
        assert results == [None, None]
        assert system.stats.unavailable == 2


class TestBatchProperties:
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=2**16),
        st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_serve_batch_equals_scalar(self, n, seed, faulted):
        spec = dense_spec(n, seed=seed, max_step_s=6.0)
        if faulted:
            rng = np.random.default_rng(seed)
            failed = frozenset(
                int(s)
                for s in rng.choice(
                    len(CONSTELLATION), size=len(CONSTELLATION) // 5, replace=False
                )
            )

            def factory():
                return (
                    FaultSchedule()
                    .add(OutageWindow(satellites=failed))
                    .add(
                        TransientAttemptLoss(
                            probability=0.25, seed=seed & 0xFFFF
                        )
                    )
                )

            assert_equivalent(spec, factory)
        else:
            assert_equivalent(spec)


class TestCohortValidation:
    def test_empty_cohort(self):
        assert make_system().serve_batch([], [], 0.0) == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            make_system().serve_batch([USERS[0]], [OBJECTS[0], OBJECTS[1]], 0.0)

    def test_times_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            make_system().serve_batch([USERS[0]], [OBJECTS[0]], [0.0, 1.0])

    def test_cross_slot_cohort_rejected(self):
        with pytest.raises(ConfigurationError):
            make_system().serve_batch(
                [USERS[0], USERS[1]], [OBJECTS[0], OBJECTS[1]], [0.0, 61.0]
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            make_system().serve_batch([USERS[0]], [OBJECTS[0]], -1.0)

    @pytest.mark.parametrize(
        "with_model, bad_call",
        [
            (
                False,
                lambda system: system.serve_batch(
                    [USERS[0]], [OBJECTS[0]], 0.0, priorities=[0]
                ),
            ),
            (
                False,
                lambda system: system.serve_batch(
                    [USERS[0], USERS[1]], [OBJECTS[0], "no-such-object"], 0.0
                ),
            ),
            (
                True,
                lambda system: system.serve_batch(
                    [USERS[0], USERS[1]], [OBJECTS[0], OBJECTS[1]], 0.0,
                    priorities=[0],
                ),
            ),
            (
                False,
                lambda system: system.serve_batch(
                    [USERS[0], USERS[1]], [OBJECTS[0], OBJECTS[1]],
                    [0.0, float("nan")],
                ),
            ),
            (
                True,
                lambda system: system.serve_batch(
                    [USERS[0]], [OBJECTS[0]], float("inf")
                ),
            ),
        ],
        ids=[
            "priorities-without-model",
            "unknown-object",
            "priorities-length",
            "nan-time",
            "inf-time",
        ],
    )
    def test_rejected_call_changes_nothing(self, with_model, bad_call):
        """A call rejected for its arguments must not compile the slot's
        fault state first: that would wipe the caches of satellites the
        window takes down and change every later request."""

        def build():
            schedule = FaultSchedule().add(
                OutageWindow(
                    satellites=frozenset(range(0, len(CONSTELLATION), 3)),
                    end_s=60.0,
                )
            )
            model = OverloadModel(seed=3) if with_model else None
            return make_system(schedule, overload=model)

        users, oids, times = unpack(dense_spec(30, seed=2, max_step_s=1.0))
        later = (users, oids, [61.0 + t for t in times])
        alone = build()
        expected = alone.serve_batch(*later, continue_on_unavailable=True)
        system = build()
        with pytest.raises(ReproError):
            bad_call(system)
        assert system.serve_batch(*later, continue_on_unavailable=True) == expected
        assert holders_state(system, OBJECTS) == holders_state(alone, OBJECTS)

    def test_scalar_time_broadcasts(self):
        system = make_system()
        results = system.serve_batch(
            [USERS[0], USERS[1]], [OBJECTS[0], OBJECTS[1]], 5.0
        )
        assert [r.t_s for r in results] == [5.0, 5.0]


class TestHoldersIndexIntegrity:
    def test_eviction_never_leaves_stale_entries(self):
        sizes = sorted(o.size_bytes for o in CATALOG)
        system = SpaceCdnSystem(
            constellation=CONSTELLATION,
            catalog=CATALOG,
            cache_bytes_per_satellite=max(sizes) + 1,
        )
        for i, oid in enumerate(OBJECTS):
            system._store(i % 4, oid)
        self._assert_index_mirrors_caches(system)

    def test_wipe_never_leaves_stale_entries(self):
        failed = frozenset(range(0, len(CONSTELLATION), 3))
        schedule = FaultSchedule().add(
            OutageWindow(satellites=failed)
        )
        system = make_system(schedule)
        # First serve compiles the fault view and wipes the outage set.
        try:
            system.serve(USERS[0], OBJECTS[0], 0.0)
        except UnavailableError:
            pass
        for oid in OBJECTS:
            assert not (system.holders_of(oid) & failed), oid
        self._assert_index_mirrors_caches(system)

    def test_batched_churn_keeps_index_consistent(self):
        system = make_system()
        run_batched(system, dense_spec(100, seed=11, max_step_s=1.0))
        self._assert_index_mirrors_caches(system)

    @staticmethod
    def _assert_index_mirrors_caches(system):
        for satellite, cache in system._caches.items():
            for oid in cache.object_ids():
                assert satellite in system.holders_of(oid)
        for oid in OBJECTS:
            for satellite in system.holders_of(oid):
                assert oid in system.cache_of(satellite)


class TestHoldersIndexUnit:
    def test_add_discard_roundtrip(self):
        index = HoldersIndex()
        index.add("a", 3)
        index.add("a", 5)
        index.add("b", 3)
        assert index.holders("a") == frozenset({3, 5})
        assert "a" in index and len(index) == 2
        index.discard("a", 3)
        assert index.holders("a") == frozenset({5})
        index.discard("a", 5)
        assert "a" not in index
        assert index.holders("a") == frozenset()

    def test_drop_satellite(self):
        index = HoldersIndex()
        for oid in ("a", "b", "c"):
            index.add(oid, 1)
            index.add(oid, 2)
        index.drop_satellite(1, {"a", "b"})
        assert index.holders("a") == frozenset({2})
        assert index.holders("c") == frozenset({1, 2})


class TestBatchKernels:
    def test_visibility_batch_bit_equal_to_scalar(self, small_constellation):
        points = USERS[:4]
        for t in (0.0, 120.0):
            vb = visible_satellites_batch(small_constellation, points, t)
            for p, point in enumerate(points):
                scalar = visible_satellites(small_constellation, point, t)
                batch = vb.visible_list(p)
                assert [s.index for s in batch] == [s.index for s in scalar]
                assert [s.elevation_deg for s in batch] == [
                    s.elevation_deg for s in scalar
                ]
                assert [s.slant_range_km for s in batch] == [
                    s.slant_range_km for s in scalar
                ]

    def test_visibility_batch_empty_points(self, small_constellation):
        vb = visible_satellites_batch(small_constellation, [], 0.0)
        assert vb.num_points == 0

    def test_single_source_batch_rows_equal_scalar(self, small_constellation):
        snapshot = build_snapshot(small_constellation, 0.0)
        sources = [0, 5, 17]
        # A radius past the grid's diameter keeps every satellite.
        hops_m, lats_m = fastcore.single_source_batch(
            snapshot.core, sources, snapshot.core.num_nodes
        )
        for i, source in enumerate(sources):
            hops, lats = full_rows(snapshot.core, source)
            np.testing.assert_array_equal(hops_m[i], hops)
            np.testing.assert_array_equal(lats_m[i], lats)

    def test_single_source_batch_masked_rows_equal_scalar(
        self, small_constellation
    ):
        snapshot = build_snapshot(small_constellation, 0.0)
        active = np.ones(snapshot.core.num_nodes, dtype=bool)
        active[::5] = False
        active[[1, 2]] = True
        sources = [1, 2]
        hops_m, lats_m = fastcore.single_source_batch(
            snapshot.core, sources, snapshot.core.num_nodes, active
        )
        for i, source in enumerate(sources):
            hops, lats = full_rows(snapshot.core, source, active)
            np.testing.assert_array_equal(hops_m[i], hops)
            np.testing.assert_array_equal(lats_m[i], lats)

    @pytest.mark.parametrize("faulted", [False, True])
    def test_walk_latency_search_is_limited(self, monkeypatch, faulted):
        """Every latency search of the walk, healthy or masked, stops at a
        finite limit (the equivalence tests above pin its results)."""
        limits: list[float | None] = []
        kernel = fastcore.latency_batch

        def counted(*args, limit=None, **kwargs):
            limits.append(limit)
            return kernel(*args, limit=limit, **kwargs)

        monkeypatch.setattr(fastcore, "latency_batch", counted)
        schedule = TestDegradedEquivalence.schedule() if faulted else None
        run_batched(make_system(schedule), dense_spec(40, seed=11))
        assert limits
        assert all(limit is not None and np.isfinite(limit) for limit in limits)

    def test_nearest_cached_batch_matches_rowwise(self):
        rng = np.random.default_rng(0)
        n, rows = 30, 12
        hops = rng.integers(0, 8, size=(rows, n)).astype(np.int32)
        hops[rng.random((rows, n)) < 0.2] = fastcore.HOP_UNREACHABLE
        lats = rng.uniform(1.0, 50.0, size=(rows, n))
        holders = rng.random((rows, n)) < 0.3
        found, best = nearest_cached_batch(hops, lats, holders, max_hops=5,
                                           min_hops=1)
        for r in range(rows):
            cache_set = {int(s) for s in np.flatnonzero(holders[r])}
            ranked = ranked_cached_reference(
                hops[r], lats[r], cache_set, max_hops=5, min_hops=1
            )
            if not ranked:
                assert not found[r]
            else:
                assert found[r]
                assert int(best[r]) == ranked[0][0]
