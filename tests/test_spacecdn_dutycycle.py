"""Tests for duty-cycled satellite caching."""

import pytest

from repro.errors import ConfigurationError
from repro.geo.coordinates import GeoPoint
from repro.spacecdn.dutycycle import DutyCycleLatencyModel, DutyCycleScheduler


class TestScheduler:
    def test_caches_per_slot(self):
        scheduler = DutyCycleScheduler(total_satellites=100, cache_fraction=0.3)
        assert scheduler.caches_per_slot == 30

    def test_at_least_one_cache(self):
        scheduler = DutyCycleScheduler(total_satellites=100, cache_fraction=0.001)
        assert scheduler.caches_per_slot == 1

    def test_active_set_size(self):
        scheduler = DutyCycleScheduler(total_satellites=200, cache_fraction=0.5)
        assert len(scheduler.active_caches(0)) == 100

    def test_deterministic_per_slot(self):
        a = DutyCycleScheduler(total_satellites=100, cache_fraction=0.5, seed=3)
        b = DutyCycleScheduler(total_satellites=100, cache_fraction=0.5, seed=3)
        assert a.active_caches(7) == b.active_caches(7)

    def test_different_slots_differ(self):
        scheduler = DutyCycleScheduler(total_satellites=500, cache_fraction=0.5)
        assert scheduler.active_caches(0) != scheduler.active_caches(1)

    def test_different_seeds_differ(self):
        a = DutyCycleScheduler(total_satellites=500, cache_fraction=0.5, seed=1)
        b = DutyCycleScheduler(total_satellites=500, cache_fraction=0.5, seed=2)
        assert a.active_caches(0) != b.active_caches(0)

    def test_slot_index(self):
        scheduler = DutyCycleScheduler(total_satellites=10, cache_fraction=1.0)
        assert scheduler.slot_index(0.0) == 0
        assert scheduler.slot_index(599.9) == 0
        assert scheduler.slot_index(600.0) == 1

    def test_active_caches_at_uses_slot(self):
        scheduler = DutyCycleScheduler(total_satellites=100, cache_fraction=0.5)
        assert scheduler.active_caches_at(0.0) == scheduler.active_caches(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_satellites": 0},
            {"cache_fraction": 0.0},
            {"cache_fraction": 1.5},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        base = dict(total_satellites=10, cache_fraction=0.5)
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            DutyCycleScheduler(**base)

    def test_negative_slot_rejected(self):
        scheduler = DutyCycleScheduler(total_satellites=10, cache_fraction=0.5)
        with pytest.raises(ConfigurationError):
            scheduler.active_caches(-1)
        with pytest.raises(ConfigurationError):
            scheduler.slot_index(-1.0)

    @pytest.mark.parametrize("t_s", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_rejected(self, t_s):
        scheduler = DutyCycleScheduler(total_satellites=10, cache_fraction=0.5)
        with pytest.raises(ConfigurationError):
            scheduler.slot_index(t_s)
        with pytest.raises(ConfigurationError):
            scheduler.active_caches_at(t_s)


class TestLatencyModel:
    def test_full_fleet_serves_directly(self, shell1_snapshot):
        model = DutyCycleLatencyModel(
            snapshot=shell1_snapshot,
            scheduler=DutyCycleScheduler(
                total_satellites=len(shell1_snapshot.constellation),
                cache_fraction=1.0,
            ),
        )
        result = model.lookup(GeoPoint(0.0, 0.0))
        assert result.isl_hops == 0

    def test_latency_decreases_with_cache_fraction(self, shell1_snapshot):
        import numpy as np

        from repro.simulation.sampler import seeded_rng, user_sample_points

        users = user_sample_points(seeded_rng(1, 2), 12)

        def median_latency(fraction: float) -> float:
            model = DutyCycleLatencyModel(
                snapshot=shell1_snapshot,
                scheduler=DutyCycleScheduler(
                    total_satellites=len(shell1_snapshot.constellation),
                    cache_fraction=fraction,
                    seed=9,
                ),
            )
            return float(np.median([model.one_way_ms(u) for u in users]))

        assert median_latency(0.1) > median_latency(0.9)

    def test_mismatched_fleet_size_rejected(self, shell1_snapshot):
        with pytest.raises(ConfigurationError):
            DutyCycleLatencyModel(
                snapshot=shell1_snapshot,
                scheduler=DutyCycleScheduler(total_satellites=10, cache_fraction=0.5),
            )

    def test_requests_always_served_in_space(self, shell1_snapshot):
        # With unbounded hops and a non-empty cache set, Fig. 8's premise is
        # that no request falls back to the ground.
        from repro.spacecdn.lookup import LookupSource

        model = DutyCycleLatencyModel(
            snapshot=shell1_snapshot,
            scheduler=DutyCycleScheduler(
                total_satellites=len(shell1_snapshot.constellation),
                cache_fraction=0.3,
            ),
        )
        for lon in (-120.0, -60.0, 0.0, 60.0, 120.0):
            result = model.lookup(GeoPoint(20.0, lon))
            assert result.source is not LookupSource.GROUND


class TestFaultsOverDutyCycle:
    def test_failed_satellites_leave_cache_rotation(self, shell1_snapshot):
        scheduler = DutyCycleScheduler(
            total_satellites=len(shell1_snapshot.constellation),
            cache_fraction=0.5,
            seed=0,
        )
        failed = frozenset(scheduler.active_caches_at(0.0))
        model = DutyCycleLatencyModel(
            snapshot=shell1_snapshot, scheduler=scheduler, failed=failed
        )
        # Every slot-0 cache failed: the active set must be disjoint from it.
        assert model._active_caches() == frozenset()

    def test_failed_access_satellite_rehomes_user(self, shell1_snapshot):
        import numpy as np

        from repro.orbits.visibility import (
            nearest_visible_satellite,
            nearest_visible_satellites,
        )

        user = GeoPoint(0.0, 0.0, 0.0)
        nearest = nearest_visible_satellite(
            shell1_snapshot.constellation, user, 0.0
        )
        scheduler = DutyCycleScheduler(
            total_satellites=len(shell1_snapshot.constellation),
            cache_fraction=0.9,
            seed=0,
        )
        model = DutyCycleLatencyModel(
            snapshot=shell1_snapshot,
            scheduler=scheduler,
            failed=frozenset({nearest.index}),
        )
        result = model.lookup(user)
        assert result.serving_satellite != nearest.index or result.isl_hops > 0
        batch = model.one_way_ms_batch(
            [user],
            nearest_visible_satellites(
                shell1_snapshot.constellation, [user], shell1_snapshot.t_s
            ),
        )
        assert np.isfinite(batch).all()


def _fig8_models(snapshot, **kwargs):
    """One duty-cycle model per Fig. 8 cache fraction."""
    from repro.experiments.figure8 import CACHE_FRACTIONS

    return [
        DutyCycleLatencyModel(
            snapshot=snapshot,
            scheduler=DutyCycleScheduler(
                total_satellites=len(snapshot.constellation),
                cache_fraction=fraction,
                seed=5,
            ),
            **kwargs,
        )
        for fraction in CACHE_FRACTIONS
    ]


class TestScalarBatchAgreement:
    """``one_way_ms`` and ``one_way_ms_batch`` run one resolver: they agree
    float for float, not just approximately."""

    @pytest.fixture(scope="class")
    def users(self):
        from repro.simulation.sampler import seeded_rng, user_sample_points

        return user_sample_points(seeded_rng(5, 0xF18, 0), 20)

    def _assert_exact(self, model, users):
        from repro.orbits.visibility import nearest_visible_satellites

        batch = model.one_way_ms_batch(
            users,
            nearest_visible_satellites(
                model.snapshot.constellation, users, model.snapshot.t_s
            ),
        )
        assert batch.shape == (len(users),)
        for i, user in enumerate(users):
            assert model.one_way_ms(user) == batch[i]

    def test_healthy(self, shell1_snapshot, users):
        for model in _fig8_models(shell1_snapshot):
            self._assert_exact(model, users)

    def test_failed_access_satellites_rehome(self, shell1_snapshot, users):
        from repro.orbits.visibility import nearest_visible_satellites

        access, _ = nearest_visible_satellites(
            shell1_snapshot.constellation, users, shell1_snapshot.t_s
        )
        failed = frozenset(int(a) for a in access[::2])
        for model in _fig8_models(shell1_snapshot, failed=failed):
            results = [model.lookup(user) for user in users]
            assert all(r.access_satellite not in failed for r in results)
            self._assert_exact(model, users)

    def test_small_max_hops_falls_back_to_ground(self, shell1_snapshot, users):
        from repro.spacecdn.lookup import LookupSource

        for model in _fig8_models(shell1_snapshot, max_hops=1):
            sources = {model.lookup(user).source for user in users}
            if model.scheduler.cache_fraction < 0.5:
                assert LookupSource.GROUND in sources
            self._assert_exact(model, users)


def test_figure8_obs_counts_lookup_sources(tmp_path, monkeypatch):
    """Every Fig. 8 lookup is counted under its LookupSource value:
    20 users x 5 epochs x 3 fractions at the CLI defaults."""
    import contextlib
    import io
    import re

    from repro.cli import main
    from repro.obs.recorder import reset_recorder
    from repro.spacecdn.lookup import LookupSource

    monkeypatch.chdir(tmp_path)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            assert main(["run", "figure8", "--obs"]) == 0
    finally:
        reset_recorder()
    counts = {
        source: float(n)
        for source, n in re.findall(
            r'^repro_dutycycle_lookups_total\{source="([^"]+)"\} (\S+)$',
            (tmp_path / "obs-metrics.prom").read_text(),
            flags=re.M,
        )
    }
    assert counts
    assert set(counts) <= {source.value for source in LookupSource}
    assert sum(counts.values()) == 300
