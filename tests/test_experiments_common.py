"""Tests for the shared experiment infrastructure (``common`` and ``shells``)."""

from dataclasses import FrozenInstanceError

import pytest

from repro.experiments import common, shells


class TestShell1Caches:
    def test_constellation_cached(self):
        assert shells.shell1_constellation() is shells.shell1_constellation()

    def test_snapshot_cached_per_epoch(self):
        a = shells.shell1_snapshot(0.0)
        b = shells.shell1_snapshot(0.0)
        c = shells.shell1_snapshot(60.0)
        assert a is b
        assert c is not a

    def test_snapshot_fields_cannot_be_assigned(self):
        snapshot = shells.shell1_snapshot(0.0)
        with pytest.raises(FrozenInstanceError):
            snapshot.failed = frozenset({0})
        with pytest.raises(FrozenInstanceError):
            snapshot.t_s = 1.0

    def test_snapshot_positions_are_read_only(self):
        snapshot = shells.shell1_snapshot(0.0)
        with pytest.raises(ValueError):
            snapshot.positions[0, 0] = 0.0
        with pytest.raises(ValueError):
            snapshot.core.link_latency_ms[0] = 0.0

    def test_snapshot_matches_constellation(self):
        snapshot = shells.shell1_snapshot(0.0)
        assert len(snapshot.satellite_nodes()) == len(shells.shell1_constellation())


class TestAimCache:
    def test_dataset_cached_per_args(self):
        a = common.aim_dataset(1, 2)
        b = common.aim_dataset(1, 2)
        c = common.aim_dataset(2, 2)
        assert a is b
        assert c is not a

    def test_dataset_has_both_isps(self):
        from repro.measurements.aim import STARLINK, TERRESTRIAL

        dataset = common.aim_dataset(3, 1)
        assert dataset.rtts_by_country(TERRESTRIAL)
        assert dataset.rtts_by_country(STARLINK)


class TestEpochs:
    def test_count_and_range(self):
        epochs = shells.shell1_epochs(6, seed=1)
        period = shells.shell1_constellation().config.period_s
        assert len(epochs) == 6
        assert all(0.0 <= e < period for e in epochs)

    def test_deterministic(self):
        assert shells.shell1_epochs(4, seed=2) == shells.shell1_epochs(4, seed=2)

    def test_seed_changes_epochs(self):
        assert shells.shell1_epochs(4, seed=1) != shells.shell1_epochs(4, seed=3)


class TestFigureArgValidation:
    def test_figure7_invalid_args(self):
        from repro.errors import ConfigurationError
        from repro.experiments import figure7

        with pytest.raises(ConfigurationError):
            figure7.run(users_per_epoch=0)
        with pytest.raises(ConfigurationError):
            figure7.run(num_epochs=0)

    def test_figure8_invalid_args(self):
        from repro.errors import ConfigurationError
        from repro.experiments import figure8

        with pytest.raises(ConfigurationError):
            figure8.run(users_per_epoch=0)

    def test_figure4_invalid_rounds(self):
        from repro.errors import ConfigurationError
        from repro.experiments import figure4

        with pytest.raises(ConfigurationError):
            figure4.run(rounds=0)

    def test_figure5_invalid_rounds(self):
        from repro.errors import ConfigurationError
        from repro.experiments import figure5

        with pytest.raises(ConfigurationError):
            figure5.run(rounds=0)
