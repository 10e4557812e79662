"""Tests for failure injection and placement resilience."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.errors import ConfigurationError, PlacementError
from repro.spacecdn.placement import KPerPlanePlacement
from repro.spacecdn.resilience import (
    fail_satellites,
    placement_under_failures,
    random_failure_set,
)
from serve_reference import has_satellite


class TestFailSatellites:
    def test_nodes_removed(self, small_snapshot):
        degraded = fail_satellites(small_snapshot, frozenset({0, 1, 2}))
        assert not has_satellite(degraded, 0)
        assert len(degraded.satellite_nodes()) == len(
            small_snapshot.satellite_nodes()
        ) - 3

    def test_original_untouched(self, small_snapshot):
        before = len(small_snapshot.satellite_nodes())
        fail_satellites(small_snapshot, frozenset({0}))
        assert len(small_snapshot.satellite_nodes()) == before

    def test_unknown_satellite_rejected(self, small_snapshot):
        with pytest.raises(ConfigurationError):
            fail_satellites(small_snapshot, frozenset({10_000}))

    def test_empty_failure_is_identity(self, small_snapshot):
        degraded = fail_satellites(small_snapshot, frozenset())
        assert degraded.satellite_nodes() == small_snapshot.satellite_nodes()
        assert degraded.active_mask is None

    def test_original_failed_and_mask_unchanged(self, small_snapshot):
        """Repeated failure injections leave the source snapshot's failure
        set and liveness mask as they were, and share its CSR core."""
        base = fail_satellites(small_snapshot, frozenset({5}))
        mask_before = base.active_mask.copy()
        first = fail_satellites(base, frozenset({0, 1}))
        second = fail_satellites(base, frozenset({2}))
        assert base.failed == frozenset({5})
        np.testing.assert_array_equal(base.active_mask, mask_before)
        assert first.failed == frozenset({0, 1, 5})
        assert second.failed == frozenset({2, 5})
        assert first.core is second.core is small_snapshot.core
        with pytest.raises(FrozenInstanceError):
            first.failed = frozenset()


class TestRandomFailureSet:
    def test_size(self):
        rng = np.random.default_rng(0)
        failed = random_failure_set(100, 0.3, rng)
        assert len(failed) == 30

    def test_zero_fraction_empty(self):
        rng = np.random.default_rng(1)
        assert random_failure_set(100, 0.0, rng) == frozenset()

    def test_invalid_fraction(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ConfigurationError):
            random_failure_set(100, 1.0, rng)
        with pytest.raises(ConfigurationError):
            random_failure_set(100, -0.1, rng)

    def test_deterministic_per_seed(self):
        a = random_failure_set(100, 0.2, np.random.default_rng(3))
        b = random_failure_set(100, 0.2, np.random.default_rng(3))
        assert a == b


class TestPlacementUnderFailures:
    def test_no_failures_matches_healthy_profile(self, shell1_snapshot, shell1):
        holders = KPerPlanePlacement(copies_per_plane=4).place_object("x", shell1)
        report = placement_under_failures(shell1_snapshot, holders, frozenset())
        assert report.failed_fraction == 0.0
        assert report.surviving_replicas == len(holders)
        assert report.reachable_fraction == 1.0
        assert report.worst_case_hops <= 5  # the paper's §4 bound

    def test_paper_placement_survives_10pct_failures(self, shell1_snapshot, shell1):
        holders = KPerPlanePlacement(copies_per_plane=4).place_object("x", shell1)
        failed = random_failure_set(1584, 0.10, np.random.default_rng(4))
        report = placement_under_failures(shell1_snapshot, holders, failed)
        assert report.reachable_fraction == 1.0
        # Graceful degradation: a couple of extra hops at worst.
        assert report.worst_case_hops <= 9

    def test_degradation_monotone_in_failures(self, shell1_snapshot, shell1):
        holders = KPerPlanePlacement(copies_per_plane=2).place_object("x", shell1)
        rng = np.random.default_rng(5)
        mean_hops = []
        for fraction in (0.0, 0.2, 0.4):
            failed = random_failure_set(1584, fraction, rng)
            report = placement_under_failures(shell1_snapshot, holders, failed)
            mean_hops.append(report.mean_hops)
        assert mean_hops[0] <= mean_hops[1] <= mean_hops[2] * 1.05

    def test_all_replicas_failed(self, small_snapshot):
        holders = frozenset({0, 1})
        report = placement_under_failures(small_snapshot, holders, frozenset({0, 1}))
        assert report.surviving_replicas == 0
        assert report.reachable_fraction == 0.0
        assert report.worst_case_hops == -1

    def test_empty_holders_rejected(self, small_snapshot):
        with pytest.raises(PlacementError):
            placement_under_failures(small_snapshot, frozenset(), frozenset())

    def test_failed_replica_not_counted(self, small_snapshot):
        holders = frozenset({0, 10, 20})
        report = placement_under_failures(small_snapshot, holders, frozenset({0}))
        assert report.surviving_replicas == 2
