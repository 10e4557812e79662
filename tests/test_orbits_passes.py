"""Tests for pass prediction."""

import pytest

from repro.errors import VisibilityError
from repro.geo.coordinates import GeoPoint
from repro.orbits.passes import predict_passes


@pytest.fixture(scope="module")
def equator_passes(shell1_constellation):
    point = GeoPoint(0.0, 0.0, 0.0)
    return predict_passes(
        shell1_constellation, point, start_s=0.0, duration_s=1800.0, step_s=15.0
    )


class TestPredictPasses:
    def test_passes_exist(self, equator_passes):
        assert len(equator_passes) > 0

    def test_sorted_by_start(self, equator_passes):
        starts = [p.start_s for p in equator_passes]
        assert starts == sorted(starts)

    def test_durations_match_paper_window(self, equator_passes):
        # The paper: a satellite leaves line-of-sight within 5-10 minutes.
        # Count only passes fully inside the scan window (not clipped).
        interior = [
            p for p in equator_passes if p.start_s > 0.0 and p.end_s < 1800.0 - 15.0
        ]
        assert interior, "expected at least one unclipped pass"
        for p in interior:
            assert p.duration_s <= 11 * 60

    def test_max_elevation_at_least_threshold(self, equator_passes):
        assert all(p.max_elevation_deg >= 25.0 for p in equator_passes)

    def test_invalid_duration_raises(self, shell1_constellation):
        with pytest.raises(VisibilityError):
            predict_passes(shell1_constellation, GeoPoint(0.0, 0.0), 0.0, -5.0)

    def test_no_passes_outside_coverage(self, shell1_constellation):
        svalbard = GeoPoint(78.2, 15.6, 0.0)
        passes = predict_passes(shell1_constellation, svalbard, 0.0, 600.0, step_s=60.0)
        assert passes == []
