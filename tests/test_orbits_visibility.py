"""Tests for visibility computation."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VisibilityError
from repro.experiments.shells import small_constellation
from repro.geo.coordinates import GeoPoint
from repro.orbits import visibility
from repro.orbits.elements import all_shell_presets
from repro.orbits.visibility import (
    coverage_fraction,
    elevations_deg,
    max_slant_range_km,
    nearest_visible_satellite,
    nearest_visible_satellites,
    slant_ranges_km,
    visible_satellites,
    visible_satellites_batch,
)
from repro.orbits.walker import build_walker_delta
from visibility_reference import dense_view, usable_order


class TestElevations:
    def test_shape(self, small_constellation, equator_point):
        elevations = elevations_deg(small_constellation, equator_point, 0.0)
        assert elevations.shape == (len(small_constellation),)

    def test_range(self, small_constellation, equator_point):
        elevations = elevations_deg(small_constellation, equator_point, 0.0)
        assert np.all(elevations >= -90.0)
        assert np.all(elevations <= 90.0)

    def test_most_satellites_below_horizon(self, small_constellation, equator_point):
        # From any point, the majority of a LEO shell is below the horizon.
        elevations = elevations_deg(small_constellation, equator_point, 0.0)
        assert np.mean(elevations < 0) > 0.5


class TestSlantRanges:
    def test_minimum_at_least_altitude(self, shell1_constellation, equator_point):
        ranges = slant_ranges_km(shell1_constellation, equator_point, 0.0)
        assert ranges.min() >= 550.0 - 1.0

    def test_maximum_bounded_by_geometry(self, shell1_constellation, equator_point):
        ranges = slant_ranges_km(shell1_constellation, equator_point, 0.0)
        # No satellite can be farther than Earth diameter + orbit diameter.
        assert ranges.max() < 2 * (6371.0 + 550.0) + 1.0


class TestVisibleSatellites:
    def test_sorted_by_range(self, shell1_constellation, equator_point):
        visible = visible_satellites(shell1_constellation, equator_point, 0.0)
        ranges = [v.slant_range_km for v in visible]
        assert ranges == sorted(ranges)

    def test_all_above_min_elevation(self, shell1_constellation, equator_point):
        visible = visible_satellites(
            shell1_constellation, equator_point, 0.0, min_elevation_deg=25.0
        )
        assert all(v.elevation_deg >= 25.0 for v in visible)

    def test_lower_threshold_sees_more(self, shell1_constellation, equator_point):
        strict = visible_satellites(
            shell1_constellation, equator_point, 0.0, min_elevation_deg=40.0
        )
        loose = visible_satellites(
            shell1_constellation, equator_point, 0.0, min_elevation_deg=10.0
        )
        assert len(loose) > len(strict)

    def test_range_within_elevation_bound(self, shell1_constellation, equator_point):
        visible = visible_satellites(
            shell1_constellation, equator_point, 0.0, min_elevation_deg=25.0
        )
        bound = max_slant_range_km(550.0, 25.0)
        assert all(v.slant_range_km <= bound + 1.0 for v in visible)

    def test_high_latitude_point_sees_nothing_in_53deg_shell(self, shell1_constellation):
        # Far above the inclination limit there is no coverage at 25 deg.
        svalbard = GeoPoint(78.2, 15.6, 0.0)
        assert visible_satellites(shell1_constellation, svalbard, 0.0) == []


class TestNearestVisible:
    def test_equator_always_served_by_shell1(self, shell1_constellation, equator_point):
        nearest = nearest_visible_satellite(shell1_constellation, equator_point, 0.0)
        assert nearest.elevation_deg >= 25.0
        assert nearest.slant_range_km < max_slant_range_km(550.0, 25.0) + 1.0

    def test_no_visibility_raises(self, shell1_constellation):
        svalbard = GeoPoint(78.2, 15.6, 0.0)
        with pytest.raises(VisibilityError):
            nearest_visible_satellite(shell1_constellation, svalbard, 0.0)

    def test_nearest_is_first_of_visible(self, shell1_constellation, equator_point):
        nearest = nearest_visible_satellite(shell1_constellation, equator_point, 0.0)
        visible = visible_satellites(shell1_constellation, equator_point, 0.0)
        assert nearest == visible[0]


class TestCoverage:
    def test_shell1_equator_continuous_coverage(self, shell1_constellation, equator_point):
        fraction = coverage_fraction(
            shell1_constellation, equator_point, duration_s=600.0, step_s=60.0
        )
        assert fraction == 1.0

    def test_invalid_duration_raises(self, shell1_constellation, equator_point):
        with pytest.raises(VisibilityError):
            coverage_fraction(shell1_constellation, equator_point, duration_s=0.0)


class TestMaxSlantRange:
    def test_zenith_limit(self):
        assert max_slant_range_km(550.0, 90.0) == pytest.approx(550.0, abs=1.0)

    def test_horizon_much_farther(self):
        assert max_slant_range_km(550.0, 0.0) > 2000.0

    def test_monotone_in_elevation(self):
        ranges = [max_slant_range_km(550.0, e) for e in (0.0, 25.0, 50.0, 90.0)]
        assert ranges == sorted(ranges, reverse=True)

    def test_starlink_25deg_value(self):
        # Known geometry: ~1120 km max slant at 25 deg for a 550 km shell.
        assert max_slant_range_km(550.0, 25.0) == pytest.approx(1120, rel=0.05)


@lru_cache(maxsize=None)
def _shell(name: str):
    if name == "smoke-shell":
        return small_constellation()
    return build_walker_delta(next(s for s in all_shell_presets() if s.name == name))


_SHELL_NAMES = tuple(s.name for s in all_shell_presets()) + ("smoke-shell",)

_POINTS = st.builds(
    GeoPoint,
    st.one_of(
        st.sampled_from([-90.0, 90.0, 0.0]),
        st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
    ),
    st.one_of(
        st.sampled_from([-180.0, 180.0, 179.999999, -179.999999]),
        st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
    ),
    # Aircraft and mountain terminals sit above the surface; below-surface
    # points are admissible GeoPoints and the cone must hold for them too.
    st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
        st.floats(min_value=-1000.0, max_value=0.0, allow_nan=False),
    ),
)


def _assert_elevations_close(got, reference) -> None:
    """Elevations to 1e-9 deg, except within 0.1 deg of zenith.

    The zenith cosine is an elementwise dot in the library and a BLAS
    matvec in the reference, so the two may differ in the last bit; arccos
    turns one ulp of a cosine next to 1 into ~1e-8 deg. Near zenith the
    cosines themselves (the sine of the elevation) must agree instead.
    """
    got = np.asarray(got, dtype=float)
    reference = np.asarray(reference, dtype=float)
    assert got.shape == reference.shape
    steep = reference > 89.9
    np.testing.assert_allclose(got[~steep], reference[~steep], rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(
        np.sin(np.radians(got)), np.sin(np.radians(reference)), rtol=0.0, atol=1e-15
    )


class TestAgainstDenseReference:
    """Every public function against the dense per-point formula
    (``tests/visibility_reference.py``): same satellites in the same order,
    slant ranges bit for bit, elevations to 1e-9 deg away from zenith
    (:func:`_assert_elevations_close`), and the cone cull drops only
    satellites at least a degree below the mask."""

    @given(
        st.sampled_from(_SHELL_NAMES),
        st.floats(min_value=0.0, max_value=172_800.0, allow_nan=False),
        st.lists(_POINTS, min_size=1, max_size=6),
        st.sampled_from([0.0, 10.0, 25.0, 40.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_reference(self, shell, t_s, points, mask):
        constellation = _shell(shell)
        batch = visible_satellites_batch(constellation, points, t_s, mask)
        assert batch.num_points == len(points)
        firsts = []
        for p, point in enumerate(points):
            elevations, ranges = dense_view(constellation, point, t_s)
            order = usable_order(elevations, ranges, mask)
            for view in (
                batch.visible_list(p),
                visible_satellites(constellation, point, t_s, mask),
            ):
                assert [s.index for s in view] == order.tolist()
                assert [s.slant_range_km for s in view] == ranges[order].tolist()
                _assert_elevations_close(
                    [s.elevation_deg for s in view], elevations[order]
                )
            assert np.array_equal(slant_ranges_km(constellation, point, t_s), ranges)
            _assert_elevations_close(
                elevations_deg(constellation, point, t_s), elevations
            )
            if order.size:
                nearest = nearest_visible_satellite(constellation, point, t_s, mask)
                assert nearest.index == order[0]
                assert nearest.slant_range_km == ranges[order[0]]
                firsts.append((order[0], ranges[order[0]]))
            else:
                with pytest.raises(VisibilityError):
                    nearest_visible_satellite(constellation, point, t_s, mask)
        if len(firsts) == len(points):
            indices, slant = nearest_visible_satellites(
                constellation, points, t_s, mask
            )
            assert indices.tolist() == [i for i, _ in firsts]
            assert slant.tolist() == [r for _, r in firsts]
        else:
            with pytest.raises(VisibilityError):
                nearest_visible_satellites(constellation, points, t_s, mask)

        sat = constellation.positions_ecef(t_s)
        obs, radius = visibility._observers(points)
        cone = visibility._cone_cos(radius, constellation.orbit_radius_km, mask)
        inside = (obs @ sat.T) >= (radius * constellation.orbit_radius_km * cone)[
            :, None
        ]
        for p, point in enumerate(points):
            elevations, _ = dense_view(constellation, point, t_s)
            assert np.all(elevations[~inside[p]] < mask - 1.0)


class TestPositionsCache:
    def test_same_instant_returns_the_read_only_array(self, small_constellation):
        first = small_constellation.positions_ecef(30.0)
        again = small_constellation.positions_ecef(30.0)
        assert again is first
        with pytest.raises(ValueError):
            again[0, 0] = 0.0

    def test_new_instant_recomputes(self, small_constellation):
        first = small_constellation.positions_ecef(30.0).copy()
        later = small_constellation.positions_ecef(90.0)
        assert not np.array_equal(later, first)
        fresh = build_walker_delta(small_constellation.config)
        assert np.array_equal(later, fresh.positions_ecef(90.0))
        assert np.array_equal(small_constellation.positions_ecef(30.0), first)
