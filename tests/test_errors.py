"""Tests for the exception hierarchy contract."""

import pytest

from repro import errors


ALL_ERRORS = (
    errors.ConfigurationError,
    errors.GeodesyError,
    errors.RoutingError,
    errors.VisibilityError,
    errors.CacheError,
    errors.ContentNotFoundError,
    errors.DatasetError,
    errors.PlacementError,
    errors.RunnerError,
    errors.CheckpointError,
    errors.ManifestMismatchError,
    errors.DeadlineExceededError,
    errors.ShardQuarantinedError,
    errors.RunInterruptedError,
)

RUNNER_ERRORS = (
    errors.CheckpointError,
    errors.ManifestMismatchError,
    errors.DeadlineExceededError,
    errors.ShardQuarantinedError,
    errors.RunInterruptedError,
)


class TestHierarchy:
    @pytest.mark.parametrize("error_cls", ALL_ERRORS)
    def test_derives_from_repro_error(self, error_cls):
        assert issubclass(error_cls, errors.ReproError)

    @pytest.mark.parametrize("error_cls", ALL_ERRORS)
    def test_catchable_as_repro_error(self, error_cls):
        with pytest.raises(errors.ReproError):
            raise error_cls("boom")

    def test_repro_error_is_exception_not_base_exception_only(self):
        assert issubclass(errors.ReproError, Exception)

    @pytest.mark.parametrize("error_cls", RUNNER_ERRORS)
    def test_runner_errors_derive_from_runner_error(self, error_cls):
        assert issubclass(error_cls, errors.RunnerError)

    def test_library_raises_only_repro_errors_for_bad_input(self):
        """A caller wrapping library calls in ``except ReproError`` must not
        see bare ValueError/KeyError for domain-level misuse."""
        from repro.geo.coordinates import GeoPoint
        from repro.geo.datasets.cities import city_by_name

        with pytest.raises(errors.ReproError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(errors.ReproError):
            city_by_name("Narnia")
