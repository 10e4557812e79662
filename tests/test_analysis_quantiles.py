"""Golden tests for the shared quantile helpers.

:mod:`repro.analysis.quantiles` is the single home of percentile
arithmetic: the exact-sample estimator backing ``analysis.stats`` and the
experiment sweeps. These tests pin it to hand-computed values so any
drift in a consolidation refactor is loud.
"""

import math

import pytest

from repro.analysis.quantiles import sample_quantile, sample_quantiles


class TestSampleQuantile:
    def test_median_of_odd_sample(self):
        assert sample_quantile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_median_interpolates_even_sample(self):
        assert sample_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    def test_extremes_are_min_and_max(self):
        data = [5.0, 1.0, 9.0]
        assert sample_quantile(data, 0.0) == 1.0
        assert sample_quantile(data, 1.0) == 9.0

    def test_linear_interpolation_golden(self):
        # Hyndman-Fan type 7 on 0..10: quantile q lands at index 10 * q.
        data = list(range(11))
        assert sample_quantile(data, 0.25) == 2.5
        assert sample_quantile(data, 0.95) == pytest.approx(9.5)

    def test_empty_sample_is_nan(self):
        assert math.isnan(sample_quantile([], 0.5))

    def test_single_sample_everywhere(self):
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert sample_quantile([7.0], q) == 7.0

    def test_order_free(self):
        data = [9.0, 2.0, 11.0, 4.0, 7.0]
        assert sample_quantile(data, 0.75) == sample_quantile(sorted(data), 0.75)

    def test_agrees_with_cdf_quantile(self):
        """Cdf.quantile is a thin wrapper over sample_quantile."""
        from repro.analysis.stats import Cdf

        cdf = Cdf.from_samples([3.0, 1.0, 4.0, 1.0, 5.0])
        assert cdf.quantile(0.5) == sample_quantile([3.0, 1.0, 4.0, 1.0, 5.0], 0.5)


class TestSampleQuantiles:
    def test_matches_scalar_helper(self):
        data = [4.0, 8.0, 15.0, 16.0, 23.0, 42.0]
        qs = (0.25, 0.5, 0.75, 0.95)
        assert sample_quantiles(data, qs) == tuple(
            sample_quantile(data, q) for q in qs
        )

    def test_empty_sample_is_all_nan(self):
        out = sample_quantiles([], (0.5, 0.9))
        assert len(out) == 2
        assert all(math.isnan(v) for v in out)
