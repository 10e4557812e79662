"""Tests for the per-region Zipf request popularity model."""

import numpy as np
import pytest

from repro.cdn.content import build_catalog
from repro.errors import ConfigurationError
from repro.workloads.regional import RegionalPopularity


@pytest.fixture
def catalog():
    # Three regions plus a global share, web/news objects only.
    return build_catalog(
        np.random.default_rng(0),
        400,
        regions=("europe", "africa", "south-america"),
        global_fraction=0.2,
        kind_weights={"web": 0.6, "news": 0.4},
    )


@pytest.fixture
def popularity(catalog):
    return RegionalPopularity(catalog=catalog, seed=1)


class TestRegionalPopularity:
    def test_regions_listed(self, popularity):
        assert popularity.regions() == ["africa", "europe", "south-america"]

    def test_samples_belong_to_region_or_global_mostly(self, catalog, popularity):
        hits = 0
        n = 300
        for _ in range(n):
            object_id = popularity.sample("europe")
            region = catalog.get(object_id).region
            if region in ("europe", "global"):
                hits += 1
        assert hits / n > 0.9

    def test_top_objects_stable(self, popularity):
        assert popularity.top_objects("europe", 10) == popularity.top_objects("europe", 10)

    def test_zipf_skew_concentrates_requests(self, popularity):
        from collections import Counter

        counts = Counter(popularity.sample("africa") for _ in range(2000))
        top10 = sum(c for _, c in counts.most_common(10))
        assert top10 / 2000 > 0.15

    def test_unknown_region_rejected(self, popularity):
        with pytest.raises(ConfigurationError):
            popularity.top_objects("atlantis", 5)

    def test_invalid_config_rejected(self, catalog):
        with pytest.raises(ConfigurationError):
            RegionalPopularity(catalog=catalog, zipf_s=0.0)
        with pytest.raises(ConfigurationError):
            RegionalPopularity(catalog=catalog, cross_region_fraction=1.0)
