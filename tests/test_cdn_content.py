"""Tests for content objects and catalogs."""

import numpy as np
import pytest

from repro.cdn.content import Catalog, ContentObject, build_catalog
from repro.errors import ConfigurationError, ContentNotFoundError


class TestContentObject:
    def test_valid_object(self):
        obj = ContentObject("a", 100, "web", "europe")
        assert obj.size_bytes == 100

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ContentObject("a", 0)
        with pytest.raises(ConfigurationError):
            ContentObject("a", -5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ContentObject("a", 100, kind="hologram")

    def test_frozen(self):
        obj = ContentObject("a", 100)
        with pytest.raises(AttributeError):
            obj.size_bytes = 200


class TestCatalog:
    def test_add_and_get(self):
        catalog = Catalog()
        obj = ContentObject("a", 100)
        catalog.add(obj)
        assert catalog.get("a") is obj
        assert "a" in catalog
        assert len(catalog) == 1

    def test_duplicate_id_rejected(self):
        catalog = Catalog()
        catalog.add(ContentObject("a", 100))
        with pytest.raises(ConfigurationError):
            catalog.add(ContentObject("a", 200))

    def test_missing_raises(self):
        with pytest.raises(ContentNotFoundError):
            Catalog().get("nope")

    def test_by_region_includes_global(self, small_catalog):
        europe = small_catalog.by_region("europe")
        ids = {o.object_id for o in europe}
        assert any(i.startswith("eu-") for i in ids)
        assert any(i.startswith("g-") for i in ids)
        assert not any(i.startswith("af-") for i in ids)

    def test_iteration(self, small_catalog):
        assert len(list(small_catalog)) == len(small_catalog)


class TestBuildCatalog:
    def test_size(self):
        rng = np.random.default_rng(0)
        catalog = build_catalog(rng, 100)
        assert len(catalog) == 100

    def test_regions_assigned(self):
        rng = np.random.default_rng(1)
        catalog = build_catalog(
            rng, 300, regions=("europe", "africa"), global_fraction=0.3
        )
        regions = {o.region for o in catalog}
        assert regions == {"europe", "africa", "global"}

    def test_global_fraction_roughly_respected(self):
        rng = np.random.default_rng(2)
        catalog = build_catalog(rng, 1000, regions=("x",), global_fraction=0.4)
        global_count = sum(1 for o in catalog if o.region == "global")
        assert 320 < global_count < 480

    def test_all_sizes_positive(self):
        rng = np.random.default_rng(3)
        assert all(o.size_bytes > 0 for o in build_catalog(rng, 200))

    def test_video_segments_bigger_than_web_on_median(self):
        rng = np.random.default_rng(4)
        catalog = build_catalog(rng, 2000)
        webs = [o.size_bytes for o in catalog if o.kind == "web"]
        videos = [o.size_bytes for o in catalog if o.kind == "video-segment"]
        assert np.median(videos) > np.median(webs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_objects": 0},
            {"global_fraction": 1.5},
            {"regions": ()},
            {"kind_weights": {"web": -1.0, "news": 2.0}},
        ],
    )
    def test_invalid_args_rejected(self, kwargs):
        base = dict(num_objects=10, regions=("x",), global_fraction=0.5)
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            build_catalog(np.random.default_rng(0), **base)

    def test_deterministic_for_seed(self):
        a = build_catalog(np.random.default_rng(7), 50)
        b = build_catalog(np.random.default_rng(7), 50)
        assert [o.size_bytes for o in a] == [o.size_bytes for o in b]
