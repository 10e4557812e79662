"""Tests for workload generation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads_reference
from repro.cdn.content import build_catalog
from repro.errors import ConfigurationError
from repro.experiments.shells import sweep_catalog, sweep_requests
from repro.geo.datasets.cities import city_by_name
from repro.workloads.regional import (
    RegionalPopularity,
    RegionalRequestMixer,
    region_of_city,
)
from repro.workloads.requests import RequestGenerator


@pytest.fixture
def mixer():
    catalog = build_catalog(
        np.random.default_rng(0),
        300,
        regions=("europe", "africa"),
        global_fraction=0.2,
        kind_weights={"web": 1.0},
    )
    popularity = RegionalPopularity(catalog=catalog, seed=2)
    return RegionalRequestMixer(popularity=popularity, rng=np.random.default_rng(3))


class TestRegionalMixer:
    def test_region_of_city(self):
        assert region_of_city(city_by_name("Maputo")) == "africa"
        assert region_of_city(city_by_name("Berlin")) == "europe"

    def test_samples_for_home_region(self, mixer):
        maputo = city_by_name("Maputo")
        ids = [mixer.sample_for_city(maputo) for _ in range(200)]
        regions = [mixer.popularity.catalog.get(i).region for i in ids]
        africa_share = sum(1 for r in regions if r in ("africa", "global")) / len(regions)
        assert africa_share > 0.85

    def test_city_without_modelled_region_falls_back(self, mixer):
        tokyo = city_by_name("Tokyo")  # "asia" is not in the 2-region catalog
        ids = [mixer.sample_for_city(tokyo) for _ in range(20)]
        regions = {mixer.popularity.catalog.get(i).region for i in ids}
        assert regions <= {"europe", "africa", "global"}


class TestRequestGenerator:
    def test_stream_ordered_and_bounded(self, mixer):
        cities = (city_by_name("Maputo"), city_by_name("Berlin"))
        generator = RequestGenerator(
            cities=cities,
            mixer=mixer,
            requests_per_second_total=50.0,
            rng=np.random.default_rng(4),
        )
        requests = generator.generate_list(10.0)
        times = [r.t_s for r in requests]
        assert times == sorted(times)
        assert all(0.0 <= t < 10.0 for t in times)
        # ~500 expected arrivals.
        assert 350 < len(requests) < 700

    def test_population_weighting(self, mixer):
        big = city_by_name("Lagos")  # 15.4 M
        small = city_by_name("Mbabane")  # 0.1 M
        generator = RequestGenerator(
            cities=(big, small),
            mixer=mixer,
            requests_per_second_total=100.0,
            rng=np.random.default_rng(5),
        )
        requests = generator.generate_list(20.0)
        lagos = sum(1 for r in requests if r.city.name == "Lagos")
        assert lagos / len(requests) > 0.9

    def test_invalid_config(self, mixer):
        with pytest.raises(ConfigurationError):
            RequestGenerator(cities=(), mixer=mixer)
        with pytest.raises(ConfigurationError):
            RequestGenerator(
                cities=(city_by_name("Lagos"),),
                mixer=mixer,
                requests_per_second_total=0.0,
            )

    def test_invalid_duration(self, mixer):
        generator = RequestGenerator(cities=(city_by_name("Lagos"),), mixer=mixer)
        with pytest.raises(ConfigurationError):
            generator.generate_list(0.0)


# (catalog, mixer, stream) salts of the two request-level sweeps.
SWEEP_SALTS = {
    "chaos": (0xC4A07, 0xC4A05, 0xC4A06),
    "overload": (0x0BAD2, 0x0BAD0, 0x0BAD1),
}


class TestDrawForDraw:
    """The sweeps' catalog, preload and request stream equal the
    one-``choice(p=)``-per-draw reference in ``workloads_reference``."""

    @pytest.mark.parametrize("sweep", sorted(SWEEP_SALTS))
    @pytest.mark.parametrize("seed", range(1, 21))
    def test_sweep_setup_equals_reference(self, sweep, seed, shell1_constellation):
        catalog_salt, mixer_salt, stream_salt = SWEEP_SALTS[sweep]
        catalog, preload = sweep_catalog(seed, catalog_salt, shell1_constellation)
        ref_catalog, ref_preload = workloads_reference.sweep_catalog(
            seed, catalog_salt, shell1_constellation
        )
        assert list(catalog.objects.items()) == list(ref_catalog.objects.items())
        assert list(preload.items()) == list(ref_preload.items())
        for num_requests in (1, 2, 37, 150, 283, 600):
            requests = sweep_requests(
                catalog, num_requests, seed, mixer_salt, stream_salt
            )
            assert requests == workloads_reference.sweep_requests(
                catalog, num_requests, seed, mixer_salt, stream_salt
            )


SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py")
)


@pytest.mark.parametrize("module", [*PACKAGES, "repro.cdn.cache"])
def test_module_imports_first_in_a_fresh_interpreter(module):
    """Every package (and the cache module) imports as the first ``repro``
    import of a process, so no package reaches back into one that is
    still initialising: spacecdn.system names workloads.requests only for
    annotations, and workloads.regional imports spacecdn.placement only
    inside the function that needs it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)
