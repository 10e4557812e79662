"""Tests for workload generation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cdn.content import build_catalog
from repro.errors import ConfigurationError
from repro.geo.datasets import city_by_name
from repro.spacecdn.bubbles import RegionalPopularity
from repro.workloads.regional import RegionalRequestMixer, region_of_city
from repro.workloads.requests import RequestGenerator
from repro.workloads.zipf import ZipfDistribution


class TestZipf:
    def test_pmf_sums_to_one(self):
        zipf = ZipfDistribution(n=100, s=0.9)
        assert sum(zipf.pmf(k) for k in range(1, 101)) == pytest.approx(1.0)

    def test_pmf_monotone_decreasing(self):
        zipf = ZipfDistribution(n=50, s=1.0)
        probs = [zipf.pmf(k) for k in range(1, 51)]
        assert probs == sorted(probs, reverse=True)

    def test_rank_one_most_likely(self):
        zipf = ZipfDistribution(n=100, s=0.9, rng=np.random.default_rng(0))
        samples = zipf.sample_many(5000)
        counts = np.bincount(samples, minlength=101)
        assert counts[1] == counts[1:].max()

    def test_samples_in_range(self):
        zipf = ZipfDistribution(n=10, s=0.7, rng=np.random.default_rng(1))
        samples = zipf.sample_many(1000)
        assert samples.min() >= 1
        assert samples.max() <= 10

    def test_head_mass_increases(self):
        zipf = ZipfDistribution(n=100, s=0.9)
        assert zipf.head_mass(10) < zipf.head_mass(50) < zipf.head_mass(100)
        assert zipf.head_mass(100) == pytest.approx(1.0)

    def test_higher_s_more_skew(self):
        mild = ZipfDistribution(n=100, s=0.5)
        steep = ZipfDistribution(n=100, s=1.5)
        assert steep.head_mass(5) > mild.head_mass(5)

    @pytest.mark.parametrize("kwargs", [{"n": 0}, {"s": 0.0}, {"s": -1.0}])
    def test_invalid_config(self, kwargs):
        base = dict(n=10, s=0.9)
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            ZipfDistribution(**base)

    def test_pmf_out_of_range(self):
        zipf = ZipfDistribution(n=10)
        with pytest.raises(ConfigurationError):
            zipf.pmf(0)
        with pytest.raises(ConfigurationError):
            zipf.pmf(11)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfDistribution(n=10).sample_many(-1)


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
        ids = mixer.stream_for_city(maputo, 200)
        regions = [mixer.popularity.catalog.get(i).region for i in ids]
        africa_share = sum(1 for r in regions if r in ("africa", "global")) / len(regions)
        assert africa_share > 0.85

    def test_city_without_modelled_region_falls_back(self, mixer):
        tokyo = city_by_name("Tokyo")  # "asia" is not in the 2-region catalog
        ids = mixer.stream_for_city(tokyo, 20)
        assert len(ids) == 20

    def test_negative_count_rejected(self, mixer):
        with pytest.raises(ConfigurationError):
            mixer.stream_for_city(city_by_name("Maputo"), -1)


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


@pytest.mark.parametrize(
    "module", ["repro.workloads", "repro.workloads.zipf", "repro.cdn.cache"]
)
def test_module_imports_first_in_a_fresh_interpreter(module):
    """Each module imports as the first ``repro`` import of a process:
    spacecdn.system reaches workloads.requests only for annotations, so
    workloads -> regional -> spacecdn -> system does not cycle back."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True)
