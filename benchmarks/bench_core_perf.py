"""Micro-benchmarks of the simulation core.

These measure throughput of the hot paths (propagation, snapshot builds,
routing) so performance regressions in the substrate are visible. The
routing benchmarks cover both the vectorised CSR kernels (the production
path) and the networkx reference implementation in
``tests/topology_reference.py``, so the speedup ratio the refactor claims
stays measurable release over release.

Input streams cycle endlessly: pytest-benchmark calibrates its own round
count, so a finite iterator of "enough" draws would eventually raise
StopIteration mid-measurement on a fast machine.
"""

import itertools
import sys
from pathlib import Path

import numpy as np

from repro.geo.coordinates import GeoPoint
from repro.orbits.elements import starlink_shell1
from repro.orbits.visibility import nearest_visible_satellites, visible_satellites
from repro.orbits.walker import build_walker_delta
from repro.topology import fastcore
from repro.topology.graph import build_snapshot

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from topology_reference import (  # noqa: E402
    latency_by_hop_count_reference,
    networkx_view,
)


def test_propagate_shell1(benchmark):
    constellation = build_walker_delta(starlink_shell1())
    times = itertools.cycle(np.linspace(0.0, 5700.0, 1024))

    result = benchmark(lambda: constellation.positions_ecef(next(times)))
    assert result.shape == (1584, 3)


def test_visibility_query(benchmark):
    constellation = build_walker_delta(starlink_shell1())
    point = GeoPoint(10.0, 20.0)

    result = benchmark(lambda: visible_satellites(constellation, point, 0.0))
    assert result


def test_visibility_batch(benchmark):
    constellation = build_walker_delta(starlink_shell1())
    rng = np.random.default_rng(7)
    points = [
        GeoPoint(float(lat), float(lon))
        for lat, lon in zip(rng.uniform(-55, 55, 64), rng.uniform(-180, 179, 64))
    ]

    indices, ranges = benchmark(
        lambda: nearest_visible_satellites(constellation, points, 0.0)
    )
    assert indices.shape == ranges.shape == (64,)


def test_build_snapshot_shell1(benchmark):
    constellation = build_walker_delta(starlink_shell1())
    times = itertools.cycle(np.linspace(0.0, 5700.0, 1024))

    snapshot = benchmark(lambda: build_snapshot(constellation, float(next(times))))
    assert snapshot.core.topology.num_links == 2 * 1584


def test_hop_ladder_query(benchmark):
    constellation = build_walker_delta(starlink_shell1())
    snapshot = build_snapshot(constellation, 0.0)
    sources = itertools.cycle(np.random.default_rng(0).integers(0, 1584, size=1024))

    ladder = benchmark(
        lambda: fastcore.hop_ladder_batch(snapshot.core, [int(next(sources))], 10)[0]
    )
    assert ladder.shape == (11,) and not np.isnan(ladder).any()


def test_hop_ladder_query_reference(benchmark):
    """The pre-refactor networkx path, kept for the speedup ratio."""
    constellation = build_walker_delta(starlink_shell1())
    graph = networkx_view(build_snapshot(constellation, 0.0))
    sources = itertools.cycle(np.random.default_rng(0).integers(0, 1584, size=1024))

    ladder = benchmark(
        lambda: latency_by_hop_count_reference(graph, int(next(sources)), 10)
    )
    assert set(ladder) == set(range(11))


def test_latency_batch_64_sources(benchmark):
    constellation = build_walker_delta(starlink_shell1())
    core = build_snapshot(constellation, 0.0).core
    sources = np.random.default_rng(1).integers(0, 1584, size=64)

    latencies = benchmark(lambda: fastcore.latency_batch(core, sources))
    assert latencies.shape == (64, 1584)
    assert np.all(np.isfinite(latencies))


def test_hop_distances_batch_64_sources(benchmark):
    constellation = build_walker_delta(starlink_shell1())
    core = build_snapshot(constellation, 0.0).core
    sources = np.random.default_rng(2).integers(0, 1584, size=64)

    hops = benchmark(lambda: fastcore.hop_distances_batch(core, sources))
    assert hops.shape == (64, 1584)
    assert np.all(hops >= 0)


def test_aim_city_generation(benchmark):
    from repro.geo.datasets.cities import city_by_name
    from repro.measurements.aim import STARLINK, AimGenerator

    generator = AimGenerator(seed=0)
    city = city_by_name("Maputo")

    tests = benchmark(lambda: generator.generate_city_tests(city, STARLINK, 10))
    assert len(tests) == 10
