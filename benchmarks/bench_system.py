"""Ablation: the full SpaceCDN system under live traffic.

Runs the request-level system (per-satellite caches, pull-through fills,
rotating constellation) against a regional Zipf workload and sweeps the
per-satellite cache size: the space tier's hit ratio — and therefore the
user-perceived median RTT — rises with on-board storage.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.cdn.content import build_catalog
from repro.experiments.shells import shell1_constellation
from repro.geo.datasets.cities import city_by_name
from repro.spacecdn.placement import KPerPlanePlacement
from repro.spacecdn.system import SpaceCdnSystem
from repro.workloads.regional import RegionalPopularity, RegionalRequestMixer
from repro.workloads.requests import RequestGenerator

CITIES = ("Maputo", "Nairobi", "Lagos", "Sao Paulo", "Jakarta")


def _run_system(cache_mb: int):
    # A mixed catalog where video segments dominate bytes: small caches can
    # hold the web head but not the video tail, so capacity matters.
    catalog = build_catalog(
        np.random.default_rng(0),
        300,
        regions=("africa", "south-america", "asia"),
        global_fraction=0.2,
        kind_weights={"web": 0.5, "news": 0.2, "video-segment": 0.3},
    )
    system = SpaceCdnSystem(
        constellation=shell1_constellation(),
        catalog=catalog,
        cache_bytes_per_satellite=cache_mb * 1_000_000,
        max_hops=5,
    )
    # Operator-side preload: each region's head content gets 2 replicas per
    # plane (placement + system integration; the rest arrives pull-through).
    popularity = RegionalPopularity(catalog=catalog, seed=1)
    placement = KPerPlanePlacement(copies_per_plane=2)
    shell = shell1_constellation().config
    preload = {
        object_id: placement.place_object(object_id, shell)
        for region in popularity.regions()
        for object_id in popularity.top_objects(region, 10)
    }
    system.preload(preload)
    mixer = RegionalRequestMixer(
        popularity=popularity,
        rng=np.random.default_rng(2),
    )
    generator = RequestGenerator(
        cities=tuple(city_by_name(c) for c in CITIES),
        mixer=mixer,
        requests_per_second_total=1.5,
        rng=np.random.default_rng(3),
    )
    system.run(generator.generate_list(600.0))  # ten simulated minutes
    stats = system.stats
    return (
        stats.space_hit_ratio,
        float(np.median(stats.rtt_samples_ms)),
        stats.requests,
    )


def _sweep():
    rows = []
    for cache_mb in (2, 8, 32):
        hit_ratio, median_rtt, requests = _run_system(cache_mb)
        rows.append((f"{cache_mb} MB/sat", hit_ratio, median_rtt, requests))
    return rows


def test_system_sweep(benchmark, emit):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "Ablation: live SpaceCDN system vs per-satellite cache size",
        format_table(
            ("cache", "space hit ratio", "median RTT (ms)", "requests"),
            rows,
            float_fmt="{:.3f}",
        ),
    )

    hit_ratios = [r[1] for r in rows]
    median_rtts = [r[2] for r in rows]
    # More on-board storage -> more space hits -> lower median RTT.
    assert hit_ratios == sorted(hit_ratios)
    assert median_rtts == sorted(median_rtts, reverse=True)
    # At the largest size the space tier absorbs most traffic.
    assert hit_ratios[-1] > 0.5
