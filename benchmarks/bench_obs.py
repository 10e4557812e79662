"""Benchmarks and the overhead guard for the observability layer.

``pytest benchmarks/bench_obs.py`` benchmarks the fastcore kernels with
observability disabled (the default no-op recorder) and enabled, plus the
guard asserting the disabled instrumentation costs at most 2% of a kernel
call — the "zero-overhead by default" contract of :mod:`repro.obs`.
"""

from __future__ import annotations

import time

from repro.obs.recorder import ObsRecorder, get_recorder, recording
from repro.orbits.elements import starlink_shell1
from repro.orbits.walker import build_walker_delta
from repro.topology import fastcore
from repro.topology.graph import build_snapshot

SOURCES = tuple(range(0, 1584, 50))  # 32 spread-out sources on shell1


def _core():
    constellation = build_walker_delta(starlink_shell1())
    return build_snapshot(constellation, 0.0).core


def _min_time(fn, repeats: int = 5, inner: int = 3) -> float:
    """Noise-robust per-call seconds: best mean over ``repeats`` batches."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def test_disabled_instrumentation_overhead_under_two_percent():
    """The no-op recorder's timer must vanish next to any kernel call.

    A disabled kernel call differs from uninstrumented code by exactly one
    ``get_recorder().timer(...)`` context, so bounding that context at 2%
    of the cheapest kernel bounds the whole disabled-path overhead.
    """
    core = _core()
    rec = get_recorder()
    assert not rec.enabled

    def noop_context():
        with rec.timer("bench.noop"):
            pass

    # Per-call cost of the disabled instrumentation (amortised tight loop).
    start = time.perf_counter()
    for _ in range(10_000):
        noop_context()
    noop_s = (time.perf_counter() - start) / 10_000

    kernel_s = min(
        _min_time(lambda: fastcore.latency_batch(core, SOURCES)),
        _min_time(lambda: fastcore.hop_distances_batch(core, SOURCES)),
        _min_time(lambda: fastcore.nearest_hops(core, SOURCES)),
    )
    assert noop_s <= 0.02 * kernel_s, (
        f"disabled recorder costs {noop_s * 1e9:.0f} ns/call vs "
        f"{kernel_s * 1e6:.0f} us kernel: over the 2% budget"
    )


def test_latency_batch_disabled(benchmark):
    core = _core()
    result = benchmark(lambda: fastcore.latency_batch(core, SOURCES))
    assert result.shape == (len(SOURCES), 1584)


def test_latency_batch_enabled(benchmark):
    core = _core()
    with recording(ObsRecorder()) as recorder:
        result = benchmark(lambda: fastcore.latency_batch(core, SOURCES))
    assert result.shape == (len(SOURCES), 1584)
    assert recorder.profile.sites["fastcore.latency_batch"].calls >= 1


def test_hop_ladder_batch_disabled(benchmark):
    core = _core()
    result = benchmark(lambda: fastcore.hop_ladder_batch(core, SOURCES, 8))
    assert result.shape == (len(SOURCES), 9)

