"""Property-based tests (hypothesis) on the windowed time-series merge.

The fleet contract rests on ``TimeSeriesBuffer.merge_delta`` being a
commutative, associative fold over integer cells: shard deltas may land
in any completion order, any grouping, and any interleaving, and the
merged series must stay byte-identical to the single-pass build. These
properties are exactly what the supervised parallel runner relies on, so
hypothesis hammers them directly on generated event streams. The last
properties check that the scalar and windowed histograms share one
bucket rule and refuse the same samples.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObsError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import WINDOW_S, TimeSeriesBuffer

BUCKETS = (1.0, 5.0, 25.0)

# One observation: (timestamp, metric index, value, is_histogram).
events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=3000.0, allow_nan=False),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.booleans(),
    ),
    max_size=60,
)


def build(stream):
    ts = TimeSeriesBuffer()
    for t_s, index, value, is_histogram in stream:
        if is_histogram:
            ts.observe(t_s, f"hist{index}", value, buckets=BUCKETS)
        else:
            ts.inc(t_s, f"ctr{index}", (("k", str(index)),), value)
    return ts


def merged(*deltas):
    ts = TimeSeriesBuffer()
    for delta in deltas:
        ts.merge_delta(delta)
    return ts


def canonical(ts):
    return json.dumps(ts.to_json(), sort_keys=True)


class TestMergeAlgebra:
    @given(a=events, b=events)
    @settings(max_examples=50, deadline=None)
    def test_merge_is_commutative(self, a, b):
        da, db = build(a).snapshot_delta(), build(b).snapshot_delta()
        assert canonical(merged(da, db)) == canonical(merged(db, da))

    @given(a=events, b=events, c=events)
    @settings(max_examples=50, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        da, db, dc = (build(s).snapshot_delta() for s in (a, b, c))
        left = merged(dc)
        left.merge_delta(merged(da, db).snapshot_delta())
        right = merged(da)
        right.merge_delta(merged(db, dc).snapshot_delta())
        assert canonical(left) == canonical(right)

    @given(stream=events, cut=st.integers(min_value=0, max_value=60))
    @settings(max_examples=50, deadline=None)
    def test_sharded_build_equals_single_pass(self, stream, cut):
        cut = min(cut, len(stream))
        fleet = merged(
            build(stream[:cut]).snapshot_delta(),
            build(stream[cut:]).snapshot_delta(),
        )
        serial = build(stream)
        assert canonical(fleet) == canonical(serial)

    @given(stream=events, seed=st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_event_order_is_irrelevant(self, stream, seed):
        shuffled = list(stream)
        seed.shuffle(shuffled)
        assert canonical(build(shuffled)) == canonical(build(stream))

    @given(t_s=st.floats(min_value=0.0, max_value=1e7, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_window_assignment_is_pure_floor_division(self, t_s):
        ts = TimeSeriesBuffer()
        window = ts.window_of(t_s)
        assert window == int(t_s // WINDOW_S)
        assert window * WINDOW_S <= t_s


magnitudes = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
bucket_bounds = st.lists(magnitudes, min_size=1, max_size=6, unique=True).map(
    lambda bounds: tuple(sorted(bounds))
)


class TestBucketRule:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_scalar_and_windowed_histograms_pick_the_same_bucket(self, data):
        bounds = data.draw(bucket_bounds)
        value = data.draw(
            st.one_of(
                st.sampled_from(bounds),
                st.floats(min_value=bounds[-1], max_value=2e9, exclude_min=True),
                magnitudes,
            )
        )
        registry = MetricsRegistry()
        registry.observe("h", value, buckets=bounds)
        ts = TimeSeriesBuffer()
        ts.observe(0.0, "h", value, buckets=bounds)
        counts = registry.histogram("h").bucket_counts
        assert ts.histogram_cell("h", 0).bucket_counts == counts
        # Prometheus ``le``: the first bucket whose upper bound is >= value.
        assert counts[sum(bound < value for bound in bounds)] == 1

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 1e303, -1e303]
    )
    def test_both_stores_refuse_an_unholdable_sample_untouched(self, value):
        """NaN, infinities and magnitudes past the fixed-point range raise
        ``ObsError`` from both stores, as a histogram sample or a counter
        increment, before any state changes: no torn window cell, no empty
        counter series, no NaN total, no bucket pin for a fresh name."""
        registry = MetricsRegistry()
        registry.observe("h", 3.0, buckets=BUCKETS)
        registry.inc("c", value=2.0)
        ts = TimeSeriesBuffer()
        ts.observe(0.0, "h", 3.0, buckets=BUCKETS)
        ts.inc(0.0, "c", value=2.0)
        before = (
            registry.snapshot_delta(drain=False),
            ts.snapshot_delta(drain=False),
        )
        for name in ("h", "fresh"):
            with pytest.raises(ObsError, match="cannot record"):
                registry.observe(name, value, buckets=BUCKETS)
            with pytest.raises(ObsError, match="cannot record"):
                ts.observe(0.0, name, value, buckets=BUCKETS)
        for name in ("c", "fresh"):
            with pytest.raises(ObsError, match="cannot record"):
                registry.inc(name, value=value)
            with pytest.raises(ObsError, match="cannot record"):
                ts.inc(0.0, name, value=value)
        after = (
            registry.snapshot_delta(drain=False),
            ts.snapshot_delta(drain=False),
        )
        assert after == before
