"""Property-based tests (hypothesis) on the windowed time-series merge.

The fleet contract rests on ``TimeSeriesBuffer.merge_delta`` being a
commutative, associative fold over integer cells: shard deltas may land
in any completion order, any grouping, and any interleaving, and the
merged series must stay byte-identical to the single-pass build. These
properties are exactly what the supervised parallel runner relies on, so
hypothesis hammers them directly on generated event streams.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.timeseries import WINDOW_S, TimeSeriesBuffer, timeseries_diff

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
        assert timeseries_diff(fleet, serial) == []
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
