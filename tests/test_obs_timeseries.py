"""Tests for the windowed time-series buffer (repro.obs.timeseries).

The load-bearing property is merge determinism: window assignment is a
pure function of simulated time, every per-window cell is an integer,
and exports sort everything — so a ``--jobs N`` fleet merging shard
deltas in any completion order lands byte-identical to the serial run.
"""

import json

import pytest

from repro.constants import SNAPSHOT_INTERVAL_S
from repro.errors import ObsError
from repro.obs.timeseries import (
    FIXED_POINT_SCALE,
    TS_FORMAT_VERSION,
    WINDOW_S,
    TimeSeriesBuffer,
)


class TestWindowAssignment:
    def test_window_of_is_floor_division(self):
        ts = TimeSeriesBuffer()
        assert ts.window_of(0.0) == 0
        assert ts.window_of(59.999) == 0
        assert ts.window_of(60.0) == 1
        assert ts.window_of(3600.0) == 60

    def test_default_window_is_one_snapshot_slot(self):
        assert WINDOW_S == SNAPSHOT_INTERVAL_S


class TestCounters:
    def test_inc_accumulates_per_window(self):
        ts = TimeSeriesBuffer()
        ts.inc(6.0, "served")
        ts.inc(54.0, "served")
        ts.inc(66.0, "served", value=3.0)
        assert ts.counter_value("served", 0) == 2.0
        assert ts.counter_value("served", 1) == 3.0
        assert ts.counter_value("served", 2) == 0.0

    def test_labels_partition_series(self):
        ts = TimeSeriesBuffer()
        ts.inc(0.0, "served", (("tier", "access"),))
        ts.inc(0.0, "served", (("tier", "core"),), value=2.0)
        assert ts.counter_value("served", 0, (("tier", "access"),)) == 1.0
        assert ts.counter_value("served", 0, (("tier", "core"),)) == 2.0

    def test_values_are_fixed_point_integers(self):
        ts = TimeSeriesBuffer()
        ts.inc(0.0, "load", value=0.1)
        ts.inc(0.0, "load", value=0.2)
        stored = ts._counters[("load", ())][0]
        assert isinstance(stored, int)
        assert stored == round(0.1 * FIXED_POINT_SCALE) + round(
            0.2 * FIXED_POINT_SCALE
        )
        # 0.1 + 0.2 != 0.3 in floats; in micro-units it is exact.
        assert ts.counter_value("load", 0) == 0.3


class TestHistograms:
    def test_observe_buckets_and_counts(self):
        ts = TimeSeriesBuffer()
        ts.observe(0.0, "rtt", 0.5, buckets=(1.0, 5.0))
        ts.observe(0.0, "rtt", 3.0, buckets=(1.0, 5.0))
        ts.observe(0.0, "rtt", 50.0, buckets=(1.0, 5.0))
        cell = ts.histogram_cell("rtt", 0)
        assert cell.bucket_counts == [1, 1, 1]
        assert cell.count == 3
        assert cell.total_fp == round(53.5 * FIXED_POINT_SCALE)

    def test_bound_is_inclusive(self):
        ts = TimeSeriesBuffer()
        ts.observe(0.0, "rtt", 5.0, buckets=(5.0, 10.0))
        assert ts.histogram_cell("rtt", 0).bucket_counts == [1, 0, 0]

    def test_bucket_bounds_pin_on_first_use(self):
        ts = TimeSeriesBuffer()
        ts.observe(0.0, "rtt", 1.0, buckets=(1.0, 5.0))
        with pytest.raises(ObsError):
            ts.observe(0.0, "rtt", 1.0, buckets=(2.0, 6.0))

    def test_windows_lists_union_of_series(self):
        ts = TimeSeriesBuffer()
        ts.inc(210.0, "served")
        ts.observe(5.0, "rtt", 1.0, buckets=(1.0,))
        assert ts.windows() == [0, 3]


class TestDeltaMerge:
    def build(self, offsets):
        ts = TimeSeriesBuffer()
        for offset in offsets:
            ts.inc(6.0 * offset, "served", (("tier", "access"),))
            ts.observe(6.0 * offset, "rtt", offset % 7.0, buckets=(1.0, 5.0))
        return ts

    def test_merged_shards_equal_single_pass(self):
        serial = self.build(range(40))
        merged = TimeSeriesBuffer()
        # Interleaved shards arriving out of order.
        for shard in (range(1, 40, 3), range(2, 40, 3), range(0, 40, 3)):
            merged.merge_delta(self.build(shard).snapshot_delta())
        assert merged.to_json() == serial.to_json()

    def test_drain_empties_but_keeps_bucket_pins(self):
        ts = self.build(range(5))
        delta = ts.snapshot_delta(drain=True)
        assert ts.is_empty
        assert delta["counters"]
        # Pins survive the drain: drifted buckets still rejected.
        with pytest.raises(ObsError):
            ts.observe(0.0, "rtt", 1.0, buckets=(9.0,))

    def test_delta_round_trips_through_json(self):
        ts = self.build(range(10))
        wire = json.loads(json.dumps(ts.snapshot_delta()))
        merged = TimeSeriesBuffer()
        merged.merge_delta(wire)
        assert merged.to_json() == ts.to_json()

    def test_window_width_drift_rejected(self):
        delta = TimeSeriesBuffer().snapshot_delta()
        delta["window_s"] = WINDOW_S / 2
        with pytest.raises(ObsError):
            TimeSeriesBuffer().merge_delta(delta)

    def test_bucket_drift_rejected(self):
        left = TimeSeriesBuffer()
        left.observe(0.0, "rtt", 1.0, buckets=(1.0, 5.0))
        right = TimeSeriesBuffer()
        right.observe(0.0, "rtt", 1.0, buckets=(2.0, 6.0))
        with pytest.raises(ObsError):
            left.merge_delta(right.snapshot_delta())


class TestExport:
    def test_to_json_is_insertion_order_free(self):
        forward = TimeSeriesBuffer()
        backward = TimeSeriesBuffer()
        events = [(t, f"m{t % 3}") for t in range(30)]
        for t, name in events:
            forward.inc(6.0 * t, name)
            forward.observe(6.0 * t, "rtt", float(t), buckets=(10.0, 20.0))
        for t, name in reversed(events):
            backward.inc(6.0 * t, name)
            backward.observe(6.0 * t, "rtt", float(t), buckets=(10.0, 20.0))
        assert json.dumps(forward.to_json(), sort_keys=True) == json.dumps(
            backward.to_json(), sort_keys=True
        )

    def test_document_shape(self):
        ts = TimeSeriesBuffer()
        ts.inc(90.0, "served", value=2.0)
        ts.observe(90.0, "rtt", 3.0, buckets=(1.0, 5.0))
        doc = ts.to_json()
        assert doc["format_version"] == TS_FORMAT_VERSION
        assert doc["window_s"] == SNAPSHOT_INTERVAL_S
        assert doc["windows"] == [1]
        assert doc["counters"] == [
            {"name": "served", "labels": {}, "points": [[1, 2.0]]}
        ]
        (hist,) = doc["histograms"]
        assert hist["bounds"] == [1.0, 5.0]
        assert hist["points"] == [
            {"window": 1, "bucket_counts": [0, 1, 0], "count": 1, "sum": 3.0}
        ]

    def test_write_and_read_round_trip(self, tmp_path):
        ts = TimeSeriesBuffer()
        ts.inc(0.0, "served")
        path = tmp_path / "obs-timeseries.json"
        ts.write_json(path)
        assert json.loads(path.read_text()) == ts.to_json()


class TestDiff:
    def test_equal_buffers_diff_empty(self):
        a = TimeSeriesBuffer()
        b = TimeSeriesBuffer()
        for ts in (a, b):
            ts.inc(0.0, "served")
            ts.observe(5.0, "rtt", 2.0, buckets=(1.0, 5.0))
        assert a.to_json() == b.to_json()


class TestRecorderIntegration:
    def test_recorder_routes_windowed_calls_and_flushes(self, tmp_path):
        from repro.obs.recorder import ObsRecorder

        recorder = ObsRecorder()
        recorder.window_inc(30.0, "repro_serve_total")
        recorder.window_observe(30.0, "repro_serve_rtt_ms", 12.0)
        path = tmp_path / "obs-timeseries.json"
        recorder.flush(timeseries_path=path)
        doc = json.loads(path.read_text())
        assert doc["windows"] == [0]
        assert doc["counters"][0]["name"] == "repro_serve_total"

    def test_noop_recorder_accepts_windowed_calls(self):
        from repro.obs.recorder import NOOP_RECORDER

        NOOP_RECORDER.window_inc(0.0, "anything")
        NOOP_RECORDER.window_observe(0.0, "anything", 1.0)

    def test_fleet_delta_carries_timeseries(self):
        from repro.obs.recorder import ObsRecorder

        worker = ObsRecorder()
        worker.window_inc(90.0, "repro_serve_total", value=4.0)
        parent = ObsRecorder()
        parent.merge_delta(worker.snapshot_delta())
        assert parent.timeseries.counter_value("repro_serve_total", 1) == 4.0
