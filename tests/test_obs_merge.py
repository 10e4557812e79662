"""Unit tests for cross-process obs aggregation (the pillars' delta codecs).

The contract under test: a worker's recorder drains into a
JSON-serialisable delta, the parent folds any number of deltas back in,
and the merged registry's counters and histograms are indistinguishable
from having recorded everything in one process — the property the
``--jobs N == --jobs 1`` equality tests in the runner suite build on.
"""

from __future__ import annotations

import json

import pytest

from obs_reference import registry_diff
from repro.errors import ObsError
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import (
    ABANDONED_TIMERS_METRIC,
    DELTA_FORMAT_VERSION,
    ObsRecorder,
)

TIER = (("tier", "isl"),)
BUCKETS = (10.0, 50.0)


def record_workload(rec, repeats=1):
    """A deterministic mixed workload (counters, gauge, histogram, spans,
    profile) that tests can split across 'workers' in any partition."""
    for _ in range(repeats):
        rec.inc("repro_serve_total", TIER)
        rec.inc("repro_serve_total", (("tier", "access"),), 2.0)
        rec.observe("repro_serve_rtt_ms", 12.0, TIER, buckets=BUCKETS)
        rec.observe("repro_serve_rtt_ms", 75.0, TIER, buckets=BUCKETS)
        rec.set_gauge("repro_chaos_availability", 0.5, (("fraction", "0"),))
        root = rec.open_span("serve", outcome="served")
        root.child("attempt", rtt_contribution_ms=12.0)
        with rec.timer("fastcore.latency"):
            pass


class TestSnapshotDelta:
    def test_delta_is_json_serialisable(self):
        rec = ObsRecorder()
        record_workload(rec)
        delta = rec.snapshot_delta()
        assert delta["format_version"] == DELTA_FORMAT_VERSION
        assert json.loads(json.dumps(delta)) == delta

    def test_drain_empties_but_keeps_bucket_pins(self):
        rec = ObsRecorder()
        record_workload(rec)
        rec.snapshot_delta(drain=True)
        assert rec.metrics.is_empty
        assert len(rec.trace) == 0
        assert rec.profile.is_empty
        # The pin survives: re-observing with the same buckets works, with
        # different buckets is still the configuration error it was.
        rec.observe("repro_serve_rtt_ms", 1.0, TIER, buckets=BUCKETS)
        with pytest.raises(ObsError, match="buckets"):
            rec.observe("repro_serve_rtt_ms", 1.0, TIER, buckets=(1.0,))

    def test_consecutive_drained_deltas_are_disjoint(self):
        rec = ObsRecorder()
        record_workload(rec)
        first = rec.snapshot_delta(drain=True)
        record_workload(rec)
        second = rec.snapshot_delta(drain=True)
        assert first["metrics"]["counters"] == second["metrics"]["counters"]
        # Span ids keep counting across drains: no id is reused.
        first_ids = {span["span_id"] for span in first["trace"]}
        second_ids = {span["span_id"] for span in second["trace"]}
        assert not first_ids & second_ids

    def test_undrained_snapshot_leaves_state(self):
        rec = ObsRecorder()
        record_workload(rec)
        rec.snapshot_delta(drain=False)
        assert rec.metrics.counter_value("repro_serve_total", TIER) == 1.0


class TestWireFormat:
    def test_delta_matches_the_pinned_literal(self):
        """The literal shows any change to what a worker ships to the
        parent: a field renamed, reordered or re-encoded fails here before
        the fleet merge sees it, so a change to the wire format is a diff
        of this test (and of ``DELTA_FORMAT_VERSION``), never a quiet one."""
        rec = ObsRecorder()
        record_workload(rec)
        rec.window_inc(30.0, "repro_serve_total", TIER)
        rec.window_inc(90.0, "repro_serve_total", TIER, 2.0)
        rec.window_observe(30.0, "repro_serve_rtt_ms", 12.0, TIER, buckets=BUCKETS)
        rec.window_observe(30.0, "repro_serve_rtt_ms", 50.0, TIER, buckets=BUCKETS)
        rec.window_observe(90.0, "repro_serve_rtt_ms", 75.5, TIER, buckets=BUCKETS)
        delta = rec.snapshot_delta()
        assert delta["format_version"] == 2
        assert delta["metrics"] == {
            "counters": [
                ["repro_serve_total", [["tier", "isl"]], 1.0],
                ["repro_serve_total", [["tier", "access"]], 2.0],
            ],
            "gauges": [["repro_chaos_availability", [["fraction", "0"]], 0.5]],
            "histograms": [
                [
                    "repro_serve_rtt_ms",
                    [["tier", "isl"]],
                    {
                        "bounds": [10.0, 50.0],
                        "bucket_counts": [0, 1, 1],
                        "count": 2,
                        "total": 87.0,
                    },
                ]
            ],
        }
        assert delta["timeseries"] == {
            "window_s": 60.0,
            "counters": [
                ["repro_serve_total", [["tier", "isl"]], [[0, 1000000], [1, 2000000]]]
            ],
            "histograms": [
                [
                    "repro_serve_rtt_ms",
                    [["tier", "isl"]],
                    [10.0, 50.0],
                    [[0, [0, 2, 0], 2, 62000000], [1, [0, 0, 1], 1, 75500000]],
                ]
            ],
        }
        assert delta["trace"] == [
            {"kind": "serve", "span_id": 1, "parent_id": None, "outcome": "served"},
            {
                "kind": "attempt",
                "span_id": 2,
                "parent_id": 1,
                "rtt_contribution_ms": 12.0,
            },
        ]


class TestMergeDelta:
    def split_and_merge(self, partitions):
        """Record ``partitions`` repeats in separate 'workers', merge all
        deltas into one parent recorder."""
        parent = ObsRecorder()
        for index, repeats in enumerate(partitions):
            worker = ObsRecorder()
            record_workload(worker, repeats)
            parent.merge_delta(
                worker.snapshot_delta(),
                extra_labels=(("shard", f"s{index:02d}"), ("worker", str(index))),
            )
        return parent

    def serial(self, total_repeats):
        rec = ObsRecorder()
        record_workload(rec, total_repeats)
        return rec

    def test_merged_counters_and_histograms_equal_serial(self):
        parent = self.split_and_merge([2, 1, 3])
        serial = self.serial(6)
        assert registry_diff(parent.metrics, serial.metrics) == []

    def test_gauges_keep_per_worker_series(self):
        parent = self.split_and_merge([1, 1])
        labels = (("fraction", "0"), ("shard", "s01"), ("worker", "1"))
        assert parent.metrics.gauge_value("repro_chaos_availability", labels) == 0.5
        # No unlabelled collision series was created.
        assert (
            parent.metrics.gauge_value(
                "repro_chaos_availability", (("fraction", "0"),)
            )
            is None
        )

    def test_histograms_merge_bucket_wise(self):
        parent = self.split_and_merge([2, 3])
        histogram = parent.metrics.histogram("repro_serve_rtt_ms", TIER)
        assert histogram.bounds == BUCKETS
        assert histogram.bucket_counts == [0, 5, 5]  # 12.0 x5 -> le=50, 75.0 x5 -> +Inf
        assert histogram.count == 10

    def test_bucket_drift_is_refused(self):
        parent = ObsRecorder()
        parent.observe("repro_serve_rtt_ms", 1.0, TIER, buckets=BUCKETS)
        worker = ObsRecorder()
        worker.observe("repro_serve_rtt_ms", 1.0, TIER, buckets=(1.0, 2.0))
        with pytest.raises(ObsError, match="differ from the pinned"):
            parent.merge_delta(worker.snapshot_delta())

    def test_format_version_drift_is_refused(self):
        worker = ObsRecorder()
        delta = worker.snapshot_delta()
        delta["format_version"] = 999
        with pytest.raises(ObsError, match="format version"):
            ObsRecorder().merge_delta(delta)

    def test_trace_spans_reidentified_with_parent_links(self):
        parent = ObsRecorder()
        parent.record_span("parent_side")  # takes span id 1 first
        worker = ObsRecorder()
        root = worker.open_span("serve", outcome="served")
        root.child("attempt", rtt_contribution_ms=3.0)
        parent.merge_delta(
            worker.snapshot_delta(), extra_labels=(("worker", "4"),)
        )
        spans = {span["kind"]: span for span in parent.trace.spans()}
        assert spans["attempt"]["parent_id"] == spans["serve"]["span_id"]
        assert spans["serve"]["span_id"] != 1
        assert spans["serve"]["worker"] == "4"
        assert spans["attempt"]["worker"] == "4"

    def test_orphan_child_does_not_alias_a_parent_span(self):
        parent = ObsRecorder()
        parent.record_span("resident")
        worker = ObsRecorder()
        spans = [{"kind": "attempt", "span_id": 7, "parent_id": 1}]
        parent.trace.merge_delta(spans)
        (orphan,) = [s for s in parent.trace.spans() if s["kind"] == "attempt"]
        assert orphan["parent_id"] is None

    def test_profile_sites_merge_stat_wise(self):
        parent = ObsRecorder()
        parent.profile.add("fastcore.latency", 2.0)
        worker = ObsRecorder()
        worker.profile.add("fastcore.latency", 0.5)
        worker.profile.add("fastcore.latency", 4.0)
        parent.merge_delta(worker.snapshot_delta())
        stats = parent.profile.sites["fastcore.latency"]
        assert stats.calls == 3
        assert stats.total_s == pytest.approx(6.5)
        assert stats.min_s == 0.5
        assert stats.max_s == 4.0


class TestAbandonedTimers:
    def test_open_timer_at_drain_becomes_abandoned_counter(self):
        worker = ObsRecorder()
        timer = worker.timer("runner.shard")
        timer.__enter__()  # killed-mid-shard: never exits before the drain
        delta = worker.snapshot_delta()
        assert delta["profile"]["abandoned"] == 1
        parent = ObsRecorder()
        parent.merge_delta(delta)
        assert parent.metrics.counter_value(ABANDONED_TIMERS_METRIC) == 1.0
        assert "runner.shard" not in parent.profile.sites

    def test_close_after_drain_is_discarded_not_misattributed(self):
        worker = ObsRecorder()
        timer = worker.timer("runner.shard")
        timer.__enter__()
        worker.snapshot_delta()  # drains; bumps the epoch
        timer.__exit__(None, None, None)
        assert worker.profile.is_empty
        assert worker.profile.snapshot_delta(drain=True)["abandoned"] == 0
        # The next epoch's timers still record normally.
        with worker.timer("runner.shard"):
            pass
        assert worker.profile.sites["runner.shard"].calls == 1

    def test_clean_snapshot_reports_no_abandonment(self):
        worker = ObsRecorder()
        with worker.timer("runner.shard"):
            pass
        delta = worker.snapshot_delta()
        assert delta["profile"]["abandoned"] == 0
        parent = ObsRecorder()
        parent.merge_delta(delta)
        assert parent.metrics.counter_value(ABANDONED_TIMERS_METRIC) == 0.0


class TestRegistryDiff:
    def test_equal_registries_diff_empty(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry in (a, b):
            registry.inc("repro_serve_total", TIER, 3.0)
            registry.observe("repro_serve_rtt_ms", 5.0, buckets=BUCKETS)
        assert registry_diff(a, b) == []

    def test_counter_value_mismatch_reported(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("repro_serve_total", TIER, 3.0)
        b.inc("repro_serve_total", TIER, 4.0)
        problems = registry_diff(a, b)
        assert len(problems) == 1 and "repro_serve_total" in problems[0]

    def test_missing_series_reported(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("repro_serve_total", TIER)
        assert registry_diff(a, b) and registry_diff(b, a)

    def test_fleet_series_are_excluded(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("repro_runner_worker_spawns_total", value=4.0)
        a.inc("repro_obs_deltas_merged_total", value=6.0)
        a.set_gauge("repro_profile_calls", 2.0)
        assert registry_diff(a, b) == []

    def test_float_association_noise_tolerated(self):
        # Parallel merges associate float additions differently; the diff
        # must accept sums that differ only in the last few ulps.
        values = [0.1, 0.2, 0.3, 1e-9, 7.77]
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in values:
            a.inc("repro_serve_rtt_total", value=value)
        for value in reversed(values):
            b.inc("repro_serve_rtt_total", value=value)
        assert registry_diff(a, b) == []

    def test_histogram_bucket_mismatch_reported(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("repro_serve_rtt_ms", 5.0, buckets=BUCKETS)
        b.observe("repro_serve_rtt_ms", 75.0, buckets=BUCKETS)
        problems = registry_diff(a, b)
        assert any("buckets" in p for p in problems)
