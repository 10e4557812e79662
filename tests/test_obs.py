"""Unit tests for the repro.obs observability subsystem."""

import json
import math

import pytest

from repro.errors import ObsError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profiling import ProfileAccumulator
from repro.obs.recorder import (
    NOOP_RECORDER,
    ObsRecorder,
    get_recorder,
    recording,
    reset_recorder,
    set_recorder,
)
from repro.obs.summarize import summarize_trace, summarize_trace_file
from repro.obs.tracing import TraceBuffer, read_trace


@pytest.fixture(autouse=True)
def _clean_recorder():
    yield
    reset_recorder()


class TestMetricsRegistry:
    def test_counters_accumulate_per_label_set(self):
        registry = MetricsRegistry()
        registry.inc("requests_total", (("tier", "access"),))
        registry.inc("requests_total", (("tier", "access"),), 2.0)
        registry.inc("requests_total", (("tier", "ground"),))
        assert registry.counter_value("requests_total", (("tier", "access"),)) == 3.0
        assert registry.counter_value("requests_total", (("tier", "ground"),)) == 1.0
        assert registry.counter_value("requests_total", (("tier", "isl"),)) == 0.0

    def test_gauges_overwrite(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 3.0)
        registry.set_gauge("depth", 7.0)
        assert registry.gauge_value("depth") == 7.0
        assert registry.gauge_value("missing") is None

    def test_histogram_observations_land_in_buckets(self):
        registry = MetricsRegistry()
        for value in (0.5, 5.0, 9.0, 100.0):
            registry.observe("rtt_ms", value, buckets=(1.0, 10.0, 50.0))
        histogram = registry.histogram("rtt_ms")
        # le semantics: a sample equal to a bound counts inside that bucket.
        assert histogram.cumulative() == [
            (1.0, 1),
            (10.0, 3),
            (50.0, 3),
            (math.inf, 4),
        ]
        assert histogram.count == 4
        assert histogram.total == pytest.approx(114.5)

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.observe("rtt_ms", 1.0, buckets=(1.0, 10.0))
        with pytest.raises(ObsError):
            registry.observe("rtt_ms", 1.0, buckets=(2.0, 20.0))

    def test_invalid_buckets_raise(self):
        with pytest.raises(ObsError):
            Histogram(())
        with pytest.raises(ObsError):
            Histogram((5.0, 1.0))

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.inc("serves_total", (("tier", "access"),), 3)
        registry.set_gauge("fleet_size", 48)
        registry.observe("rtt_ms", 7.0, buckets=(5.0, 10.0))
        text = registry.render_prometheus()
        assert "# TYPE serves_total counter" in text
        assert 'serves_total{tier="access"} 3' in text
        assert "# TYPE fleet_size gauge" in text
        assert "fleet_size 48" in text
        assert "# TYPE rtt_ms histogram" in text
        assert 'rtt_ms_bucket{le="5"} 0' in text
        assert 'rtt_ms_bucket{le="10"} 1' in text
        assert 'rtt_ms_bucket{le="+Inf"} 1' in text
        assert "rtt_ms_sum 7" in text
        assert "rtt_ms_count 1" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""
        assert MetricsRegistry().is_empty

    def test_write_prometheus_creates_file(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("x")
        path = tmp_path / "metrics.prom"
        registry.write_prometheus(path)
        assert path.read_text() == "# TYPE x counter\nx 1\n"


class TestTracing:
    def test_record_and_children(self):
        buffer = TraceBuffer()
        root = buffer.open_span("serve", object_id="obj-1")
        child_id = root.child("attempt", tier="access")
        root.set(outcome="served")
        spans = buffer.spans()
        assert len(spans) == 2
        assert spans[0]["kind"] == "serve"
        assert spans[0]["outcome"] == "served"
        assert spans[1]["parent_id"] == root.span_id
        assert spans[1]["span_id"] == child_id

    def test_flush_writes_complete_jsonl(self, tmp_path):
        buffer = TraceBuffer()
        for i in range(5):
            buffer.record("attempt", index=i)
        path = tmp_path / "trace.jsonl"
        assert buffer.flush(path) == 5
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert [json.loads(line)["index"] for line in lines] == list(range(5))

    def test_reflush_rewrites_whole_trace(self, tmp_path):
        buffer = TraceBuffer()
        buffer.record("a")
        path = tmp_path / "trace.jsonl"
        buffer.flush(path)
        buffer.record("b")
        buffer.flush(path)
        kinds = [span["kind"] for span in read_trace(path)]
        assert kinds == ["a", "b"]

    def test_read_trace_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind": "serve", "span_id": 1}\n{not json\n')
        with pytest.raises(ObsError, match=":2:"):
            list(read_trace(path))

    def test_read_trace_rejects_non_span(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ObsError):
            list(read_trace(path))

    def test_read_trace_missing_file(self, tmp_path):
        with pytest.raises(ObsError):
            list(read_trace(tmp_path / "nope.jsonl"))


class TestProfiling:
    def test_timer_accumulates(self):
        profile = ProfileAccumulator()
        for _ in range(3):
            with profile.timer("region"):
                pass
        stats = profile.sites["region"]
        assert stats.calls == 3
        assert stats.total_s >= 0.0
        assert stats.min_s <= stats.max_s

    def test_summary_sorted_by_total_time(self):
        profile = ProfileAccumulator()
        profile.add("slow", 2.0)
        profile.add("fast", 0.1)
        profile.add("slow", 1.0)
        summary = profile.summary()
        assert list(summary) == ["slow", "fast"]
        assert summary["slow"]["calls"] == 2
        assert summary["slow"]["total_s"] == pytest.approx(3.0)
        assert summary["slow"]["mean_s"] == pytest.approx(1.5)

    def test_empty(self):
        assert ProfileAccumulator().is_empty
        assert ProfileAccumulator().summary() == {}


class TestRecorder:
    def test_default_is_disabled_noop(self):
        assert get_recorder() is NOOP_RECORDER
        assert not NOOP_RECORDER.enabled
        # Every operation is accepted and does nothing.
        NOOP_RECORDER.inc("x")
        NOOP_RECORDER.set_gauge("x", 1.0)
        NOOP_RECORDER.observe("x", 1.0)
        with NOOP_RECORDER.timer("site"):
            pass
        span = NOOP_RECORDER.open_span("serve")
        assert span.set(a=1) is span
        assert span.child("attempt") == 0
        NOOP_RECORDER.flush()

    def test_recording_installs_and_restores(self):
        recorder = ObsRecorder()
        with recording(recorder):
            assert get_recorder() is recorder
            get_recorder().inc("hits")
        assert get_recorder() is NOOP_RECORDER
        assert recorder.metrics.counter_value("hits") == 1.0

    def test_set_and_reset(self):
        recorder = ObsRecorder()
        set_recorder(recorder)
        assert get_recorder() is recorder
        reset_recorder()
        assert get_recorder() is NOOP_RECORDER

    def test_flush_writes_artifacts_and_profile_gauges(self, tmp_path):
        recorder = ObsRecorder()
        recorder.inc("hits")
        with recorder.timer("fastcore.kernel"):
            pass
        recorder.open_span("serve", outcome="served").child(
            "attempt", tier="access"
        )
        metrics_path = tmp_path / "metrics.prom"
        trace_path = tmp_path / "trace.jsonl"
        recorder.flush(metrics_path=metrics_path, trace_path=trace_path)
        text = metrics_path.read_text()
        assert "hits 1" in text
        assert 'repro_profile_calls{site="fastcore.kernel"} 1' in text
        assert 'repro_profile_seconds{site="fastcore.kernel"}' in text
        assert len(list(read_trace(trace_path))) == 2
        # Reflushing is idempotent for the profile gauges.
        recorder.flush(metrics_path=metrics_path)
        assert 'repro_profile_calls{site="fastcore.kernel"} 1' in (
            metrics_path.read_text()
        )


def _span(kind, **attrs):
    record = {"kind": kind, "span_id": 0, "parent_id": None}
    record.update(attrs)
    return record


class TestSummarize:
    def test_tier_tables(self):
        spans = [
            _span("serve_cohort", size=3, served=2, unavailable=1,
                  mode="degraded"),
            _span("rung", tier="access", outcome="served", count=1),
            _span("rung", tier="isl", outcome="attempt-timeout", count=1),
            _span("rung", tier="ground", outcome="served", count=1),
        ]
        text = summarize_trace(spans)
        assert "3 requests (1 unavailable)" in text
        assert "Per-tier serving outcomes:" in text
        assert "Per-tier ladder attempts:" in text
        assert "(unavailable)" in text
        # Tiers render in ladder order.
        assert text.index("access") < text.index("isl") < text.index("ground")

    def test_empty_trace_raises(self):
        with pytest.raises(ObsError):
            summarize_trace([])

    def test_summarize_file(self, tmp_path):
        buffer = TraceBuffer()
        cohort = buffer.open_span("serve_cohort", size=1, served=1, unavailable=0)
        cohort.child("rung", tier="access", outcome="served", count=1)
        path = tmp_path / "trace.jsonl"
        buffer.flush(path)
        assert "access" in summarize_trace_file(path)


class TestSummarizeCohort:
    """Cohort (``serve_cohort``/``rung``) traces, with golden values."""

    COHORT_SPANS = [
        _span("serve_cohort", size=4, served=3, unavailable=1,
              mode="healthy"),
        _span("rung", tier="access", outcome="served", count=2),
        _span("rung", tier="ground", outcome="served", count=1),
        _span("rung", tier="isl", outcome="transient-loss", count=2),
    ]

    def test_cohort_only_trace_golden(self):
        text = summarize_trace(self.COHORT_SPANS)
        assert "4 requests (1 unavailable)" in text
        # Serving table: 2 access + 1 ground served, shares over 4 requests.
        access_row = next(
            line for line in text.splitlines() if line.startswith("access")
        )
        assert access_row.split() == ["access", "2", "50.0%"]
        ground_row = next(
            line for line in text.splitlines() if line.startswith("ground")
        )
        assert ground_row.split() == ["ground", "1", "25.0%"]
        # Attempts table: the isl rung lost both tries.
        isl_row = [
            line for line in text.splitlines() if line.startswith("isl")
        ][-1]
        assert isl_row.split()[1:4] == ["2", "0", "2"]

    def test_cohort_only_unavailable_share(self):
        spans = [
            _span("serve_cohort", size=2, served=0, unavailable=2,
                  mode="degraded"),
            _span("rung", tier="ground", outcome="ground-timeout", count=2),
        ]
        text = summarize_trace(spans)
        assert "2 requests (2 unavailable)" in text
        assert "(unavailable)" in text
