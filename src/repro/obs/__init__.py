"""Observability for the SpaceCDN stack: metrics, series, traces, profiles.

Four stdlib-plus-numpy pillars behind one recorder facade:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms keyed by label tuples, exported as
  Prometheus text or JSON through :mod:`repro.atomicio`;
* :class:`~repro.obs.timeseries.TimeSeriesBuffer` — the same metric
  kinds bucketed into fixed-width windows of *simulated* time, the
  substrate for ``repro obs timeline`` sparkline dashboards and the
  :mod:`repro.obs.slo` error-budget engine; every windowed cell is an
  integer, so parallel runs merge to byte-identical series;
* :class:`~repro.obs.tracing.TraceBuffer` — span records of the serve
  path (one span per serve cohort, one child span per ladder
  ``(tier, outcome)`` with its attempt count), flushed as JSONL and
  summarised by
  ``repro obs summarize``;
* :class:`~repro.obs.profiling.ProfileAccumulator` — wall-clock timer
  contexts around the fastcore kernels, cache plumbing and runner shards.

The process-global default recorder is a no-op: every instrumented call
site stays permanently wired through the hot paths, and with observability
disabled (the default) the instrumented code produces byte-identical
output at indistinguishable cost. Enable it per run::

    from repro import obs

    recorder = obs.ObsRecorder()
    with obs.recording(recorder):
        system.run(requests)
    recorder.flush(metrics_path="metrics.prom", trace_path="trace.jsonl",
                   timeseries_path="timeseries.json")
"""

from repro.obs.benchdiff import diff_benchmark_files, format_diff, has_regressions
from repro.obs.dashboard import render_timeline
from repro.obs.events import EventLog, read_events, render_events, render_events_file
from repro.obs.merge import merge_delta, registry_diff, snapshot_delta
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry
from repro.obs.profiling import ProfileAccumulator
from repro.obs.recorder import (
    NOOP_RECORDER,
    NoopRecorder,
    ObsRecorder,
    get_recorder,
    recording,
    reset_recorder,
    set_recorder,
)
from repro.obs.slo import (
    SloReport,
    SloSpec,
    evaluate_slo,
    evaluate_slos,
    parse_slo,
    render_slo_report,
)
from repro.obs.summarize import summarize_trace, summarize_trace_file
from repro.obs.timeseries import (
    DEFAULT_WINDOW_S,
    TimeSeriesBuffer,
    read_timeseries,
    timeseries_diff,
)
from repro.obs.tracing import TraceBuffer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "DEFAULT_WINDOW_S",
    "EventLog",
    "MetricsRegistry",
    "ProfileAccumulator",
    "SloReport",
    "SloSpec",
    "TimeSeriesBuffer",
    "TraceBuffer",
    "NOOP_RECORDER",
    "NoopRecorder",
    "ObsRecorder",
    "diff_benchmark_files",
    "evaluate_slo",
    "evaluate_slos",
    "format_diff",
    "get_recorder",
    "has_regressions",
    "merge_delta",
    "parse_slo",
    "read_events",
    "read_timeseries",
    "registry_diff",
    "render_events",
    "render_events_file",
    "render_slo_report",
    "render_timeline",
    "recording",
    "reset_recorder",
    "set_recorder",
    "snapshot_delta",
    "summarize_trace",
    "summarize_trace_file",
    "timeseries_diff",
]
