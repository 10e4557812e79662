"""Observability for the SpaceCDN stack: metrics, series, traces, profiles.

Four stdlib-plus-numpy pillars behind one recorder facade:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms keyed by label tuples, exported as
  Prometheus text through :mod:`repro.atomicio`;
* :class:`~repro.obs.timeseries.TimeSeriesBuffer` — the same metric
  kinds bucketed into fixed-width windows of *simulated* time; every
  windowed cell is an integer, so parallel runs merge to byte-identical
  series;
* :class:`~repro.obs.tracing.TraceBuffer` — span records of the serve
  path (one span per serve cohort, one child span per ladder
  ``(tier, outcome)`` with its attempt count), flushed as JSONL and
  summarised by
  ``repro obs summarize``;
* :class:`~repro.obs.profiling.ProfileAccumulator` — wall-clock timer
  contexts around the fastcore kernels, cache plumbing and runner shards.

Each pillar ships its part of a parallel run's fleet delta and merges
it back (``snapshot_delta``/``merge_delta``); the recorder's own pair
adds the format-version envelope.

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

This package re-exports exactly those two names, :class:`ObsRecorder` and
:func:`recording`, from :mod:`repro.obs.recorder`: they are the enable-it
idiom above, and the end-to-end benchmark harness imports them from here.
Every other name is imported from its defining module, so importing
``repro.obs`` loads the recorder and its metrics, series, trace and
profile buffers, never the run event log or the trace summariser
(``events``, ``summarize``).
"""

from repro.obs.recorder import ObsRecorder, recording

__all__ = ["ObsRecorder", "recording"]
