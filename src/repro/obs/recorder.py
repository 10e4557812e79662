"""The recorder facade and the process-global no-op default.

Instrumented call sites throughout the stack do::

    from repro.obs.recorder import get_recorder
    ...
    rec = get_recorder()
    with rec.timer("fastcore.latency_batch"):
        ...

and stay permanently wired. The global recorder defaults to
:data:`NOOP_RECORDER`, whose every method is an allocation-free no-op, so
the disabled path costs one global read plus an empty context manager —
within measurement noise even for the microsecond-scale routing kernels
(guarded by ``benchmarks/bench_obs.py``). Enabling observability is one
:func:`set_recorder` call (or the :func:`recording` context manager) away
and changes no simulated behaviour: recorders never touch RNG streams,
caches or outputs, only observe them.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ObsError
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, Labels, MetricsRegistry
from repro.obs.profiling import ProfileAccumulator
from repro.obs.timeseries import TimeSeriesBuffer
from repro.obs.tracing import SpanHandle, TraceBuffer

DELTA_FORMAT_VERSION = 2
"""Bumped to 2 when deltas grew the ``timeseries`` pillar (windowed
series); version-1 deltas ship no windows, so merging them silently would
under-count the merged timeline — refusing is the honest failure."""

ABANDONED_TIMERS_METRIC = "repro_profile_abandoned_total"
"""Counter of profile timers dropped because their worker's recorder was
drained (snapshot/kill) while they were still open."""


class _NoopContext:
    """Shared do-nothing context manager (the disabled timer)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


class _NoopSpan(_NoopContext):
    """Shared do-nothing span handle."""

    __slots__ = ()
    span_id = 0

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def child(self, kind: str, **attrs: Any) -> int:
        return 0


_NOOP_CONTEXT = _NoopContext()
_NOOP_SPAN = _NoopSpan()


class NoopRecorder:
    """The disabled recorder: every operation is free and stateless."""

    __slots__ = ()
    enabled = False
    events = None

    def inc(self, name: str, labels: Labels = (), value: float = 1.0) -> None:
        return None

    def set_gauge(self, name: str, value: float, labels: Labels = ()) -> None:
        return None

    def observe(
        self,
        name: str,
        value: float,
        labels: Labels = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        return None

    def window_inc(
        self, t_s: float, name: str, labels: Labels = (), value: float = 1.0
    ) -> None:
        return None

    def window_observe(
        self,
        t_s: float,
        name: str,
        value: float,
        labels: Labels = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        return None

    def timer(self, site: str) -> _NoopContext:
        return _NOOP_CONTEXT

    def open_span(self, kind: str, **attrs: Any) -> _NoopSpan:
        return _NOOP_SPAN

    def record_span(self, kind: str, parent_id: int | None = None, **attrs: Any) -> int:
        return 0

    def event(self, name: str, **fields: Any) -> None:
        return None

    def flush(
        self,
        metrics_path: str | Path | None = None,
        trace_path: str | Path | None = None,
        timeseries_path: str | Path | None = None,
    ) -> None:
        return None


class ObsRecorder:
    """A live recorder: metrics + timeseries + trace + profile in one facade."""

    enabled = True

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        trace: TraceBuffer | None = None,
        profile: ProfileAccumulator | None = None,
        events: Any = None,
        timeseries: TimeSeriesBuffer | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace if trace is not None else TraceBuffer()
        self.profile = profile if profile is not None else ProfileAccumulator()
        self.events = events  # an EventLog, wired per run by the runner
        self.timeseries = (
            timeseries if timeseries is not None else TimeSeriesBuffer()
        )

    # -- metrics -----------------------------------------------------------

    def inc(self, name: str, labels: Labels = (), value: float = 1.0) -> None:
        self.metrics.inc(name, labels, value)

    def set_gauge(self, name: str, value: float, labels: Labels = ()) -> None:
        self.metrics.set_gauge(name, value, labels)

    def observe(
        self,
        name: str,
        value: float,
        labels: Labels = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        self.metrics.observe(name, value, labels, buckets)

    # -- windowed time series ----------------------------------------------

    def window_inc(
        self, t_s: float, name: str, labels: Labels = (), value: float = 1.0
    ) -> None:
        """Count an event in the simulated-time window containing ``t_s``."""
        self.timeseries.inc(t_s, name, labels, value)

    def window_observe(
        self,
        t_s: float,
        name: str,
        value: float,
        labels: Labels = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> None:
        """Histogram-sample an event in the window containing ``t_s``."""
        self.timeseries.observe(t_s, name, value, labels, buckets)

    # -- profiling ---------------------------------------------------------

    def timer(self, site: str):
        return self.profile.timer(site)

    # -- tracing -----------------------------------------------------------

    def open_span(self, kind: str, **attrs: Any) -> SpanHandle:
        return self.trace.open_span(kind, **attrs)

    def record_span(self, kind: str, parent_id: int | None = None, **attrs: Any) -> int:
        return self.trace.record(kind, parent_id=parent_id, **attrs)

    # -- run event log -----------------------------------------------------

    def event(self, name: str, **fields: Any) -> None:
        """Append to the run event log, when one is wired (else a no-op)."""
        if self.events is not None:
            self.events.emit(name, **fields)

    # -- cross-process deltas ----------------------------------------------

    def snapshot_delta(self, drain: bool = True) -> dict:
        """This recorder's four pillars as one shippable delta (worker side).

        ``drain=True`` (the worker default) empties the buffers so the
        next shard's snapshot ships only its own work.
        """
        return {
            "format_version": DELTA_FORMAT_VERSION,
            "metrics": self.metrics.snapshot_delta(drain=drain),
            "timeseries": self.timeseries.snapshot_delta(drain=drain),
            "trace": self.trace.snapshot_delta(drain=drain),
            "profile": self.profile.snapshot_delta(drain=drain),
        }

    def merge_delta(self, delta: dict, extra_labels: Labels = ()) -> None:
        """Fold a worker's shipped delta into this recorder (parent side).

        Each pillar merges its own part. ``extra_labels`` (the shipping
        worker and shard) label gauge series and trace spans; counters,
        histograms, windows and profile sites merge unlabelled, so
        aggregates do not depend on the fleet width. Timers the worker left
        open count in :data:`ABANDONED_TIMERS_METRIC`.
        """
        version = delta.get("format_version")
        if version != DELTA_FORMAT_VERSION:
            raise ObsError(
                f"obs delta format version {version!r} is not the expected "
                f"{DELTA_FORMAT_VERSION} (package version drift between worker "
                f"and parent?)"
            )
        self.metrics.merge_delta(delta["metrics"], extra_labels)
        self.timeseries.merge_delta(delta["timeseries"])
        self.trace.merge_delta(delta["trace"], dict(extra_labels))
        self.profile.merge_delta(delta["profile"])
        abandoned = delta["profile"].get("abandoned", 0)
        if abandoned:
            self.metrics.inc(ABANDONED_TIMERS_METRIC, value=float(abandoned))

    # -- export ------------------------------------------------------------

    def _export_profile(self) -> None:
        """Surface the profile as gauges so one metrics file tells all.

        Gauges (not counters) so repeated flushes — heartbeats, the
        interrupt path, the final flush — stay idempotent.
        """
        for site, stats in self.profile.summary().items():
            labels = (("site", site),)
            self.metrics.set_gauge("repro_profile_calls", stats["calls"], labels)
            self.metrics.set_gauge("repro_profile_seconds", stats["total_s"], labels)

    def flush(
        self,
        metrics_path: str | Path | None = None,
        trace_path: str | Path | None = None,
        timeseries_path: str | Path | None = None,
    ) -> None:
        """Atomically write the requested artifacts (buffers are retained)."""
        if metrics_path is not None:
            self._export_profile()
            self.metrics.write_prometheus(metrics_path)
        if trace_path is not None:
            self.trace.flush(trace_path)
        if timeseries_path is not None:
            self.timeseries.write_json(timeseries_path)
        if (metrics_path, trace_path, timeseries_path) != (None, None, None):
            self.event(
                "obs_flush",
                metrics=None if metrics_path is None else str(metrics_path),
                trace=None if trace_path is None else str(trace_path),
                timeseries=(
                    None if timeseries_path is None else str(timeseries_path)
                ),
            )


NOOP_RECORDER = NoopRecorder()
"""The process-global default: observability off, zero overhead."""

_recorder: NoopRecorder | ObsRecorder = NOOP_RECORDER


def get_recorder() -> NoopRecorder | ObsRecorder:
    """The active process-global recorder (the no-op one by default)."""
    return _recorder


def set_recorder(recorder: NoopRecorder | ObsRecorder) -> None:
    """Install ``recorder`` as the process-global recorder."""
    global _recorder
    _recorder = recorder


def reset_recorder() -> None:
    """Restore the disabled default."""
    set_recorder(NOOP_RECORDER)


@contextmanager
def recording(recorder: ObsRecorder) -> Iterator[ObsRecorder]:
    """Temporarily install ``recorder`` (tests and scoped CLI runs)."""
    previous = get_recorder()
    set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
