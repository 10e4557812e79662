"""``repro obs timeline`` — the windowed series as an ASCII dashboard.

One sparkline row per metric, all rows aligned on the same window axis,
plus one marker row per SLO with ``!`` at breached windows. The renderer
is pure text over the exported ``obs-timeseries.json`` document: good
enough to see the paper's temporal phenomena — the availability dip when
satellites duty-cycle down, the p99 inflation during a fault window, the
shed burst at the overload knee — without leaving the terminal.
"""

from __future__ import annotations

import math

from repro.analysis.quantiles import histogram_quantile
from repro.errors import ObsError
from repro.obs.slo import (
    BREAKER_OPENS,
    OFFERED_TOTAL,
    OVERLOAD_SHED,
    SERVE_HIT,
    SERVE_RETRIES,
    SERVE_RTT_MS,
    SERVE_TOTAL,
    SERVE_UNAVAILABLE,
    SloReport,
    _sum_counter,
    _sum_histogram,
)

_LEVELS = " .:-=+*#%@"
"""Ten brightness levels; index scales linearly between the row's min/max."""


def _sparkline(values: list[float], lo: float, hi: float) -> str:
    cells: list[str] = []
    for value in values:
        if math.isnan(value):
            cells.append(" ")  # blank = no data; real minima stay visible
        elif math.isinf(value):
            cells.append(_LEVELS[-1])  # above the largest bucket bound
        elif hi <= lo:
            cells.append(_LEVELS[len(_LEVELS) // 2])
        else:
            index = 1 + (value - lo) / (hi - lo) * (len(_LEVELS) - 2)
            cells.append(_LEVELS[int(round(index))])
    return "".join(cells)


def _downsample(values: list[float], width: int) -> list[float]:
    """Mean-pool a dense row onto at most ``width`` columns."""
    if len(values) <= width:
        return values
    chunk = math.ceil(len(values) / width)
    pooled: list[float] = []
    for start in range(0, len(values), chunk):
        group = [v for v in values[start : start + chunk] if not math.isnan(v)]
        pooled.append(sum(group) / len(group) if group else math.nan)
    return pooled


def _short(name: str) -> str:
    """A compact row label for a series outside the serve-path vocabulary."""
    return name.removeprefix("repro_").removesuffix("_total")


def _fmt(value: float, unit: str) -> str:
    if math.isnan(value):
        return "n/a"
    if math.isinf(value):
        return "inf"
    if unit == "%":
        return f"{value:.1%}"
    if unit == "ms":
        return f"{value:g}ms"
    return f"{value:g}"


class _Row:
    """One dashboard row: a label, per-window values, a display unit."""

    def __init__(self, label: str, values: list[float], unit: str) -> None:
        self.label = label
        self.values = values
        self.unit = unit

    @property
    def has_data(self) -> bool:
        if not any(not math.isnan(v) for v in self.values):
            return False
        if self.unit:
            return True
        # Pure count rows (unitless) that never fired are noise, not data.
        return any(v for v in self.values if not math.isnan(v))


def _quantile_row(
    label: str,
    q: float,
    bounds: tuple[float, ...],
    cells: dict[int, list],
    axis: list[int],
) -> _Row:
    values: list[float] = []
    for window in axis:
        cell = cells.get(window)
        if cell is None or cell[1] == 0:
            values.append(math.nan)
            continue
        cumulative: list[tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(bounds, cell[0]):
            running += bucket
            cumulative.append((bound, running))
        cumulative.append((math.inf, cell[1]))
        values.append(histogram_quantile(cumulative, cell[1], q))
    return _Row(label, values, "ms")


def render_timeline(
    doc: dict, reports: list[SloReport] | None = None, width: int = 60
) -> str:
    """The dashboard text for one time-series document.

    ``reports`` (from :func:`repro.obs.slo.evaluate_slos`) adds one marker
    row per SLO under the sparklines; ``width`` caps the number of columns
    (denser series mean-pool onto the axis) and must be at least 1.
    """
    if width < 1:
        raise ObsError(f"timeline width must be at least 1 column, got {width}")
    windows = [int(w) for w in doc.get("windows", [])]
    if not windows:
        raise ObsError("time series holds no windows; nothing to render")
    axis = list(range(windows[0], windows[-1] + 1))

    served = _sum_counter(doc, SERVE_TOTAL)
    unavailable = _sum_counter(doc, SERVE_UNAVAILABLE)
    shed = _sum_counter(doc, OVERLOAD_SHED)
    hits = _sum_counter(doc, SERVE_HIT)
    retries = _sum_counter(doc, SERVE_RETRIES)
    opens = _sum_counter(doc, BREAKER_OPENS)
    offered = _sum_counter(doc, OFFERED_TOTAL)
    bounds, cells = _sum_histogram(doc, SERVE_RTT_MS)

    def totals(window: int) -> tuple[float, float, float]:
        s = served.get(window, 0.0)
        u = unavailable.get(window, 0.0)
        d = shed.get(window, 0.0)
        return s, u, d

    def availability(window: int) -> float:
        s, u, d = totals(window)
        total = s + u + d
        return math.nan if total == 0 else s / total

    def ratio(
        num: dict[int, float], den: dict[int, float], window: int
    ) -> float:
        d = den.get(window, 0.0)
        return math.nan if d == 0 else num.get(window, 0.0) / d

    def count_row(label: str, series: dict[int, float]) -> _Row:
        values = [
            series.get(w, 0.0) if any(totals(w)) or w in series else math.nan
            for w in axis
        ]
        return _Row(label, values, "")

    request_total = {
        w: sum(totals(w)) for w in axis if any(totals(w))
    }
    rows = [
        _Row("offered/w", [offered.get(w, math.nan) for w in axis], ""),
        _Row(
            "requests/w",
            [request_total.get(w, math.nan) for w in axis],
            "",
        ),
        _Row("avail", [availability(w) for w in axis], "%"),
        _Row("hit ratio", [ratio(hits, served, w) for w in axis], "%"),
    ]
    if bounds:
        rows.append(_quantile_row("p50 rtt", 0.50, bounds, cells, axis))
        rows.append(_quantile_row("p99 rtt", 0.99, bounds, cells, axis))
    rows += [
        count_row("unavail/w", unavailable),
        count_row("shed/w", shed),
        count_row("retries/w", retries),
        _Row(
            "brk opens",
            [opens.get(w, math.nan) for w in axis],
            "",
        ),
    ]

    # Series beyond the serve-path vocabulary (fault schedules, experiment
    # extras) still get a row each, so any instrumented run renders.
    known_counters = {
        SERVE_TOTAL,
        SERVE_UNAVAILABLE,
        OVERLOAD_SHED,
        SERVE_HIT,
        SERVE_RETRIES,
        BREAKER_OPENS,
        OFFERED_TOTAL,
    }
    counter_names = {series["name"] for series in doc.get("counters", ())}
    for name in sorted(counter_names - known_counters):
        data = _sum_counter(doc, name)
        rows.append(_Row(_short(name), [data.get(w, math.nan) for w in axis], ""))
    histogram_names = {series["name"] for series in doc.get("histograms", ())}
    for name in sorted(histogram_names - {SERVE_RTT_MS}):
        extra_bounds, extra_cells = _sum_histogram(doc, name)
        rows.append(
            _quantile_row(f"{_short(name)} p50", 0.50, extra_bounds, extra_cells, axis)
        )

    rows = [row for row in rows if row.has_data]
    if not rows:
        raise ObsError("time series holds no renderable metrics")

    label_width = max(len(row.label) for row in rows)
    if reports:
        label_width = max(
            label_width, *(len(f"slo {r.spec.metric}") for r in reports)
        )
    window_s = float(doc.get("window_s", 0.0))
    lines = [
        f"windows {axis[0]}..{axis[-1]}  ({len(axis)} x {window_s:g}s simulated)",
    ]
    for row in rows:
        pooled = _downsample(row.values, width)
        present = [v for v in pooled if math.isfinite(v)]
        lo, hi = (min(present), max(present)) if present else (0.0, 0.0)
        spark = _sparkline(pooled, lo, hi)
        lines.append(
            f"{row.label:<{label_width}} |{spark}| "
            f"{_fmt(lo, row.unit)}..{_fmt(hi, row.unit)}"
        )
    for report in reports or ():
        breached = set(report.breached_windows)
        evaluated = {v.window for v in report.verdicts}
        marks = [
            math.nan if w not in evaluated else (1.0 if w in breached else 0.0)
            for w in axis
        ]
        pooled = _downsample(marks, width)
        cells_out = "".join(
            " " if math.isnan(v) else ("!" if v > 0 else ".") for v in pooled
        )
        label = f"slo {report.spec.metric}"
        verdict = (
            f"BREACH x{len(breached)}" if breached else "ok"
        )
        lines.append(f"{label:<{label_width}} |{cells_out}| {verdict}")
    lines.append(f"scale: low '{_LEVELS[1]}' .. high '{_LEVELS[-1]}'; '!' = SLO breach")
    return "\n".join(lines)
