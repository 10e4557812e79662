"""Tests for the SLO spec grammar, error-budget engine, and dashboard.

Documents are built through the real :class:`TimeSeriesBuffer` export
path rather than hand-written JSON, so the evaluator is always tested
against exactly what ``repro run --obs`` writes to disk.
"""

import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ObsError
from repro.obs.dashboard import render_timeline
from repro.obs.slo import (
    OVERLOAD_SHED,
    SERVE_HIT,
    SERVE_RTT_MS,
    SERVE_TOTAL,
    SERVE_UNAVAILABLE,
    evaluate_slo,
    evaluate_slos,
    parse_slo,
    render_slo_report,
)
from repro.obs.timeseries import TimeSeriesBuffer


def build_doc(window_s=60.0, windows=()):
    """A document from per-window (served, unavailable, shed, rtts) specs."""
    ts = TimeSeriesBuffer(window_s=window_s)
    for index, (served, unavailable, shed, rtts) in enumerate(windows):
        t = index * window_s + 1.0
        if served:
            ts.inc(t, SERVE_TOTAL, value=float(served))
            ts.inc(t, SERVE_HIT, value=float(served))
        if unavailable:
            ts.inc(t, SERVE_UNAVAILABLE, (("reason", "no_sky"),), float(unavailable))
        if shed:
            ts.inc(t, OVERLOAD_SHED, (("class", "1"),), float(shed))
        for rtt in rtts:
            ts.observe(t, SERVE_RTT_MS, rtt, buckets=(10.0, 50.0, 150.0))
    return ts.to_json()


class TestParseSlo:
    def test_availability_with_span(self):
        spec = parse_slo("availability >= 99% over 30 epochs")
        assert spec.metric == "availability"
        assert spec.threshold == pytest.approx(0.99)
        assert spec.over_windows == 30
        assert spec.budget == pytest.approx(0.01)

    def test_latency_quantile(self):
        spec = parse_slo("p99 <= 150ms")
        assert spec.metric == "p99"
        assert spec.threshold == 150.0
        assert spec.over_windows == 1
        assert spec.budget == pytest.approx(0.01)

    def test_fraction_without_percent_sign(self):
        assert parse_slo("shed_fraction <= 0.05").threshold == pytest.approx(0.05)
        assert parse_slo("shed_fraction <= 5%").threshold == pytest.approx(0.05)

    def test_windows_is_an_epochs_synonym(self):
        assert parse_slo("hit_ratio >= 80% over 5 windows").over_windows == 5

    @pytest.mark.parametrize(
        "text",
        [
            "nonsense",
            "weird_metric >= 1%",
            "availability <= 99%",  # wrong direction
            "shed_fraction >= 5%",  # wrong direction
            "p99 >= 150ms",  # latency must bound from above
            "p99 <= 99%",  # latency takes ms, not %
            "availability >= 99ms",  # ratio takes %, not ms
            "availability >= 150%",  # out of [0, 1]
            "p0 <= 10ms",  # quantile out of (0, 100)
            "availability >= 99% over 0 epochs",
        ],
    )
    def test_rejects_nonsense(self, text):
        with pytest.raises(ObsError):
            parse_slo(text)


class TestRatioEvaluation:
    def test_clean_run_never_breaches(self):
        doc = build_doc(windows=[(100, 0, 0, []), (100, 0, 0, [])])
        report = evaluate_slo(doc, parse_slo("availability >= 99%"))
        assert not report.breached
        assert [v.sli for v in report.verdicts] == [1.0, 1.0]
        assert [v.burn_short for v in report.verdicts] == [0.0, 0.0]

    def test_burn_rate_is_bad_fraction_over_budget(self):
        # 5% of requests unavailable against a 1% budget: burn 5x.
        doc = build_doc(windows=[(95, 5, 0, [])])
        report = evaluate_slo(doc, parse_slo("availability >= 99%"))
        (verdict,) = report.verdicts
        assert verdict.sli == pytest.approx(0.95)
        assert verdict.burn_short == pytest.approx(5.0)
        assert verdict.breached

    def test_shed_counts_against_availability(self):
        doc = build_doc(windows=[(90, 0, 10, [])])
        report = evaluate_slo(doc, parse_slo("availability >= 99%"))
        assert report.verdicts[0].sli == pytest.approx(0.90)

    def test_shed_fraction_direction(self):
        doc = build_doc(windows=[(98, 0, 2, [])])
        ok = evaluate_slo(doc, parse_slo("shed_fraction <= 5%"))
        assert not ok.breached
        assert ok.verdicts[0].sli == pytest.approx(0.02)
        bad = evaluate_slo(doc, parse_slo("shed_fraction <= 1%"))
        assert bad.breached

    def test_multiwindow_span_aggregates_by_counts(self):
        # One awful window inside a 3-window span: the span aggregate
        # (10 bad / 300) breaches a 1% budget even though the flanking
        # windows are clean — and keeps the alarm up while in the span.
        doc = build_doc(
            windows=[(100, 0, 0, []), (90, 10, 0, []), (100, 0, 0, [])]
        )
        report = evaluate_slo(doc, parse_slo("availability >= 99% over 3 epochs"))
        assert [v.breached for v in report.verdicts] == [False, True, True]
        assert report.verdicts[1].burn_long == pytest.approx(
            (10 / 200) / 0.01
        )
        assert report.breached_windows == [1, 2]

    def test_quiet_window_is_not_a_breach(self):
        doc = build_doc(windows=[(0, 0, 0, []), (100, 0, 0, [])])
        report = evaluate_slo(doc, parse_slo("availability >= 99%"))
        # Window 0 saw no traffic at all -> no verdict rows exist for it
        # unless another series touched it; here windows come from the
        # document, so only window 1 appears.
        assert [v.window for v in report.verdicts] == [1]

    def test_hit_ratio_counts_served_misses(self):
        ts = TimeSeriesBuffer(window_s=60.0)
        ts.inc(0.0, SERVE_TOTAL, value=10.0)
        ts.inc(0.0, SERVE_HIT, value=7.0)
        report = evaluate_slo(ts.to_json(), parse_slo("hit_ratio >= 80%"))
        assert report.verdicts[0].sli == pytest.approx(0.7)
        assert report.breached

    def test_zero_budget_burn_is_infinite(self):
        doc = build_doc(windows=[(99, 1, 0, [])])
        report = evaluate_slo(doc, parse_slo("availability >= 100%"))
        assert math.isinf(report.verdicts[0].burn_short)


class TestLatencyEvaluation:
    def test_threshold_on_bucket_bound_burns_exactly(self):
        # 99 fast samples, 1 in the overflow bucket, threshold on the
        # 150ms bound: exactly 1% bad against a 1% budget -> burn 1.0,
        # and the p99 estimate resolves to the 10ms bucket, so no breach.
        doc = build_doc(windows=[(0, 0, 0, [5.0] * 99 + [200.0])])
        report = evaluate_slo(doc, parse_slo("p99 <= 150ms"))
        (verdict,) = report.verdicts
        assert verdict.burn_short == pytest.approx(1.0)
        assert verdict.sli == 10.0
        assert not verdict.breached

    def test_slow_tail_breaches_with_overflow_sli(self):
        doc = build_doc(windows=[(0, 0, 0, [5.0] * 97 + [400.0] * 3)])
        report = evaluate_slo(doc, parse_slo("p99 <= 150ms"))
        (verdict,) = report.verdicts
        assert verdict.breached
        assert verdict.sli == math.inf  # overflow bucket
        assert verdict.burn_short == pytest.approx(3.0)

    def test_sli_is_bucket_resolved_quantile(self):
        doc = build_doc(windows=[(0, 0, 0, [5.0] * 90 + [40.0] * 10)])
        report = evaluate_slo(doc, parse_slo("p50 <= 10ms"))
        assert report.verdicts[0].sli == 10.0
        assert not report.breached

    def test_missing_histogram_is_an_error(self):
        doc = build_doc(windows=[(10, 0, 0, [])])
        with pytest.raises(ObsError):
            evaluate_slo(doc, parse_slo("p99 <= 150ms"))

    def test_multiwindow_latency_span(self):
        doc = build_doc(
            windows=[(0, 0, 0, [5.0] * 100), (0, 0, 0, [200.0] * 100)]
        )
        report = evaluate_slo(doc, parse_slo("p50 <= 10ms over 2 epochs"))
        # Span at window 1 holds 50% fast / 50% slow: p50 still 10ms.
        assert not report.verdicts[1].breached
        report99 = evaluate_slo(doc, parse_slo("p99 <= 150ms over 2 epochs"))
        assert report99.verdicts[1].breached


class TestRendering:
    DOC = None

    @pytest.fixture
    def doc(self):
        return build_doc(
            windows=[
                (100, 0, 0, [5.0] * 50),
                (60, 40, 0, [5.0] * 30 + [400.0] * 10),
                (100, 0, 0, [5.0] * 50),
            ]
        )

    def test_slo_report_renders_verdicts(self, doc):
        reports = evaluate_slos(
            doc,
            [parse_slo("availability >= 99% over 2 epochs"), parse_slo("p99 <= 150ms")],
        )
        text = render_slo_report(reports, 60.0)
        assert "SLO: availability >= 0.99 over 2 epochs" in text
        assert "BREACHED in" in text
        assert "burn(2w)" in text
        # Single-window specs collapse to one burn column.
        assert text.count("burn(1w)") >= 1

    def test_empty_document_renders_no_windows(self):
        doc = TimeSeriesBuffer().to_json()
        reports = evaluate_slos(doc, [parse_slo("availability >= 99%")])
        assert "no windows recorded" in render_slo_report(reports, 60.0)

    def test_timeline_renders_rows_and_markers(self, doc):
        reports = evaluate_slos(doc, [parse_slo("availability >= 99%")])
        text = render_timeline(doc, reports, width=40)
        assert "windows 0..2" in text
        assert "avail" in text
        assert "p99 rtt" in text
        assert "slo availability" in text
        assert "BREACH x1" in text
        assert "!" in text

    def test_timeline_without_slos(self, doc):
        text = render_timeline(doc, width=40)
        assert "avail" in text
        assert "slo" not in text

    def test_timeline_downsamples_to_width(self):
        ts = TimeSeriesBuffer(window_s=1.0)
        for t in range(500):
            ts.inc(float(t), SERVE_TOTAL)
        text = render_timeline(ts.to_json(), width=30)
        row = next(line for line in text.splitlines() if "requests/w" in line)
        spark = row.split("|")[1]
        assert len(spark) <= 30

    def test_timeline_rejects_empty_document(self):
        with pytest.raises(ObsError):
            render_timeline(TimeSeriesBuffer().to_json())

    @pytest.mark.parametrize("width", ["0", "-5"])
    def test_cli_timeline_rejects_width_below_one(self, width, capsys):
        golden = Path(__file__).parent / "golden" / "chaos.obs-timeseries.json"
        assert main(["obs", "timeline", str(golden), "--width", width]) == 2
        assert "error:" in capsys.readouterr().err
