"""Benchmark: regenerate paper Fig. 7.

Latency CDFs of SpaceCDN content found on the access satellite and at 3/5/10
ISL hops, against the AIM-measured Starlink and terrestrial baselines.
"""

from repro.analysis.tables import format_cdf_points
from repro.experiments import figure7
from repro.experiments.common import DEFAULT_SEED
from repro.measurements.aim import STARLINK, TERRESTRIAL


def test_figure7(benchmark, emit):
    result = benchmark.pedantic(
        lambda: figure7.run(seed=DEFAULT_SEED, users_per_epoch=20, num_epochs=5),
        rounds=1,
        iterations=1,
    )
    emit("Figure 7: SpaceCDN vs baselines", figure7.format_result(result))
    series = {
        ("1st/Sat" if n == 0 else f"{n} ISLs"): result.cdf(n).points(9)
        for n in figure7.HOP_COUNTS
    }
    series["Starlink (AIM)"] = result.cdf(STARLINK).points(9)
    series["Terrestrial (AIM)"] = result.cdf(TERRESTRIAL).points(9)
    emit("Figure 7: CDF series", format_cdf_points(series, value_label="RTT ms"))

    # Paper claims: <=5 hops competitive with terrestrial (and better in the
    # tail); 10 hops ~half of current Starlink.
    assert result.cdf(5).quantile(0.95) < result.cdf(TERRESTRIAL).quantile(0.95)
    ratio = result.cdf(10).quantile(0.5) / result.cdf(STARLINK).quantile(0.5)
    assert 0.25 < ratio < 0.75
    for q in (0.25, 0.5, 0.75):
        assert result.cdf(5).quantile(q) < result.cdf(STARLINK).quantile(q)
