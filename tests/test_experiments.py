"""End-to-end tests of the per-figure experiment harnesses (small scale).

Each test asserts the *shape* the paper reports, at reduced sample sizes so
the suite stays fast. The full-scale reproductions run in benchmarks/.
"""

import math

import pytest

from repro.constants import CDN_SERVER_THINK_TIME_MS
from repro.experiments import (
    figure2,
    figure3,
    figure4,
    figure5,
    figure7,
    figure8,
    table1,
)
from repro.experiments.shells import shell1_epochs, shell1_snapshot
from repro.measurements.aim import STARLINK, TERRESTRIAL
from repro.network.access import access_latency_ms
from repro.orbits.visibility import nearest_visible_satellite
from repro.simulation.sampler import seeded_rng, user_sample_points
from repro.spacecdn.dutycycle import DutyCycleScheduler
from serve_reference import ReferenceCdn
from topology_reference import full_rows

SEED = 7
TESTS_PER_CITY = 10


@pytest.fixture(scope="module")
def table1_result():
    return table1.run(seed=SEED, tests_per_city=TESTS_PER_CITY)


@pytest.fixture(scope="module")
def figure2_result():
    return figure2.run(seed=SEED, tests_per_city=TESTS_PER_CITY)


class TestTable1:
    def test_all_countries_present(self, table1_result):
        assert len(table1_result.rows) == 11

    def test_starlink_distance_penalty_where_no_pop(self, table1_result):
        rows = {r.iso2: r for r in table1_result.rows}
        for iso2 in ("MZ", "KE", "ZM", "HT", "CY"):
            assert rows[iso2].starlink_distance_km > 3 * rows[iso2].terrestrial_distance_km
            assert rows[iso2].starlink_min_rtt_ms > 2 * rows[iso2].terrestrial_min_rtt_ms

    def test_local_pop_countries_near_parity_distance(self, table1_result):
        rows = {r.iso2: r for r in table1_result.rows}
        for iso2 in ("ES", "JP"):
            assert rows[iso2].starlink_distance_km < 600
            assert rows[iso2].starlink_min_rtt_ms < 45

    def test_mozambique_matches_paper_regime(self, table1_result):
        row = next(r for r in table1_result.rows if r.iso2 == "MZ")
        assert 7500 < row.starlink_distance_km < 10000  # paper: 8776 km
        assert 100 < row.starlink_min_rtt_ms < 170  # paper: 138.7 ms

    def test_format_contains_paper_columns(self, table1_result):
        text = table1.format_result(table1_result)
        assert "paper" in text
        assert "Mozambique" in text


class TestFigure2:
    def test_terrestrial_faster_almost_everywhere(self, figure2_result):
        positive = sum(1 for d in figure2_result.deltas_ms.values() if d > 0)
        assert positive / len(figure2_result.deltas_ms) > 0.9

    def test_typical_delta_tens_of_ms(self, figure2_result):
        # Paper: "typically around 50 ms".
        assert 25.0 < figure2_result.median_delta_ms() < 70.0

    def test_african_isl_countries_worst(self, figure2_result):
        # Paper: 120-150 ms deltas in Kenya, Mozambique, Zambia.
        deltas = figure2_result.deltas_ms
        worst = sorted(deltas, key=deltas.get, reverse=True)[:8]
        assert {"MZ", "ZM", "KE"} & set(worst)
        assert figure2_result.deltas_ms["MZ"] > 90.0
        assert figure2_result.deltas_ms["ZM"] > 70.0

    def test_nigeria_is_the_outlier(self, figure2_result):
        assert figure2_result.countries_where_starlink_faster() == ["NG"]

    def test_format(self, figure2_result):
        text = figure2.format_result(figure2_result)
        assert "delta" in text.lower()


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return figure3.run(seed=SEED, samples_per_site=12)

    def test_starlink_optimal_is_frankfurt(self, result):
        name, latency = result.optimal_site(STARLINK)
        assert name == "Frankfurt"
        assert 130.0 < latency < 190.0  # paper: ~160 ms

    def test_terrestrial_optimal_is_maputo(self, result):
        name, latency = result.optimal_site(TERRESTRIAL)
        assert name == "Maputo"
        assert 10.0 < latency < 35.0  # paper: ~20 ms

    def test_starlink_african_sites_worse_than_frankfurt(self, result):
        # Paper Fig. 3a: African CDNs exceed 250 ms over Starlink.
        for site in ("Cape Town", "Johannesburg", "Nairobi"):
            assert result.starlink_ms[site] > result.starlink_ms["Frankfurt"] + 50.0

    def test_starlink_european_sites_cheaper_than_african(self, result):
        # Paper: "we observe shorter latencies to other CDN locations in
        # Europe (e.g. Lisbon)".
        assert result.starlink_ms["Lisbon"] < result.starlink_ms["Cape Town"]

    def test_terrestrial_johannesburg_regime(self, result):
        assert 30.0 < result.terrestrial_ms["Johannesburg"] < 90.0  # paper: ~70 ms

    def test_invalid_samples_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            figure3.run(samples_per_site=0)


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        return figure4.run(seed=SEED, rounds=2)

    def test_countries_present(self, result):
        assert set(result.differences_ms) == set(figure4.FIGURE4_COUNTRIES)

    def test_terrestrial_wins_in_pop_countries(self, result):
        for iso2 in ("US", "CA", "GB", "DE"):
            assert 10.0 < result.median_difference_ms(iso2) < 110.0

    def test_nigeria_starlink_faster(self, result):
        assert result.median_difference_ms("NG") < 0.0
        assert result.countries_where_starlink_faster() == ["NG"]

    def test_cdf_accessible(self, result):
        cdf = result.cdf("DE")
        assert 0.0 <= cdf.at(0.0) <= 0.3


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return figure5.run(seed=SEED, rounds=2)

    def test_gap_matches_paper_order(self, result):
        # Paper: median FCP ~200 ms higher over Starlink in DE and GB.
        for iso2 in ("DE", "GB"):
            assert 120.0 < result.median_gap_ms(iso2) < 350.0

    def test_summaries_have_both_isps(self, result):
        assert ("DE", STARLINK) in result.fcp_summaries
        assert ("GB", TERRESTRIAL) in result.fcp_summaries

    def test_fcp_magnitudes_sane(self, result):
        for summary in result.fcp_summaries.values():
            assert 100.0 < summary.median < 2000.0


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return figure7.run(seed=SEED, users_per_epoch=8, num_epochs=2)

    def test_first_sat_fastest(self, result):
        assert result.cdf(0).quantile(0.5) < 25.0

    def test_five_hops_beats_terrestrial_tail(self, result):
        # Paper: SpaceCDN at <=5 hops outperforms terrestrial in the tail.
        assert result.cdf(5).quantile(0.95) < result.cdf(TERRESTRIAL).quantile(0.95)

    def test_ten_hops_about_half_starlink(self, result):
        # Paper: 10 ISL hops offers ~half the (whole-CDF) Starlink latency.
        ratio = result.cdf(10).quantile(0.5) / result.cdf(STARLINK).quantile(0.5)
        assert 0.25 < ratio < 0.75

    def test_spacecdn_beats_starlink_everywhere(self, result):
        for q in (0.25, 0.5, 0.75, 0.95):
            assert result.cdf(5).quantile(q) < result.cdf(STARLINK).quantile(q)


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return figure8.run(seed=SEED, users_per_epoch=8, num_epochs=2)

    def test_all_fractions_present(self, result):
        assert set(result.rtt_summaries) == {0.3, 0.5, 0.8}

    def test_latency_decreases_with_fraction(self, result):
        assert (
            result.rtt_summaries[0.8].median
            < result.rtt_summaries[0.5].median
            < result.rtt_summaries[0.3].median
        )

    def test_half_fleet_competitive(self, result):
        # Paper: >= 50% duty-cycling caches are competitive with terrestrial.
        assert 0.5 in result.competitive_fractions()
        assert 0.8 in result.competitive_fractions()

    def test_terrestrial_reference_finite(self, result):
        assert not math.isnan(result.terrestrial_median_ms)
        assert 10.0 < result.terrestrial_median_ms < 60.0


def _figure7_per_user(epoch, users):
    """Fig. 7 the plain way: one visibility query and one single-source
    routing pass per user, no shared matrices."""
    snapshot = shell1_snapshot(epoch)
    samples = {n: [] for n in figure7.HOP_COUNTS}
    for user in users:
        access = nearest_visible_satellite(snapshot.constellation, user, epoch)
        access_ms = access_latency_ms(access.slant_range_km)
        hops, lats = full_rows(snapshot.core, access.index, snapshot.active_mask)
        for n in figure7.HOP_COUNTS:
            at_n = lats[hops == n]
            if at_n.size:
                samples[n].append(
                    float(2.0 * (access_ms + at_n.min()) + CDN_SERVER_THINK_TIME_MS)
                )
    return samples


def _figure8_per_user(epoch, users, seed):
    """Fig. 8 the plain way: per user, the nearest visible satellite, one
    single-source routing pass from it and the cheapest active cache."""
    snapshot = shell1_snapshot(epoch)
    samples = {}
    for fraction in figure8.CACHE_FRACTIONS:
        scheduler = DutyCycleScheduler(
            total_satellites=len(snapshot.constellation),
            cache_fraction=fraction,
            seed=seed,
        )
        caches = sorted(scheduler.active_caches_at(epoch))
        samples[fraction] = []
        for user in users:
            access = nearest_visible_satellite(snapshot.constellation, user, epoch)
            access_ms = access_latency_ms(access.slant_range_km)
            _, lats = full_rows(snapshot.core, access.index, snapshot.active_mask)
            one_way = access_ms + lats[caches].min()
            samples[fraction].append(
                float(2.0 * one_way + CDN_SERVER_THINK_TIME_MS)
            )
    return samples


def test_figure8_epoch_shard_resolves_visibility_once(monkeypatch):
    """The access links of an epoch serve all of Fig. 8's cache fractions."""
    import sys

    from repro.orbits import visibility

    original = visibility.nearest_visible_satellites
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("repro") and (
            vars(module).get("nearest_visible_satellites") is original
        ):
            monkeypatch.setattr(module, "nearest_visible_satellites", counted)
    plan = figure8.build_plan(seed=SEED, users_per_epoch=4, num_epochs=1)
    payload = plan.run_shard("epoch-0000")
    assert [f for f, _ in payload["samples"]] == list(figure8.CACHE_FRACTIONS)
    assert len(figure8.CACHE_FRACTIONS) == 3
    assert len(calls) == 1


class TestBatchFlag:
    """The vectorised figure paths and the chaos sweep agree with plain
    per-user reference loops, and a run directory whose manifest config
    records a ``batch`` key is not resumed."""

    def test_figure7_scalar_reference_matches_batch(self):
        batched = figure7.run(
            seed=SEED, users_per_epoch=5, num_epochs=2
        ).spacecdn_rtts_ms
        scalar = {n: [] for n in figure7.HOP_COUNTS}
        for index, epoch in enumerate(shell1_epochs(2, SEED)):
            users = user_sample_points(seeded_rng(SEED, 0x717, index), 5)
            for n, values in _figure7_per_user(epoch, users).items():
                scalar[n].extend(values)
        assert set(batched) == set(scalar)
        for n in batched:
            assert batched[n] == pytest.approx(scalar[n])

    def test_figure8_scalar_reference_matches_batch(self):
        batched = figure8.run(seed=SEED, users_per_epoch=5, num_epochs=2)
        scalar = {f: [] for f in figure8.CACHE_FRACTIONS}
        for index, epoch in enumerate(shell1_epochs(2, SEED)):
            users = user_sample_points(seeded_rng(SEED, 0xF18, index), 5)
            for fraction, values in _figure8_per_user(epoch, users, SEED).items():
                scalar[fraction].extend(values)
        for fraction in batched.rtt_samples_ms:
            assert batched.rtt_samples_ms[fraction] == pytest.approx(
                scalar[fraction]
            )

    def test_chaos_scalar_reference_matches_batch(self, monkeypatch):
        """The chaos sweep served by the per-request reference walker
        prints exactly what the cohort walk prints."""
        from repro.experiments import chaos, sweep

        kwargs = dict(
            seed=SEED, num_requests=40, fractions=(0.0, 0.2), shell="small"
        )
        batched = chaos.run(**kwargs)
        monkeypatch.setattr(sweep, "SpaceCdnSystem", ReferenceCdn)
        scalar = chaos.run(**kwargs)
        assert chaos.format_result(batched) == chaos.format_result(scalar)

    def test_overload_scalar_reference_matches_batch(self, monkeypatch):
        """The overload sweep, flash crowd included, served by the
        per-request reference walker prints exactly what the cohort walk
        prints."""
        from repro.experiments import overload, sweep

        kwargs = dict(
            seed=SEED, num_requests=30, loads=(0.5, 2.0), shell="small",
            capacity=1.0, ground_capacity=3.0, flash_crowd=(60.0, 240.0, 1.0),
        )
        batched = overload.run(**kwargs)
        monkeypatch.setattr(sweep, "SpaceCdnSystem", ReferenceCdn)
        scalar = overload.run(**kwargs)
        assert overload.format_result(batched) == overload.format_result(scalar)

    def test_resumed_run_byte_identical_same_flag(self, tmp_path, capsys):
        from repro.cli import EXIT_INTERRUPTED, main

        base = [
            "run", "chaos", "--shell", "small", "--requests", "30",
            "--fractions", "0.0,0.3", "--seed", "5",
        ]
        clean = tmp_path / "clean"
        assert main(base + ["--out-dir", str(clean)]) == 0
        resumed = tmp_path / "resumed"
        assert (
            main(base + ["--out-dir", str(resumed), "--max-shards", "1"])
            == EXIT_INTERRUPTED
        )
        assert main(base + ["--out-dir", str(resumed), "--resume"]) == 0
        capsys.readouterr()
        assert (clean / "result.txt").read_bytes() == (
            resumed / "result.txt"
        ).read_bytes()

    def test_resume_refuses_flag_flip(self, tmp_path, capsys):
        """A manifest config with a ``batch`` key hashes differently from
        every current invocation, so ``--resume`` refuses the directory
        instead of silently recomputing its shards."""
        import json

        from repro.cli import EXIT_ERROR, EXIT_INTERRUPTED, main
        from repro.runner.store import config_hash

        base = [
            "run", "chaos", "--shell", "small", "--requests", "30",
            "--fractions", "0.0,0.3", "--seed", "5",
        ]
        run_dir = tmp_path / "old"
        assert (
            main(base + ["--out-dir", str(run_dir), "--max-shards", "1"])
            == EXIT_INTERRUPTED
        )
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["batch"] = True
        manifest["config_hash"] = config_hash(manifest["config"])
        manifest_path.write_text(json.dumps(manifest, indent=1))
        shards = sorted(p.name for p in (run_dir / "shards").iterdir())

        assert main(base + ["--out-dir", str(run_dir), "--resume"]) == EXIT_ERROR
        capsys.readouterr()
        assert sorted(p.name for p in (run_dir / "shards").iterdir()) == shards
        assert not (run_dir / "result.txt").exists()
