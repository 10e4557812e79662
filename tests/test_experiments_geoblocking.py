"""Tests for the geo-blocking prevalence experiment."""

import pytest

from repro.experiments import geoblocking


@pytest.fixture(scope="module")
def result():
    return geoblocking.run()


class TestGeoblockingExperiment:
    def test_every_covered_country_evaluated(self, result):
        from repro.geo.datasets.cities import all_cities
        from repro.geo.datasets.countries import starlink_covered_countries

        countries_with_cities = {c.iso2 for c in all_cities()}
        expected = {
            c.iso2
            for c in starlink_covered_countries()
            if c.iso2 in countries_with_cities
        }
        assert set(result.misblocked) == expected

    def test_frankfurt_served_africa_misblocked(self, result):
        for iso2 in ("MZ", "KE", "ZM", "RW", "MW", "BW", "MG"):
            assert result.misblocked[iso2], iso2
            assert result.exit_countries[iso2] == "DE"

    def test_local_pop_countries_fine(self, result):
        for iso2 in ("US", "DE", "ES", "JP", "GB", "AU", "NZ"):
            assert not result.misblocked[iso2], iso2

    def test_same_region_exit_is_fine(self, result):
        # Cyprus exits at Frankfurt, but DE is in Cyprus's licence region
        # (europe), so home content stays reachable.
        assert result.exit_countries["CY"] == "DE"
        assert not result.misblocked["CY"]

    def test_cross_region_exit_misblocks(self, result):
        # Caribbean countries exit in the US: different licence region.
        for iso2 in ("HT", "DO", "JM"):
            assert result.misblocked[iso2]
            assert result.exit_countries[iso2] == "US"

    def test_rate_consistent(self, result):
        expected = sum(result.misblocked.values()) / len(result.misblocked)
        assert result.misblock_rate() == pytest.approx(expected)

    def test_affected_sorted(self, result):
        affected = result.affected_countries()
        assert affected == sorted(affected)
        assert all(result.misblocked[iso2] for iso2 in affected)

    def test_format(self, result):
        text = geoblocking.format_result(result)
        assert "MISBLOCKED" in text
        assert "%" in text

    def test_cli_integration(self, capsys):
        from repro.cli import main

        assert main(["run", "geoblocking"]) == 0
        assert "Mozambique" in capsys.readouterr().out
