"""Tests for the Table I baseline platforms and the live probe harness."""

import pytest

from repro.baselines import (
    EureksterPlatform,
    GoogleBasePlatform,
    GoogleCustomSearchPlatform,
    RollyoPlatform,
    YahooBossPlatform,
    build_table_one,
)
from repro.baselines.probe import SymphonyProbeAdapter, format_table
from repro.core.capability import TABLE_I_ROWS
from repro.errors import UnsupportedCapabilityError


@pytest.fixture()
def entity(small_web):
    return small_web.entities["video_games"][0]


class TestYahooBoss:
    def test_api_search_with_sites(self, engine, entity):
        boss = YahooBossPlatform(engine)
        response = boss.api_search(f'"{entity}"',
                                   sites=("gamespot.com",))
        assert response.results
        assert all(r.site == "gamespot.com" for r in response.results)

    def test_ads_ride_along_when_service_present(self, engine, entity):
        from repro.services.ads import AdService
        ads = AdService()
        advertiser = ads.create_advertiser("A", 10.0)
        ads.create_campaign(advertiser.advertiser_id,
                            [entity.split()[0]], 0.2, "Ad",
                            "http://ad.example")
        boss = YahooBossPlatform(engine, ad_service=ads)
        response = boss.api_search(entity)
        assert response.ads  # mandatory ads

    def test_partner_only_upload(self, engine):
        boss = YahooBossPlatform(engine, partners=("acme",))
        with pytest.raises(UnsupportedCapabilityError):
            boss.upload_structured_data([{"a": 1}])
        assert boss.upload_structured_data(
            [{"a": 1}], partner_id="acme"
        ) == 1

    def test_no_deployment_assistance(self, engine):
        assert YahooBossPlatform(engine).deployment_options() == []


class TestRollyo:
    def test_searchroll_restricts(self, engine, entity):
        rollyo = RollyoPlatform(engine)
        roll = rollyo.create_searchroll(
            "games", ("gamespot.com", "ign.com")
        )
        response = roll.search(f'"{entity}"')
        assert response.results
        assert {r.site for r in response.results} <= \
            {"gamespot.com", "ign.com"}

    def test_site_cap_25(self, engine):
        sites = tuple(f"s{i}.example" for i in range(40))
        roll = RollyoPlatform(engine).create_searchroll("big", sites)
        assert len(roll.sites) == 25

    def test_search_box_snippet_only_deployment(self, engine):
        rollyo = RollyoPlatform(engine)
        assert rollyo.deployment_options() == ["search-box-embed"]

    def test_no_proprietary_data(self, engine):
        with pytest.raises(UnsupportedCapabilityError):
            RollyoPlatform(engine).upload_structured_data([{"a": 1}])


class TestEurekster:
    def test_policy_says_for_profit_only(self, engine):
        policy = EureksterPlatform(engine).monetization_policy()
        assert policy["ads_mandatory"] == "for-profit-only"


class TestGoogleCustom:
    def test_behaviour_tweaks(self, engine, entity):
        google = GoogleCustomSearchPlatform(engine)
        custom = google.create_engine(
            "games", sites=("gamespot.com", "ign.com"),
            augment_terms=("review",),
        )
        results = custom.search(f'"{entity}"')
        assert results
        assert {r.site for r in results} <= {"gamespot.com", "ign.com"}

    def test_preferred_urls_float_to_top(self, engine, entity):
        google = GoogleCustomSearchPlatform(engine)
        plain = google.create_engine("p", sites=("gamespot.com",
                                                 "ign.com"))
        baseline = plain.search(f'"{entity}"', count=5)
        target = baseline[-1].url
        tweaked = google.create_engine(
            "t", sites=("gamespot.com", "ign.com"),
            preferred_urls=(target,),
        )
        assert tweaked.search(f'"{entity}"', count=5)[0].url == target

    def test_no_proprietary_data(self, engine):
        with pytest.raises(UnsupportedCapabilityError):
            GoogleCustomSearchPlatform(engine).upload_structured_data(
                [{"a": 1}]
            )


class TestGoogleBase:
    def test_upload_then_surfaces_in_results(self, engine):
        base = GoogleBasePlatform(engine)
        base.upload_structured_data([
            {"title": "Vintage Wine Crate", "price": "25"},
            {"title": "Halo Poster", "price": "10"},
        ])
        page = base.search("vintage wine crate")
        assert page["base_items"]
        assert page["base_items"][0]["title"] == "Vintage Wine Crate"
        organic = base.search("wine")
        assert organic["web_results"]  # organic results still served

    def test_no_custom_sites(self, engine):
        base = GoogleBasePlatform(engine)
        with pytest.raises(UnsupportedCapabilityError):
            base.create_custom_search("x", ())

    def test_no_ui_no_monetization(self, engine):
        base = GoogleBasePlatform(engine)
        with pytest.raises(UnsupportedCapabilityError):
            base.ui_customization()
        with pytest.raises(UnsupportedCapabilityError):
            base.monetization_policy()


class TestTableOne:
    EXPECTED = {
        "Custom Sites": ["Supported", "Supported", "Supported",
                         "Supported", "Supported", "No"],
        "Monetization": [
            "Ads voluntary (revenue-sharing)",
            "Ads mandatory",
            "Show your own ads",
            "Ads mandatory for for-profit entities.",
            "Ads mandatory for for-profit entities.",
            "No",
        ],
        "Custom UI": [
            "Drag'n'drop",
            "Mashup Python library, HTML/CSS",
            "Basic styling (e.g., colors, fonts)",
            "Basic styling (e.g., colors, fonts)",
            "Basic styling (e.g., colors, fonts)",
            "No",
        ],
    }

    def build(self, symphony):
        platforms = [
            SymphonyProbeAdapter(symphony),
            YahooBossPlatform(symphony.engine,
                              ad_service=symphony.ads),
            RollyoPlatform(symphony.engine),
            EureksterPlatform(symphony.engine),
            GoogleCustomSearchPlatform(symphony.engine),
            GoogleBasePlatform(symphony.engine),
        ]
        return build_table_one(platforms)

    def test_columns_order(self, symphony):
        table = self.build(symphony)
        assert table["columns"] == [
            "Symphony", "Y! BOSS", "Rollyo", "Eurekster",
            "Google Custom", "Google Base",
        ]

    def test_all_rows_present(self, symphony):
        table = self.build(symphony)
        assert tuple(table["rows"]) == TABLE_I_ROWS

    def test_cells_match_paper(self, symphony):
        table = self.build(symphony)
        for row_name, expected in self.EXPECTED.items():
            assert table["rows"][row_name] == expected

    def test_probes_consistent_with_claims(self, symphony):
        table = self.build(symphony)
        assert table["problems"] == []

    def test_probe_outcomes_observed_behaviour(self, symphony):
        table = self.build(symphony)
        by_system = {o.system: o for o in table["outcomes"]}
        assert by_system["Symphony"].upload_worked
        assert by_system["Google Base"].upload_worked
        assert not by_system["Rollyo"].upload_worked
        assert not by_system["Google Base"].custom_sites_worked
        assert by_system["Rollyo"].custom_sites_worked

    def test_format_table_renders(self, symphony):
        text = format_table(self.build(symphony))
        assert "Symphony" in text and "Google Base" in text
        assert "Custom Sites" in text

