"""Tests for click recording, traffic summaries, and referral reports."""

import pytest

from repro.core.monetization import InteractionRecorder, ReferralReport
from repro.searchengine.logs import QueryEvent, QueryLog
from repro.services.ads import AdService
from repro.util import SimClock

DAY_MS = 86_400_000


@pytest.fixture()
def setup():
    log = QueryLog()
    clock = SimClock(start_ms=0)
    ads = AdService()
    advertiser = ads.create_advertiser("A", 50.0)
    ads.create_campaign(advertiser.advertiser_id, ["game"], 0.40,
                        "Ad", "http://ad.example")
    recorder = InteractionRecorder(log, clock, ad_service=ads)
    return log, clock, ads, recorder


class TestRecording:
    def test_click_logged(self, setup):
        log, clock, ads, recorder = setup
        result = recorder.record_click("app-1", "halo",
                                       "http://shop.example/halo")
        assert result["logged"]
        assert log.clicks[-1].app_id == "app-1"
        assert not log.clicks[-1].is_ad

    def test_ad_click_credits_designer(self, setup):
        log, clock, ads, recorder = setup
        ad = ads.select_ads("game", "app-1")[0]
        result = recorder.record_click("app-1", "game", ad.url,
                                       ad_id=ad.ad_id)
        assert result["charged"] == ad.price_per_click
        assert ads.designer_earnings("app-1") > 0
        assert log.clicks[-1].is_ad

    def test_no_ad_service_earnings_zero(self):
        recorder = InteractionRecorder(QueryLog(), SimClock())
        result = recorder.record_click("app-1", "game", "http://ad.example",
                                       ad_id="ad-1")
        assert result == {"logged": True}     # logged, nothing credited


class TestSummaries:
    def fill(self, setup_tuple):
        log, clock, ads, recorder = setup_tuple
        for i, query in enumerate(["halo", "halo", "zelda"]):
            log.log_query(QueryEvent(
                timestamp_ms=clock.now_ms, query=query,
                vertical="app", app_id="app-1",
                session_id=f"s{i}",
            ))
        recorder.record_click("app-1", "halo",
                              "http://gamespot.com/halo")
        clock.advance(DAY_MS)  # next day
        recorder.record_click("app-1", "halo",
                              "http://gamespot.com/halo2")
        recorder.record_click("app-1", "zelda",
                              "http://ign.com/zelda")
        return setup_tuple

    def test_counts(self, setup):
        log, clock, ads, recorder = self.fill(setup)
        summary = recorder.summarize("app-1")
        assert summary.query_count == 3
        assert summary.click_count == 3
        assert summary.ad_click_count == 0
        assert summary.click_through_rate == 1.0

    def test_clicks_by_site(self, setup):
        __, __, __, recorder = self.fill(setup)
        summary = recorder.summarize("app-1")
        assert summary.clicks_by_site == {"gamespot.com": 2,
                                          "ign.com": 1}

    def test_clicks_by_day(self, setup):
        __, __, __, recorder = self.fill(setup)
        summary = recorder.summarize("app-1")
        assert summary.clicks_by_day == {0: 1, 1: 2}

    def test_top_queries(self, setup):
        __, __, __, recorder = self.fill(setup)
        summary = recorder.summarize("app-1", top_n_queries=1)
        assert summary.top_queries == (("halo", 2),)

    def test_other_apps_not_included(self, setup):
        __, __, __, recorder = self.fill(setup)
        assert recorder.summarize("app-2").query_count == 0

    def test_empty_app_ctr_zero(self, setup):
        __, __, __, recorder = setup
        assert recorder.summarize("nothing").click_through_rate == 0.0


class TestReferralReport:
    def test_rows_and_totals(self, setup):
        log, clock, ads, recorder = setup
        for __ in range(3):
            recorder.record_click("app-1", "halo",
                                  "http://gamespot.com/x")
        recorder.record_click("app-1", "halo", "http://ign.com/y")
        report = ReferralReport(recorder.summarize("app-1"),
                                rate_per_click=0.10)
        rows = report.rows()
        assert rows[0] == {"site": "gamespot.com", "clicks": 3,
                           "owed": 0.30}
        assert report.total_owed() == pytest.approx(0.40)

    def test_csv_download(self, setup):
        __, __, __, recorder = setup
        recorder.record_click("app-1", "halo", "http://gamespot.com/x")
        csv_text = ReferralReport(recorder.summarize("app-1")).to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "site,clicks,owed"
        assert lines[1].startswith("gamespot.com,1,")
