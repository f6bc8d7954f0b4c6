"""Tests for ad match types / negative keywords, the designer dashboard,
and cross-instance determinism."""

import pytest

from repro.analytics.report import designer_dashboard
from repro.errors import ValidationError
from repro.services.ads import AdService


class TestAdMatchTypes:
    def make(self, **campaign_kwargs):
        ads = AdService()
        advertiser = ads.create_advertiser("A", 100.0)
        ads.create_campaign(
            advertiser.advertiser_id, campaign_kwargs.pop(
                "keywords", ["halo game"]),
            0.50, "Ad", "http://a.example", **campaign_kwargs,
        )
        return ads

    def test_broad_matches_any_keyword(self):
        ads = self.make(match_type="broad")
        assert ads.select_ads("best halo ever", "app")
        assert ads.select_ads("game deals", "app")
        assert not ads.select_ads("wine tasting", "app")

    def test_phrase_requires_contiguous_order(self):
        ads = self.make(match_type="phrase")
        assert ads.select_ads("buy halo game now", "app")
        assert not ads.select_ads("game halo", "app")
        assert not ads.select_ads("halo best game", "app")

    def test_exact_requires_full_equality(self):
        ads = self.make(match_type="exact")
        assert ads.select_ads("halo game", "app")
        assert ads.select_ads("game halo", "app")  # order-insensitive
        assert not ads.select_ads("halo game cheap", "app")

    def test_negative_keywords_veto(self):
        ads = self.make(match_type="broad",
                        negative_keywords=["free"])
        assert ads.select_ads("halo deals", "app")
        assert not ads.select_ads("free halo download", "app")

    def test_negative_keywords_analyzed(self):
        # "reviews" stems to "review"; the negative must track that.
        ads = self.make(negative_keywords=["reviews"])
        assert not ads.select_ads("halo review", "app")

    def test_unknown_match_type_rejected(self):
        ads = AdService()
        advertiser = ads.create_advertiser("A", 1.0)
        with pytest.raises(ValidationError):
            ads.create_campaign(advertiser.advertiser_id, ["x"], 0.1,
                                "H", "http://x.example",
                                match_type="fuzzy")

    def test_mixed_marketplace_auction(self):
        ads = AdService()
        advertiser = ads.create_advertiser("A", 100.0)
        ads.create_campaign(advertiser.advertiser_id, ["halo"],
                            0.30, "Broad", "http://b.example")
        ads.create_campaign(advertiser.advertiser_id, ["halo game"],
                            0.60, "Exact", "http://e.example",
                            match_type="exact")
        both = ads.select_ads("halo game", "app", count=2)
        assert [ad.headline for ad in both] == ["Exact", "Broad"]
        only_broad = ads.select_ads("halo news", "app", count=2)
        assert [ad.headline for ad in only_broad] == ["Broad"]


class TestDesignerDashboard:
    def test_dashboard_sections(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        for game in games[:3]:
            response = symphony.query(app_id, game, session_id="s1")
            if response.views and response.views[0].item.url:
                symphony.record_click(
                    app_id, game, response.views[0].item.url,
                    session_id="s1",
                )
        text = designer_dashboard(symphony, app_id)
        for heading in ("[Traffic]", "[Top queries]",
                        "[Rising queries", "[Click-through by "
                        "position]", "[Clicked sites]",
                        "[Monetization]"):
            assert heading in text
        assert "queries: " in text

    def test_dashboard_empty_app(self, gamerqueen):
        symphony, app_id, __ = gamerqueen
        text = designer_dashboard(symphony, app_id)
        assert "(no recent activity)" in text or "Rising" in text


class TestDeterminism:
    def test_fresh_platforms_identical_results(self, tiny_web):
        from repro.core.platform import Symphony

        def build_and_query():
            symphony = Symphony(web=tiny_web, use_authority=False)
            account = symphony.register_designer("Ann")
            games = symphony.web.entities["video_games"][:3]
            from tests.conftest import make_inventory_csv
            symphony.upload_http(
                account, "inv.csv", make_inventory_csv(games),
                "inventory", content_type="text/csv",
            )
            inventory = symphony.add_proprietary_source(
                account, "inventory", ("title",))
            session = symphony.designer().new_application(
                "D", account.tenant.tenant_id)
            slot = session.drag_source_onto_app(
                inventory.source_id, search_fields=("title",))
            session.add_text(slot, "title")
            app_id = symphony.host(session)
            return symphony.query(app_id, games[0]).html

        assert build_and_query() == build_and_query()

    def test_engine_results_identical_across_instances(self, small_web):
        from repro.searchengine.engine import SearchOptions, \
            build_engine
        a = build_engine(small_web, use_authority=True)
        b = build_engine(small_web, use_authority=True)
        for query in ("game review", "wine", "breaking report"):
            ra = a.search("web", query, SearchOptions(count=10))
            rb = b.search("web", query, SearchOptions(count=10))
            assert ra.urls() == rb.urls()
            assert [r.score for r in ra.results] == \
                [r.score for r in rb.results]
