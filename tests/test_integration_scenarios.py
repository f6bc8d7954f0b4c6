"""Integration tests: the paper's scenarios end-to-end.

* §II-B/II-C — Ann's GamerQueen video-game store (primary inventory +
  focused review search + live pricing + ads + click monetization);
* §I — the wine connoisseur's monetized search vertical;
* Conclusions — usage logs feeding relevance signals back to the engine.
"""

import pytest

from repro.core.datasources import SourceKind
from repro.services.samples import PricingService

from tests.conftest import make_inventory_csv


class TestGamerQueenFullScenario:
    """The complete §II-B walkthrough on one platform instance."""

    @pytest.fixture()
    def scenario(self, symphony):
        sym = symphony
        sym.bus.register(PricingService(seed=5))
        ann = sym.register_designer("Ann")
        games = sym.web.entities["video_games"][:6]

        # 1. Register proprietary inventory data with Symphony.
        sym.upload_http(ann, "inventory.csv", make_inventory_csv(games),
                        "inventory", content_type="text/csv")

        # 2. Configure data sources.
        inventory = sym.add_proprietary_source(
            ann, "inventory",
            search_fields=("title", "producer", "description"),
        )
        reviews = sym.add_web_source(
            "Game reviews", "web",
            sites=("gamespot.com", "ign.com", "teamxbox.com"),
        )
        pricing = sym.add_service_source(
            "Live pricing", "pricing", "GET /prices/{sku}", "sku",
            item_fields=("sku", "price", "stock", "in_stock"),
            title_field="sku",
        )
        ads = sym.add_ad_source()
        advertiser = sym.ads.create_advertiser("GameCo", 50.0)
        sym.ads.create_campaign(
            advertiser.advertiser_id,
            [games[0], "game"], 0.40, "GameCo Megastore",
            "http://gameco.example",
        )

        # 3. Design the application via drag-and-drop.
        designer = sym.designer()
        session = designer.new_application("GamerQueen",
                                           ann.tenant.tenant_id)
        slot = session.drag_source_onto_app(
            inventory.source_id, heading="Games", max_results=4,
            search_fields=("title", "producer", "description"),
        )
        session.add_hyperlink(slot, "title", href_field="detail_url",
                              font_weight="bold")
        session.add_image(slot, "image_url")
        session.add_text(slot, "description", color="#444")
        session.drag_source_onto_result_layout(
            slot, reviews.source_id, drive_fields=("title",),
            heading="Reviews from the web", max_results=2,
            query_suffix="review",
        )
        session.drag_source_onto_result_layout(
            slot, pricing.source_id, drive_fields=("title",),
            max_results=1,
        )
        session.drag_source_onto_app(ads.source_id,
                                     heading="Sponsored")
        assert session.validate() == []

        # 4. Host and publish.
        app_id = sym.host(session)
        snippet = sym.publish_embed(app_id)
        sym.publish_social(app_id)
        return sym, app_id, games, snippet

    def test_customer_query_returns_enriched_results(self, scenario):
        sym, app_id, games, __ = scenario
        response = sym.query(app_id, games[0], session_id="customer-1")
        assert response.views
        view = response.views[0]
        supplemental = list(view.supplemental.values())
        review_result = supplemental[0]
        pricing_result = supplemental[1]
        assert review_result.items, "focused review search must hit"
        assert all(
            item.get("site") in
            ("gamespot.com", "ign.com", "teamxbox.com")
            for item in review_result.items
        )
        assert pricing_result.items[0].fields["price"] > 0

    def test_html_is_complete_page_fragment(self, scenario):
        sym, app_id, games, __ = scenario
        response = sym.query(app_id, games[0])
        html = response.html
        assert html.count("symphony-result") >= 1
        assert "symphony-supplemental" in html
        assert "symphony-ads" in html
        assert "<img" in html

    def test_trace_shows_fig2_flow(self, scenario):
        sym, app_id, games, __ = scenario
        trace = sym.query(app_id, games[0]).trace
        names = [s.name for s in trace.stages]
        assert names == ["receive", "primary", "supplemental", "ads",
                         "merge+render", "respond"]
        supplemental = trace.stage("supplemental")
        primary = trace.stage("primary")
        assert supplemental.elapsed_ms > primary.elapsed_ms

    def test_embed_snippet_routes_to_app(self, scenario):
        sym, app_id, __, snippet = scenario
        resolved = sym.router.resolve(f"/apps/{app_id}/query",
                                      snippet.embed_key)
        assert resolved == app_id

    def test_monetization_cycle(self, scenario):
        sym, app_id, games, __ = scenario
        response = sym.query(app_id, games[0], session_id="c1")
        item_url = response.views[0].item.get("detail_url")
        sym.record_click(app_id, games[0], item_url, session_id="c1")
        if response.ads:
            ad = response.ads[0]
            sym.record_click(app_id, games[0], ad.url,
                             ad_id=ad.get("ad_id"))
            assert sym.designer_ad_earnings(app_id) > 0
        summary = sym.traffic_summary(app_id)
        assert summary.click_count >= 1
        assert "gamerqueen.example" in summary.clicks_by_site
        report = sym.referral_report(app_id)
        assert report.total_owed() > 0

    def test_cache_accelerates_repeat_queries(self, scenario):
        sym, app_id, games, __ = scenario
        cold = sym.query(app_id, games[1])
        warm = sym.query(app_id, games[1])
        assert warm.trace.cache_hits > 0
        assert warm.trace.total_ms() < cold.trace.total_ms()
        assert warm.html == cold.html

    def test_every_inventory_title_gets_reviews(self, scenario):
        sym, app_id, games, __ = scenario
        for game in games:
            response = sym.query(app_id, game)
            matching = [v for v in response.views
                        if v.item.get("title") == game]
            assert matching, game
            reviews = list(matching[0].supplemental.values())[0]
            assert reviews.items, f"no reviews for {game}"


class TestWineVerticalScenario:
    """§I: 'A wine connoisseur may create and embed in her web site a
    specialized search vertical... and may be able to monetize her
    efforts'."""

    @pytest.fixture()
    def scenario(self, symphony_small):
        sym = symphony_small
        connoisseur = sym.register_designer("Claire")
        wines = sym.web.entities["wine"][:6]
        rows = "name,region,notes\n" + "\n".join(
            f'{w},Region {i},"elegant {w} with long finish"'
            for i, w in enumerate(wines)
        )
        sym.upload_http(connoisseur, "cellar.csv", rows.encode(),
                        "cellar", content_type="text/csv")
        cellar = sym.add_proprietary_source(
            connoisseur, "cellar", search_fields=("name", "notes")
        )
        wine_web = sym.add_web_source(
            "Wine articles", "web",
            sites=("winespectator.example", "cellartracker.example"),
        )
        designer = sym.designer()
        session = designer.new_application(
            "Claire's Cellar", connoisseur.tenant.tenant_id
        )
        session.apply_template("storefront")
        slot = session.drag_source_onto_app(
            cellar.source_id, heading="From the cellar",
            search_fields=("name", "notes"), max_results=3,
        )
        session.add_hyperlink(slot, "name")
        session.add_text(slot, "notes", font_style="italic")
        session.drag_source_onto_result_layout(
            slot, wine_web.source_id, drive_fields=("name",),
            heading="Tasting notes from the web", max_results=2,
        )
        app_id = sym.host(session)
        return sym, app_id, wines

    def test_vertical_answers_wine_queries(self, scenario):
        sym, app_id, wines = scenario
        response = sym.query(app_id, wines[0])
        assert response.views
        assert response.views[0].item.get("name") == wines[0]
        supplemental = list(response.views[0].supplemental.values())[0]
        assert all(
            item.get("site") in ("winespectator.example",
                                 "cellartracker.example")
            for item in supplemental.items
        )

    def test_storefront_theme_applied(self, scenario):
        sym, app_id, wines = scenario
        html = sym.query(app_id, wines[0]).html
        assert "#b12704" in html  # storefront heading colour

    def test_referral_monetization(self, scenario):
        sym, app_id, wines = scenario
        response = sym.query(app_id, wines[0])
        supplemental = list(response.views[0].supplemental.values())[0]
        for item in supplemental.items:
            sym.record_click(app_id, wines[0], item.url)
        report = sym.referral_report(app_id, rate_per_click=0.02)
        assert report.total_owed() == pytest.approx(
            0.02 * len(supplemental.items)
        )


class TestLogFeedbackLoop:
    """Conclusions: app usage becomes engine-level relevance signal."""

    def test_community_clicks_change_general_ranking(self,
                                                     symphony_small):
        from repro.analytics import (LogAggregator,
                                     RelevanceSignalExporter)
        from repro.searchengine.engine import SearchOptions
        sym = symphony_small
        entity = sym.web.entities["video_games"][3]
        baseline = sym.engine.search("web", f'"{entity}"',
                                     SearchOptions(count=10))
        assert len(baseline.results) >= 2
        target = baseline.results[-1].url
        for i in range(8):
            sym.record_click("app-x", entity, target,
                             session_id=f"s{i}")
        profiles = [LogAggregator(sym.engine.log).profile("app-x")]
        RelevanceSignalExporter(max_boost=3.0).apply_to_engine(
            sym.engine, profiles
        )
        boosted = sym.engine.search("web", f'"{entity}"',
                                    SearchOptions(count=10))
        score_of = lambda resp: next(  # noqa: E731
            r.score for r in resp.results if r.url == target
        )
        assert score_of(boosted) > score_of(baseline)
        assert boosted.urls().index(target) <= \
            baseline.urls().index(target)


class TestMultiTenantIsolation:
    def test_two_designers_same_table_name(self, symphony):
        sym = symphony
        ann = sym.register_designer("Ann")
        bea = sym.register_designer("Bea")
        games = sym.web.entities["video_games"]
        sym.upload_http(ann, "inv.csv",
                        make_inventory_csv(games[:2], with_urls=False),
                        "inventory", content_type="text/csv")
        sym.upload_http(bea, "inv.csv",
                        make_inventory_csv(games[2:4], with_urls=False),
                        "inventory", content_type="text/csv")
        ann_titles = {r.values["title"]
                      for r in ann.tenant.table("inventory")}
        bea_titles = {r.values["title"]
                      for r in bea.tenant.table("inventory")}
        assert ann_titles.isdisjoint(bea_titles)

    def test_sources_see_only_their_tenant_data(self, symphony):
        sym = symphony
        ann = sym.register_designer("Ann")
        bea = sym.register_designer("Bea")
        games = sym.web.entities["video_games"]
        sym.upload_http(ann, "inv.csv",
                        make_inventory_csv([games[0]], with_urls=False),
                        "inventory", content_type="text/csv")
        sym.upload_http(bea, "inv.csv",
                        make_inventory_csv([games[1]], with_urls=False),
                        "inventory", content_type="text/csv")
        ann_source = sym.add_proprietary_source(ann, "inventory",
                                                ("title",))
        from repro.core.datasources import SourceQuery
        result = ann_source.search(SourceQuery(games[1]))
        assert result.total_matches == 0


class TestSourceKindCoverage:
    def test_platform_exposes_every_source_kind(self, symphony):
        sym = symphony
        account = sym.register_designer("Ann")
        games = sym.web.entities["video_games"][:2]
        sym.upload_http(account, "inv.csv",
                        make_inventory_csv(games, with_urls=False),
                        "inventory", content_type="text/csv")
        sym.add_proprietary_source(account, "inventory", ("title",))
        for vertical in ("web", "image", "video", "news"):
            sym.add_web_source(f"{vertical} source", vertical)
        sym.bus.register(PricingService())
        sym.add_service_source("P", "pricing", "GET /prices/{sku}",
                               "sku")
        sym.add_ad_source()
        sym.add_customer_source()
        kinds = {sym.sources.get(sid).kind
                 for sid in sym.sources.ids()}
        assert kinds == set(SourceKind)
