"""Tests for the Symphony facade: accounts, uploads, sources, hosting,
execution, monetization, Site Suggest, and capability probes."""

import pytest

from repro.errors import AuthorizationError, NotFoundError
from repro.ingest.crawler import CrawlPolicy
from repro.storage.tokens import Scope

from tests.conftest import make_inventory_csv


class TestAccounts:
    def test_register_creates_tenant_and_admin_token(self, symphony):
        account = symphony.register_designer("Ann")
        assert account.tenant.tenant_id.startswith("tenant-")
        tenant = symphony.catalog.open(
            account.token, account.tenant.tenant_id, Scope.ADMIN
        )
        assert tenant is account.tenant

    def test_designers_isolated(self, symphony):
        ann = symphony.register_designer("Ann")
        bea = symphony.register_designer("Bea")
        with pytest.raises(AuthorizationError):
            symphony.catalog.open(ann.token, bea.tenant.tenant_id,
                                  Scope.READ)


class TestUploads:
    def test_http_upload_creates_table(self, symphony, designer_account):
        games = symphony.web.entities["video_games"][:3]
        report = symphony.upload_http(
            designer_account, "inv.csv", make_inventory_csv(games),
            "inventory", content_type="text/csv",
        )
        assert report.inserted == 3
        assert designer_account.tenant.has_table("inventory")

    def test_first_upload_honours_explicit_key_field(
            self, symphony, designer_account):
        """Ungoverned tables too: one record per key from the first load
        on, compared the way the table's ``find`` compares (an indexed
        field matches case-insensitively)."""
        first = symphony.upload_http(
            designer_account, "stock.csv",
            b"sku,count\nA1,1\nB2,2\nA1,3\n", "stock",
            content_type="text/csv", key_field="sku")
        assert (first.inserted, first.updated) == (2, 1)
        delta = symphony.upload_http(
            designer_account, "delta.csv", b"sku,count\nA1,4\n", "stock",
            content_type="text/csv", key_field="sku")
        assert (delta.inserted, delta.updated) == (0, 1)
        stock = designer_account.tenant.table("stock")
        assert [(r.values["sku"], r.values["count"]) for r in stock] == [
            ("A1", 4), ("B2", 2)]

        symphony.upload_http(
            designer_account, "shelf.csv", b"sku,count\nA1,1\na1,2\n",
            "shelf", content_type="text/csv", key_field="sku",
            indexed_fields=("sku",))
        shelf = designer_account.tenant.table("shelf")
        assert [r.values["count"] for r in shelf.find("sku", "A1")] == [2]

    def test_ftp_upload(self, symphony, designer_account):
        games = symphony.web.entities["video_games"][:2]
        symphony.ftp.put("/drop/inv.csv", make_inventory_csv(games))
        report = symphony.upload_ftp(
            designer_account, "/drop/inv.csv", "inventory",
            content_type="text/csv",
        )
        assert report.inserted == 2

    def test_rss_ingest_from_simweb(self, symphony, designer_account):
        domain = next(iter(symphony.web.sites))
        report = symphony.ingest_rss_feed(
            designer_account, domain, "news_items"
        )
        assert report.inserted > 0
        table = designer_account.tenant.table("news_items")
        assert "link" in table.schema.field_names()

    def test_crawl_into_table(self, symphony, designer_account):
        seeds = [p.url
                 for p in symphony.web.pages_on("gamespot.com")[:2]]
        report = symphony.crawl_into(
            designer_account, seeds, "crawled",
            CrawlPolicy(max_pages=6),
        )
        assert 0 < report.inserted <= 6


class TestSources:
    def test_proprietary_source_requires_table(self, symphony,
                                               designer_account):
        with pytest.raises(NotFoundError):
            symphony.add_proprietary_source(
                designer_account, "missing", ("title",)
            )

    def test_source_ids_unique(self, symphony):
        a = symphony.add_web_source("A", "web")
        b = symphony.add_web_source("B", "image")
        assert a.source_id != b.source_id
        assert symphony.sources.get(a.source_id) is a

    def test_service_source_wired_to_bus(self, symphony):
        from repro.services.samples import PricingService
        symphony.bus.register(PricingService(seed=2))
        source = symphony.add_service_source(
            "Pricing", "pricing", "GET /prices/{sku}", "sku",
            item_fields=("sku", "price"),
        )
        from repro.core.datasources import SourceQuery
        result = source.search(SourceQuery("halo"))
        assert result.items[0].fields["price"] > 0

    def test_customer_source(self, symphony):
        source = symphony.add_customer_source()
        source.set_profile("u1", ("rpg",))
        assert source.rewrite("x", "u1") != "x"


class TestHostingAndExecution:
    def test_gamerqueen_end_to_end(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        response = symphony.query(app_id, games[0])
        assert response.views
        first = response.views[0]
        assert games[0].lower() in first.item.title.lower()
        supplemental = list(first.supplemental.values())[0]
        assert supplemental.items  # reviews found on restricted sites
        assert "symphony-app" in response.html

    def test_host_rejects_invalid_session(self, symphony,
                                          designer_account):
        designer = symphony.designer()
        session = designer.new_application(
            "Empty", designer_account.tenant.tenant_id
        )
        with pytest.raises(Exception):
            symphony.host(session)

    def test_publish_embed_mounts_route(self, gamerqueen):
        symphony, app_id, __ = gamerqueen
        snippet = symphony.publish_embed(app_id)
        resolved = symphony.router.resolve(
            f"/apps/{app_id}/query", snippet.embed_key
        )
        assert resolved == app_id

    def test_publish_social(self, gamerqueen):
        symphony, app_id, __ = gamerqueen
        publication = symphony.publish_social(app_id)
        assert publication.target == "facebook"
        assert "facebook.example" in publication.location

    def test_queries_logged_per_app(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        symphony.query(app_id, games[0], session_id="s1")
        app_queries = symphony.engine.log.queries_for_app(app_id)
        assert app_queries


class TestMonetizationFacade:
    def test_click_and_summary(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        response = symphony.query(app_id, games[0])
        url = response.views[0].item.get("detail_url")
        symphony.record_click(app_id, games[0], url)
        summary = symphony.traffic_summary(app_id)
        assert summary.click_count == 1
        report = symphony.referral_report(app_id, rate_per_click=0.25)
        assert report.total_owed() == 0.25

    def test_ad_flow_credits_designer(self, symphony, designer_account):
        games = symphony.web.entities["video_games"][:3]
        symphony.upload_http(
            designer_account, "inv.csv", make_inventory_csv(games),
            "inventory", content_type="text/csv",
        )
        inventory = symphony.add_proprietary_source(
            designer_account, "inventory", ("title",)
        )
        ads_source = symphony.add_ad_source()
        advertiser = symphony.ads.create_advertiser("GameCo", 20.0)
        symphony.ads.create_campaign(
            advertiser.advertiser_id, [games[0]], 0.50,
            "Buy it", "http://gameco.example",
        )
        designer = symphony.designer()
        session = designer.new_application(
            "Shop", designer_account.tenant.tenant_id
        )
        slot = session.drag_source_onto_app(inventory.source_id,
                                            search_fields=("title",))
        session.add_text(slot, "title")
        session.drag_source_onto_app(ads_source.source_id,
                                     heading="Sponsored")
        app_id = symphony.host(session)
        response = symphony.query(app_id, games[0])
        assert response.ads
        ad = response.ads[0]
        symphony.record_click(app_id, games[0], ad.url,
                              ad_id=ad.get("ad_id"))
        assert symphony.designer_ad_earnings(app_id) > 0


class TestSiteSuggestFacade:
    def test_suggest_after_usage(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        # Generate co-clicks: same query clicking two review sites.
        for game in games[:3]:
            symphony.record_click(app_id, game,
                                  f"http://gamespot.com/{game}")
            symphony.record_click(app_id, game,
                                  f"http://ign.com/{game}")
        suggestions = symphony.site_suggest(["gamespot.com"], count=3,
                                            blend_links=False)
        assert suggestions
        assert suggestions[0].site == "ign.com"

    def test_blend_links_widens_cold_start(self, symphony):
        suggestions = symphony.site_suggest(["gamespot.com"], count=3,
                                            blend_links=True)
        assert suggestions  # works with zero click history


class TestCapabilityProbes:
    def test_profile_matches_paper_claims(self, symphony):
        profile = symphony.capability_profile()
        assert profile.system == "Symphony"
        assert profile.custom_sites == "Supported"
        assert "Drag'n'drop" == profile.custom_ui

    def test_monetization_policy_voluntary_with_share(self, symphony):
        policy = symphony.monetization_policy()
        assert policy["ads_mandatory"] is False
        assert 0 < policy["revenue_share"] < 1

    def test_deployment_options(self, symphony):
        options = symphony.deployment_options()
        assert "facebook" in options and "hosted" in options

    def test_structured_upload_probe(self, symphony, designer_account):
        report = symphony.upload_structured_data(
            designer_account,
            [{"title": "Halo", "price": "49.99"}],
            "probe_data",
        )
        assert report.inserted == 1


#: The eight layer keywords of ``Symphony``.
LAYER_KEYWORDS = ("cluster", "telemetry", "resilience", "gateway",
                  "controlplane", "slo", "durability", "contracts")


def layer_shape(symphony) -> tuple:
    """What a layer keyword can change on a platform."""
    return (type(symphony.engine), symphony.telemetry.enabled,
            symphony.resilience, symphony.slo, symphony.gateway,
            symphony.controlplane, symphony.autoscaler,
            symphony.durability, symphony.runtime._slo,
            symphony.runtime.resilience)


class TestLayerKeywords:
    """Every layer keyword follows one rule: a falsy value is off."""

    @pytest.fixture(scope="class")
    def bare(self, tiny_web):
        from repro.core.platform import Symphony

        return layer_shape(Symphony(web=tiny_web, use_authority=False))

    @pytest.mark.parametrize("keyword", LAYER_KEYWORDS)
    def test_false_is_the_keyword_omitted(self, tiny_web, bare, keyword):
        from repro.core.platform import Symphony

        off = Symphony(web=tiny_web, use_authority=False,
                       **{keyword: False})
        assert layer_shape(off) == bare
