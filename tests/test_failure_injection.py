"""Failure-injection tests: the platform under partial outage.

The hosted-execution promise only matters if Symphony degrades
gracefully: flaky transports must fail loudly at ingest time, flaky
services must degrade to empty slots at query time, and crawl failures
must not poison the collected rows.
"""

import pytest

from repro.core.platform import Symphony
from repro.errors import IngestError, ServiceError, TransportError
from repro.ingest.crawler import CrawlPolicy, Crawler
from repro.ingest.pipeline import DatasetIngestor
from repro.ingest.transports import FaultPolicy, HttpUploadChannel
from repro.services.bus import ServiceBus
from repro.services.samples import PricingService
from repro.storage.tenant import Tenant
from repro.util import SimClock

from tests.conftest import make_inventory_csv


class TestTransportFaults:
    def test_failed_upload_raises_before_any_state_change(self):
        tenant = Tenant("t", "Ann")
        channel = HttpUploadChannel(
            faults=FaultPolicy(fail_probability=1.0, seed=1)
        )
        with pytest.raises(TransportError):
            channel.post_file("inv.csv", b"title\nHalo\n")
        assert not tenant.has_table("inventory")

    def test_truncated_csv_fails_parse_not_partial_load(self):
        """A truncation mid-record must reject the upload, not load a
        half-broken table."""
        tenant = Tenant("t", "Ann")
        data = b"title,price\n" + b"Game X,10.00\n" * 50
        channel = HttpUploadChannel(
            faults=FaultPolicy(truncate_probability=1.0, seed=2)
        )
        payload = channel.post_file("inv.csv", data, "text/csv")
        assert len(payload.data) < len(data)
        ingestor = DatasetIngestor(tenant)
        try:
            report = ingestor.ingest(payload, "inventory")
        except IngestError:
            # Truncation split a row — the whole upload is rejected.
            assert not tenant.has_table("inventory")
        else:
            # Truncation happened to land on a row boundary; the rows
            # that arrived loaded consistently.
            assert report.inserted == len(tenant.table("inventory"))

    def test_intermittent_faults_eventually_succeed(self):
        channel = HttpUploadChannel(
            faults=FaultPolicy(fail_probability=0.5, seed=3)
        )
        outcomes = []
        for __ in range(20):
            try:
                channel.post_file("a.csv", b"title\nX\n")
                outcomes.append(True)
            except TransportError:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)


class TestServiceOutages:
    def test_flaky_bus_surfaces_service_error(self):
        bus = ServiceBus(failure_probability=1.0, seed=5)
        bus.register(PricingService())
        with pytest.raises(ServiceError):
            bus.invoke("pricing", "GET /prices/halo", {})
        assert bus.stats("pricing").failures == 1

    def test_app_survives_total_supplemental_outage(self, tiny_web):
        symphony = Symphony(web=tiny_web, use_authority=False)
        symphony.bus = ServiceBus(clock=symphony.clock,
                                  failure_probability=1.0, seed=7)
        symphony.bus.register(PricingService())
        account = symphony.register_designer("Ann")
        games = symphony.web.entities["video_games"][:3]
        symphony.upload_http(account, "inv.csv",
                             make_inventory_csv(games), "inventory",
                             content_type="text/csv")
        inventory = symphony.add_proprietary_source(
            account, "inventory", ("title",))
        pricing = symphony.add_service_source(
            "Pricing", "pricing", "GET /prices/{sku}", "sku")
        session = symphony.designer().new_application(
            "Shop", account.tenant.tenant_id)
        slot = session.drag_source_onto_app(
            inventory.source_id, search_fields=("title",))
        session.add_text(slot, "title")
        session.drag_source_onto_result_layout(
            slot, pricing.source_id, drive_fields=("title",))
        app_id = symphony.host(session)

        response = symphony.query(app_id, games[0])
        assert response.views  # primary content intact
        assert any("failed" in w for w in response.trace.warnings)
        supplemental = list(
            response.views[0].supplemental.values())[0]
        assert supplemental.items == ()

    def test_partial_outage_some_queries_succeed(self, tiny_web):
        symphony = Symphony(web=tiny_web, use_authority=False)
        symphony.bus = ServiceBus(clock=symphony.clock,
                                  failure_probability=0.5, seed=11)
        symphony.bus.register(PricingService())
        successes = failures = 0
        for i in range(20):
            try:
                symphony.bus.invoke("pricing",
                                    f"GET /prices/sku-{i}", {})
                successes += 1
            except ServiceError:
                failures += 1
        assert successes > 0 and failures > 0

    def test_failed_supplemental_not_cached(self, tiny_web):
        """An outage response must not poison the cache."""
        symphony = Symphony(web=tiny_web, use_authority=False)
        flaky_bus = ServiceBus(clock=symphony.clock,
                               failure_probability=1.0, seed=13)
        flaky_bus.register(PricingService())
        symphony.bus = flaky_bus
        account = symphony.register_designer("Ann")
        games = symphony.web.entities["video_games"][:2]
        symphony.upload_http(account, "inv.csv",
                             make_inventory_csv(games), "inventory",
                             content_type="text/csv")
        inventory = symphony.add_proprietary_source(
            account, "inventory", ("title",))
        pricing = symphony.add_service_source(
            "Pricing", "pricing", "GET /prices/{sku}", "sku")
        session = symphony.designer().new_application(
            "Shop", account.tenant.tenant_id)
        slot = session.drag_source_onto_app(
            inventory.source_id, search_fields=("title",))
        session.add_text(slot, "title")
        session.drag_source_onto_result_layout(
            slot, pricing.source_id, drive_fields=("title",))
        app_id = symphony.host(session)

        first = symphony.query(app_id, games[0])
        assert any("failed" in w for w in first.trace.warnings)
        # Service recovers.
        healthy_bus = ServiceBus(clock=symphony.clock)
        healthy_bus.register(PricingService())
        pricing._bus = healthy_bus
        second = symphony.query(app_id, games[0])
        supplemental = list(
            second.views[0].supplemental.values())[0]
        assert supplemental.items  # fresh data, not the cached failure


class TestCrawlerFaults:
    def test_half_failed_crawl_still_collects(self, small_web):
        seeds = [p.url for p in small_web.pages_on("gamespot.com")[:4]]
        crawler = Crawler(small_web, clock=SimClock())
        result = crawler.crawl(seeds, CrawlPolicy(
            max_pages=30, fetch_failure_probability=0.5, seed=17,
        ))
        assert result.pages and result.failed
        # Every collected row is complete (no partial records).
        for row in result.pages:
            assert row["url"] and row["title"] and row["site"]

    def test_total_crawl_failure_yields_empty_not_crash(self,
                                                        small_web):
        seeds = [p.url for p in small_web.pages_on("gamespot.com")[:3]]
        crawler = Crawler(small_web, clock=SimClock())
        result = crawler.crawl(seeds, CrawlPolicy(
            max_pages=30, fetch_failure_probability=1.0, seed=19,
        ))
        assert result.pages == []
        assert len(result.failed) == 3
