"""Tests for the service bus, REST/SOAP bindings, samples, and ads."""

import pytest

from repro.errors import (
    NotFoundError,
    ServiceError,
    ServiceFaultError,
    ValidationError,
)
from repro.services.ads import AdService
from repro.services.bus import ServiceBus
from repro.services.rest import RestService
from repro.services.samples import PricingService, ReviewArchiveService
from repro.services.soap import SoapEnvelope, SoapOperation, SoapService
from repro.util import SimClock


class EchoRest(RestService):
    name = "echo"

    def __init__(self):
        super().__init__()
        self.route("GET /echo/{word}", lambda p: {"word": p["word"],
                                                  **p})


class AdderSoap(SoapService):
    name = "adder"

    def __init__(self):
        super().__init__()
        self.operation(
            SoapOperation("Add", ("a", "b"), ("sum",)),
            lambda p: {"sum": p["a"] + p["b"]},
        )
        self.operation(
            SoapOperation("Bad", (), ("missing",)),
            lambda p: {"wrong": 1},
        )


class TestBus:
    def test_register_and_invoke(self):
        bus = ServiceBus()
        bus.register(EchoRest())
        result = bus.invoke("echo", "GET /echo/hello", {})
        assert result["word"] == "hello"

    def test_unknown_service(self):
        with pytest.raises(NotFoundError):
            ServiceBus().invoke("nope", "GET /x", {})

    def test_latency_charged(self):
        clock = SimClock(start_ms=0)
        bus = ServiceBus(clock=clock, base_latency_ms=25)
        bus.register(EchoRest())
        bus.invoke("echo", "GET /echo/x", {})
        assert clock.now_ms == 25

    def test_stats_track_calls_and_failures(self):
        bus = ServiceBus(failure_probability=1.0, seed=4)
        bus.register(EchoRest())
        with pytest.raises(ServiceError):
            bus.invoke("echo", "GET /echo/x", {})
        stats = bus.stats("echo")
        assert stats.calls == 1 and stats.failures == 1


class TestRest:
    def test_path_params_extracted(self):
        service = EchoRest()
        result = service.invoke("GET /echo/halo", {"extra": "1"})
        assert result["word"] == "halo"
        assert result["extra"] == "1"

    def test_method_mismatch_404(self):
        service = EchoRest()
        with pytest.raises(NotFoundError):
            service.invoke("POST /echo/halo", {})

    def test_describe(self):
        descriptor = EchoRest().describe()
        assert descriptor.protocol == "rest"
        assert "GET /echo/{word}" in descriptor.operations


class TestSoap:
    def test_call_and_response_envelope(self):
        service = AdderSoap()
        response = service.call(SoapEnvelope("Add", {"a": 2, "b": 3}))
        assert response.operation == "AddResponse"
        assert response.body == {"sum": 5}

    def test_missing_input_part_faults(self):
        with pytest.raises(ServiceFaultError) as excinfo:
            AdderSoap().invoke("Add", {"a": 2})
        assert excinfo.value.code == "Client.MissingPart"

    def test_missing_output_part_faults(self):
        with pytest.raises(ServiceFaultError) as excinfo:
            AdderSoap().invoke("Bad", {})
        assert excinfo.value.code == "Server.MissingPart"

    def test_unknown_operation(self):
        with pytest.raises(NotFoundError):
            AdderSoap().invoke("Nope", {})

    def test_client_over_bus(self):
        bus = ServiceBus()
        bus.register(AdderSoap())
        assert bus.invoke("adder", "Add", {"a": 1, "b": 1}) == {"sum": 2}

    def test_validation_error_becomes_fault(self):
        service = SoapService()
        service.name = "v"
        service.operation(
            SoapOperation("Op", ("x",), ("y",)),
            lambda p: (_ for _ in ()).throw(ValidationError("bad x")),
        )
        with pytest.raises(ServiceFaultError) as excinfo:
            service.invoke("Op", {"x": 1})
        assert excinfo.value.code == "Client.BadInput"


class TestSamples:
    def test_pricing_deterministic_default(self):
        service = PricingService(seed=1)
        a = service.invoke("GET /prices/halo", {})
        b = service.invoke("GET /prices/halo", {})
        assert a == b
        assert a["price"] > 0

    def test_pricing_override(self):
        service = PricingService()
        service.set_price("Halo Odyssey", 12.50, 0)
        quote = service.invoke("GET /prices/Halo Odyssey", {})
        assert quote["price"] == 12.50
        assert quote["in_stock"] is False

    def test_pricing_post_update(self):
        service = PricingService()
        service.invoke("GET /prices/x", {})
        result = service.invoke(
            "POST /prices/x", {"price": "5.00", "stock": "2"}
        )
        assert result["updated"]
        assert service.invoke("GET /prices/x", {})["stock"] == 2

    def test_review_archive_from_web(self, small_web):
        service = ReviewArchiveService(web=small_web)
        entity = small_web.entities["video_games"][0]
        result = service.invoke("GetReviews", {"entity": entity})
        assert result["reviews"]
        average = service.invoke("GetAverageScore", {"entity": entity})
        assert 3.0 <= average["average"] <= 9.8

    def test_review_archive_unknown_entity_faults(self):
        service = ReviewArchiveService()
        with pytest.raises(ServiceFaultError):
            service.invoke("GetReviews", {"entity": "Nothing"})


class TestAds:
    def make_service(self):
        ads = AdService()
        alpha = ads.create_advertiser("Alpha", 100.0)
        beta = ads.create_advertiser("Beta", 100.0)
        ads.create_campaign(alpha.advertiser_id, ["halo", "game"],
                            0.50, "Alpha Store", "http://alpha.example",
                            quality=1.0)
        ads.create_campaign(beta.advertiser_id, ["game"],
                            0.30, "Beta Deals", "http://beta.example",
                            quality=1.0)
        return ads, alpha, beta

    def test_keyword_matching(self):
        ads, *_ = self.make_service()
        selected = ads.select_ads("halo news", "app-1")
        assert [ad.headline for ad in selected] == ["Alpha Store"]

    def test_gsp_pricing_second_price_plus_penny(self):
        ads, *_ = self.make_service()
        selected = ads.select_ads("best game deals", "app-1", count=2)
        assert selected[0].headline == "Alpha Store"
        assert selected[0].price_per_click == pytest.approx(0.31)
        assert selected[1].price_per_click == pytest.approx(0.01)

    def test_price_never_exceeds_bid(self):
        ads = AdService()
        advertiser = ads.create_advertiser("A", 10.0)
        ads.create_campaign(advertiser.advertiser_id, ["x"], 0.05,
                            "Low", "http://low.example")
        other = ads.create_advertiser("B", 10.0)
        ads.create_campaign(other.advertiser_id, ["x"], 0.90,
                            "High", "http://high.example")
        selected = ads.select_ads("x", "app")
        high = next(a for a in selected if a.headline == "High")
        assert high.price_per_click <= 0.90

    def test_click_charges_and_credits(self):
        ads, alpha, __ = self.make_service()
        ad = ads.select_ads("halo", "app-1")[0]
        result = ads.record_click(ad.ad_id, now_ms=1)
        assert result["charged"] == ad.price_per_click
        assert alpha.balance == pytest.approx(
            100.0 - result["charged"]
        )
        assert ads.designer_earnings("app-1") == pytest.approx(
            result["charged"] * 0.70, abs=1e-6
        )

    def test_ledger_balances(self):
        ads, alpha, beta = self.make_service()
        for query in ("halo", "game fun", "halo game"):
            for ad in ads.select_ads(query, "app-1", count=2):
                ads.record_click(ad.ad_id)
        spend = (ads.advertiser_spend(alpha.advertiser_id)
                 + ads.advertiser_spend(beta.advertiser_id))
        payout = ads.designer_earnings("app-1")
        platform = ads.platform_revenue()
        assert spend == pytest.approx(payout + platform, abs=1e-6)

    def test_budget_exhaustion_excludes_campaign(self):
        ads = AdService()
        advertiser = ads.create_advertiser("A", 100.0)
        ads.create_campaign(advertiser.advertiser_id, ["x"], 1.0,
                            "Capped", "http://c.example",
                            daily_budget=0.02)
        ad = ads.select_ads("x", "app")[0]
        ads.record_click(ad.ad_id)  # spends the reserve price 0.01...
        ads.record_click(ad.ad_id)
        ads.record_click(ad.ad_id)
        assert ads.select_ads("x", "app") == []

    def test_insufficient_balance_excludes_campaign(self):
        ads = AdService()
        advertiser = ads.create_advertiser("Poor", 0.001)
        ads.create_campaign(advertiser.advertiser_id, ["x"], 0.50,
                            "Broke", "http://b.example")
        assert ads.select_ads("x", "app") == []

    def test_click_unknown_ad(self):
        ads = AdService()
        with pytest.raises(NotFoundError):
            ads.record_click("ad-xxxxxx")

    def test_campaign_validation(self):
        ads = AdService()
        advertiser = ads.create_advertiser("A", 1.0)
        with pytest.raises(ValidationError):
            ads.create_campaign(advertiser.advertiser_id, ["x"], 0,
                                "H", "http://x.example")
        with pytest.raises(ValidationError):
            ads.create_campaign(advertiser.advertiser_id, ["the of"],
                                0.5, "H", "http://x.example")

    def test_bus_integration(self):
        bus = ServiceBus()
        ads, *_ = self.make_service()
        bus.register(ads)
        rows = bus.invoke("adcenter", "GET /ads",
                          {"query": "halo", "app_id": "a", "count": 1})
        assert rows[0]["headline"] == "Alpha Store"
        click = bus.invoke(
            "adcenter", f"POST /clicks/{rows[0]['ad_id']}", {}
        )
        assert click["charged"] > 0

    def test_invalid_share_rejected(self):
        with pytest.raises(ValidationError):
            AdService(designer_share=1.5)
