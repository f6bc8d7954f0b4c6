"""Tests for the data-source adapters and registry."""

import pytest

from repro.core.datasources import (
    AdSource,
    CustomerProfileSource,
    ProprietaryTableSource,
    ServiceSource,
    SourceKind,
    SourceQuery,
    SourceRegistry,
    WebSearchSource,
)
from repro.errors import ConfigurationError, DuplicateError, NotFoundError
from repro.services.ads import AdService
from repro.services.bus import ServiceBus
from repro.services.samples import PricingService, ReviewArchiveService
from repro.storage.records import FieldSpec, FieldType, RecordTable, Schema


@pytest.fixture()
def inventory_table():
    schema = Schema((
        FieldSpec("title", FieldType.STRING),
        FieldSpec("producer", FieldType.STRING),
        FieldSpec("description", FieldType.TEXT),
        FieldSpec("price", FieldType.FLOAT),
    ))
    table = RecordTable("inventory", schema, ("title",))
    rows = [
        ("Halo Odyssey", "Bungie", "classic shooter campaign", "49.99"),
        ("Zelda Legends", "Nintendo", "adventure quest epic", "39.99"),
        ("Braid Arena", "NumberNone", "puzzle platformer gem", "19.99"),
        ("Halo Tactics", "Bungie", "strategy spin-off", "29.99"),
    ]
    for title, producer, description, price in rows:
        table.insert({"title": title, "producer": producer,
                      "description": description, "price": price})
    return table


class TestProprietarySource:
    def make(self, table, fields=("title", "producer", "description")):
        return ProprietaryTableSource("src-1", "Inventory", table, fields)

    def test_fields_are_schema_fields(self, inventory_table):
        source = self.make(inventory_table)
        assert source.fields() == ["title", "producer", "description",
                                   "price"]

    def test_unknown_search_field_rejected(self, inventory_table):
        with pytest.raises(ConfigurationError):
            self.make(inventory_table, fields=("nope",))

    def test_search_by_title(self, inventory_table):
        source = self.make(inventory_table)
        result = source.search(SourceQuery("halo", count=10))
        titles = {item.get("title") for item in result.items}
        assert titles == {"Halo Odyssey", "Halo Tactics"}

    def test_search_by_producer(self, inventory_table):
        source = self.make(inventory_table)
        result = source.search(SourceQuery("nintendo"))
        assert result.items[0].get("title") == "Zelda Legends"

    def test_search_fields_config_narrows(self, inventory_table):
        source = self.make(inventory_table, fields=("title",))
        result = source.search(SourceQuery("bungie"))
        assert result.total_matches == 0

    def test_context_overrides_search_fields(self, inventory_table):
        source = self.make(inventory_table, fields=("title",))
        result = source.search(SourceQuery(
            "bungie", context={"search_fields": ["producer"]}
        ))
        assert result.total_matches == 2

    def test_and_relaxes_to_or_when_empty(self, inventory_table):
        source = self.make(inventory_table)
        # "halo zelda" matches nothing conjunctively.
        result = source.search(SourceQuery("halo zelda"))
        assert result.total_matches >= 3

    def test_first_search_field_counts_double(self):
        table = RecordTable("games", Schema((
            FieldSpec("title", FieldType.STRING),
            FieldSpec("description", FieldType.STRING))))
        table.insert({"title": "arena", "description": "halo"},
                     record_id="a")
        table.insert({"title": "halo", "description": "arena"},
                     record_id="b")
        source = self.make(table, fields=("title", "description"))
        # Equal lengths and frequencies: only the boost separates them.
        first, second = source.search(SourceQuery("halo")).items
        assert first.item_id == "b"
        assert first.score > second.score

    def test_count_limits_items_not_total(self, inventory_table):
        source = self.make(inventory_table)
        result = source.search(SourceQuery("halo", count=1))
        assert len(result.items) == 1
        assert result.total_matches == 2

    def test_index_refreshes_after_insert(self, inventory_table):
        source = self.make(inventory_table)
        assert source.search(SourceQuery("myst")).total_matches == 0
        inventory_table.insert({"title": "Myst Returns",
                                "producer": "Cyan",
                                "description": "puzzle island",
                                "price": "9.99"})
        assert source.search(SourceQuery("myst")).total_matches == 1

    def test_index_refreshes_after_update(self, inventory_table):
        source = self.make(inventory_table)
        assert source.search(SourceQuery("braid")).total_matches == 1
        record = inventory_table.find("title", "Braid Arena")[0]
        inventory_table.update(record.record_id,
                               {"title": "Renamed Gem"})
        assert source.search(SourceQuery("braid")).total_matches == 0
        assert source.search(SourceQuery("renamed")).total_matches == 1
        inventory_table.upsert_by("title", {"title": "Renamed Gem",
                                            "producer": "Upserted"})
        assert source.search(SourceQuery("upserted")).total_matches == 1

    def test_items_carry_full_record_fields(self, inventory_table):
        source = self.make(inventory_table)
        item = source.search(SourceQuery("braid")).items[0]
        assert item.fields["price"] == 19.99


class TestWebSource:
    def test_vertical_mapping(self, engine):
        for vertical, kind in (("web", SourceKind.WEB),
                               ("image", SourceKind.IMAGE),
                               ("video", SourceKind.VIDEO),
                               ("news", SourceKind.NEWS)):
            source = WebSearchSource(f"s-{vertical}", "n", engine,
                                     vertical)
            assert source.kind == kind

    def test_unknown_vertical(self, engine):
        with pytest.raises(ConfigurationError):
            WebSearchSource("s", "n", engine, "maps")

    def test_site_restriction_applies(self, engine, small_web):
        entity = small_web.entities["video_games"][0]
        source = WebSearchSource("s", "n", engine, "web",
                                 sites=("gamespot.com",))
        result = source.search(SourceQuery(f'"{entity}"'))
        assert result.items
        assert all(item.get("site") == "gamespot.com"
                   for item in result.items)

    def test_fields_contract(self, engine):
        source = WebSearchSource("s", "n", engine, "web")
        assert source.fields() == ["title", "url", "snippet", "site"]

    def test_app_id_threaded_to_log(self, small_web):
        from repro.searchengine.engine import build_engine
        private_engine = build_engine(small_web, use_authority=False)
        source = WebSearchSource("s", "n", private_engine, "web")
        source.search(SourceQuery("game", context={"app_id": "app-9"}))
        assert private_engine.log.queries[-1].app_id == "app-9"


class TestServiceSource:
    def make_bus(self, small_web=None):
        bus = ServiceBus()
        bus.register(PricingService(seed=1))
        if small_web is not None:
            bus.register(ReviewArchiveService(web=small_web))
        return bus

    def test_rest_path_param_substitution(self):
        bus = self.make_bus()
        source = ServiceSource(
            "s", "Pricing", bus, "pricing", "GET /prices/{sku}", "sku",
            item_fields=("sku", "price", "stock"), title_field="sku",
        )
        result = source.search(SourceQuery("Halo Odyssey"))
        assert result.total_matches == 1
        assert result.items[0].fields["price"] > 0

    def test_soap_query_param(self, small_web):
        bus = self.make_bus(small_web)
        entity = small_web.entities["video_games"][0]
        source = ServiceSource(
            "s", "Reviews", bus, "review-archive", "GetReviews",
            "entity", item_fields=("source", "score"),
            title_field="source",
        )
        result = source.search(SourceQuery(entity, count=5))
        assert 1 <= len(result.items) <= 5
        assert all("score" in item.fields for item in result.items)

    def test_list_response_fans_out(self, small_web):
        bus = self.make_bus(small_web)
        source = ServiceSource(
            "s", "Reviews", bus, "review-archive", "GetReviews",
            "entity",
        )
        entity = small_web.entities["video_games"][0]
        result = source.search(SourceQuery(entity, count=100))
        assert result.total_matches > 1  # unwrapped the reviews list

    def test_extra_params_passed(self):
        bus = self.make_bus()
        source = ServiceSource(
            "s", "Pricing", bus, "pricing", "GET /prices/{sku}", "sku",
            extra_params={"currency": "EUR"},
        )
        item = source.search(SourceQuery("halo")).items[0]
        assert item.fields["currency"] == "EUR"


class TestAdSource:
    def make(self):
        ads = AdService()
        advertiser = ads.create_advertiser("A", 10.0)
        ads.create_campaign(advertiser.advertiser_id, ["game"],
                            0.25, "Ad Head", "http://ad.example")
        return AdSource("ads-1", "Ads", ads, max_ads=2), ads

    def test_matching_ads_returned(self):
        source, __ = self.make()
        result = source.search(SourceQuery(
            "game", context={"app_id": "app-1"}
        ))
        assert result.items[0].title == "Ad Head"
        assert result.items[0].fields["is_ad"] is True

    def test_no_match_no_ads(self):
        source, __ = self.make()
        assert source.search(SourceQuery("wine")).items == ()

    def test_max_ads_cap(self):
        source, ads = self.make()
        advertiser = ads.create_advertiser("B", 10.0)
        for i in range(4):
            ads.create_campaign(advertiser.advertiser_id, ["game"],
                                0.10 + i / 100, f"H{i}",
                                "http://b.example")
        result = source.search(SourceQuery("game", count=10))
        assert len(result.items) == 2


class TestCustomerSource:
    def test_rewrite_with_profile(self):
        source = CustomerProfileSource("c", "Customers")
        source.set_profile("u1", ("rpg", "strategy"))
        rewritten = source.rewrite("halo", "u1")
        assert "rpg" in rewritten and "halo" in rewritten

    def test_rewrite_without_profile_is_identity(self):
        source = CustomerProfileSource("c", "Customers")
        assert source.rewrite("halo", "unknown") == "halo"
        assert source.rewrite("halo", None) == "halo"

    def test_rewritten_query_parses(self):
        from repro.searchengine.query import parse_query
        source = CustomerProfileSource("c", "Customers")
        source.set_profile("u1", ("rpg",))
        parse_query(source.rewrite("halo game", "u1"))  # must not raise

    def test_search_returns_profile(self):
        source = CustomerProfileSource("c", "Customers")
        source.set_profile("u1", ("rpg",))
        result = source.search(SourceQuery("u1"))
        assert result.items[0].fields["preference_terms"] == "rpg"
        assert source.search(SourceQuery("u2")).total_matches == 0


class TestRegistry:
    def test_add_get_remove(self):
        registry = SourceRegistry()
        source = CustomerProfileSource("c1", "C")
        registry.add(source)
        assert registry.get("c1") is source
        registry.remove("c1")
        with pytest.raises(NotFoundError):
            registry.get("c1")

    def test_duplicate_rejected(self):
        registry = SourceRegistry()
        registry.add(CustomerProfileSource("c1", "C"))
        with pytest.raises(DuplicateError):
            registry.add(CustomerProfileSource("c1", "C2"))

    def test_by_kind(self, engine):
        registry = SourceRegistry()
        registry.add(CustomerProfileSource("c1", "C"))
        registry.add(WebSearchSource("w1", "W", engine, "web"))
        assert [s.source_id
                for s in registry.by_kind(SourceKind.WEB)] == ["w1"]
