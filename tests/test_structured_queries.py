"""Tests for richer structured querying (future work item 2):
range filters in the query language and the StructuredQuery API."""

import pytest
from hypothesis import given, strategies as st

from repro.core.datasources import ProprietaryTableSource, SourceQuery
from repro.core.structured import (
    FieldPredicate,
    StructuredQuery,
    execute_structured,
)
from repro.errors import QueryError, ValidationError
from repro.searchengine.query import RangeNode, parse_query
from repro.storage.records import FieldSpec, FieldType, RecordTable, Schema


@pytest.fixture()
def store():
    schema = Schema((
        FieldSpec("title", FieldType.STRING),
        FieldSpec("genre", FieldType.STRING),
        FieldSpec("price", FieldType.FLOAT),
        FieldSpec("stock", FieldType.INTEGER),
        FieldSpec("released", FieldType.DATE),
    ))
    table = RecordTable("games", schema)
    rows = [
        ("Halo Odyssey", "shooter", 49.99, 3, "2009-11-03"),
        ("Halo Tactics", "strategy", 29.99, 0, "2008-06-12"),
        ("Zelda Legends", "adventure", 39.99, 5, "2009-02-20"),
        ("Braid Arena", "puzzle", 14.99, 9, "2008-08-08"),
        ("Okami Zero", "adventure", 24.99, 2, "2009-09-01"),
    ]
    for title, genre, price, stock, released in rows:
        table.insert({"title": title, "genre": genre, "price": price,
                      "stock": stock, "released": released})
    return ProprietaryTableSource("src", "Games", table,
                                  ("title", "genre"))


class TestRangeSyntax:
    def test_parses(self):
        node = parse_query("price:[10 TO 30]")
        assert node == RangeNode("price", "10", "30")

    def test_open_bounds(self):
        assert parse_query("price:[* TO 30]") == \
            RangeNode("price", "*", "30")
        assert parse_query("price:[10 TO *]") == \
            RangeNode("price", "10", "*")

    def test_combines_with_terms(self):
        node = parse_query("halo price:[10 TO 30]")
        assert isinstance(node.children[1], RangeNode)

    def test_missing_to_rejected(self):
        with pytest.raises(QueryError):
            parse_query("price:[10 30]")

    def test_date_range(self):
        node = parse_query("released:[2009-01-01 TO 2009-12-31]")
        assert node.field == "released"


class TestRangeEvaluation:
    def search(self, store, text):
        return {item.get("title")
                for item in store.search(
                    SourceQuery(text, count=10)).items}

    def test_numeric_range(self, store):
        titles = self.search(store, "price:[20 TO 40]")
        assert titles == {"Halo Tactics", "Zelda Legends",
                          "Okami Zero"}

    def test_open_low(self, store):
        titles = self.search(store, "price:[* TO 15]")
        assert titles == {"Braid Arena"}

    def test_open_high(self, store):
        titles = self.search(store, "price:[40 TO *]")
        assert titles == {"Halo Odyssey"}

    def test_date_range_lexicographic(self, store):
        titles = self.search(store,
                             "released:[2009-01-01 TO 2009-12-31]")
        assert titles == {"Halo Odyssey", "Zelda Legends",
                          "Okami Zero"}

    def test_range_with_text_conjunction(self, store):
        titles = self.search(store, "halo price:[* TO 35]")
        assert titles == {"Halo Tactics"}

    def test_empty_range(self, store):
        assert self.search(store, "price:[1000 TO 2000]") == set()

    def test_bounds_are_inclusive(self, store):
        assert self.search(store, "price:[14.99 TO 24.99]") == \
            {"Braid Arena", "Okami Zero"}
        assert self.search(store, "released:[* TO 2008-08-08]") == \
            {"Halo Tactics", "Braid Arena"}


class TestPredicates:
    def test_operators(self):
        assert FieldPredicate("price", "lt", 30).accepts(25.0)
        assert FieldPredicate("price", "ge", "25").accepts(25.0)
        assert not FieldPredicate("price", "gt", 30).accepts(25.0)
        assert FieldPredicate("genre", "eq", "adventure").accepts(
            "adventure")
        assert FieldPredicate("genre", "contains", "VENT").accepts(
            "adventure")

    def test_missing_field_never_matches(self):
        assert not FieldPredicate("nope", "eq", 1).accepts(None)
        assert not FieldPredicate("nope", "ne", 1).accepts("")

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValidationError):
            FieldPredicate("price", "between", (1, 2))

    def test_string_value_coerced_for_numeric_field(self):
        assert FieldPredicate("price", "le", "30").accepts(25.0)


class TestStructuredQuery:
    def test_filter_sort_limit(self, store):
        query = (StructuredQuery(limit=2, order_by="price")
                 .where("stock", "ge", 1)
                 .where("price", "le", 40))
        result = store.structured_search(query)
        titles = [item.get("title") for item in result.items]
        assert titles == ["Braid Arena", "Okami Zero"]
        assert result.total_matches == 3  # Zelda filtered by limit only

    def test_descending_order(self, store):
        query = StructuredQuery(limit=10, order_by="price",
                                descending=True)
        result = store.structured_search(query)
        prices = [item.fields["price"] for item in result.items]
        assert prices == sorted(prices, reverse=True)

    def test_offset_paging(self, store):
        base = StructuredQuery(limit=2, order_by="price")
        first = store.structured_search(base)
        second = store.structured_search(StructuredQuery(
            limit=2, offset=2, order_by="price"))
        ids = {i.item_id for i in first.items}
        assert ids.isdisjoint(i.item_id for i in second.items)

    def test_text_plus_predicates(self, store):
        query = StructuredQuery(text="halo", limit=10).where(
            "stock", "gt", 0)
        result = store.structured_search(query)
        assert [i.get("title") for i in result.items] == \
            ["Halo Odyssey"]

    def test_text_relevance_order_preserved_without_sort(self, store):
        query = StructuredQuery(text="adventure", limit=10)
        result = store.structured_search(query)
        assert len(result.items) == 2

    def test_contains_predicate(self, store):
        query = StructuredQuery(limit=10).where("title", "contains",
                                                "halo")
        result = store.structured_search(query)
        assert result.total_matches == 2

    def test_unknown_sort_field_rejected(self, store):
        with pytest.raises(ValidationError):
            store.structured_search(
                StructuredQuery(limit=5, order_by="nonexistent")
            )

    def test_nonpositive_limit_rejected(self, store):
        with pytest.raises(ValidationError):
            store.structured_search(StructuredQuery(limit=0))

    @given(st.floats(min_value=0, max_value=60, allow_nan=False))
    def test_price_threshold_property(self, threshold):
        schema = Schema((FieldSpec("title", FieldType.STRING),
                         FieldSpec("price", FieldType.FLOAT)))
        table = RecordTable("t", schema)
        prices = [5.0, 15.0, 25.0, 35.0, 45.0, 55.0]
        for i, price in enumerate(prices):
            table.insert({"title": f"Item {i}", "price": price})
        source = ProprietaryTableSource("s", "S", table, ("title",))
        result = execute_structured(
            source, StructuredQuery(limit=10).where("price", "le",
                                                    threshold)
        )
        expected = sum(1 for price in prices if price <= threshold)
        assert result.total_matches == expected
