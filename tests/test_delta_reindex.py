"""A long-lived ProprietaryTableSource equals a freshly built one.

The source applies the table's change tail instead of rebuilding; these
tests hold it to the answers and the index of a source constructed over
the same table at that moment, and to the work a delta should cost.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.datasources import ProprietaryTableSource, SourceQuery
from repro.searchengine.index import InvertedIndex
from repro.storage.records import (
    CHANGE_TAIL,
    FieldSpec,
    FieldType,
    RecordTable,
    Schema,
)

from tests.conftest import update_record

_WORDS = ("halo", "odyssey", "arena", "braid", "combat", "evolved",
          "puzzle", "island", "racing", "deluxe")
_FIELDS = ("title", "producer", "description")


def make_table():
    schema = Schema((FieldSpec("sku", FieldType.STRING),)
                    + tuple(FieldSpec(name, FieldType.STRING)
                            for name in _FIELDS))
    return RecordTable("games", schema, indexed_fields=("sku",))


def make_source(table):
    return ProprietaryTableSource("inv", "Inventory", table, _FIELDS)


def index_state(source):
    index = source.vertical().index
    return {
        "docs": {doc_id: index.document(doc_id).payload
                 for doc_id in index.all_doc_ids()},
        "postings": index._postings,
        "keyword": index._keyword,
        "field_lengths": index._field_lengths,
        "totals": index._total_field_length,
        "vocabulary": {name: index.vocabulary_size(name)
                       for name in index.text_fields()},
    }


def answers(source, query):
    result = source.search(query)
    return ([(item.item_id, item.score) for item in result.items],
            result.total_matches)


def assert_same_as_fresh(source, table, queries):
    fresh = make_source(table)
    for query in queries:
        assert answers(source, query) == answers(fresh, query), query
    assert index_state(source) == index_state(fresh)


phrases = st.lists(st.sampled_from(_WORDS), min_size=0, max_size=4) \
    .map(" ".join)
rows = st.fixed_dictionaries({
    "sku": st.sampled_from(["S1", "S2", "S3", "S4", "S5", "S6"]),
    "title": phrases, "producer": phrases, "description": phrases,
})
# Which existing record a mutation hits: an index into the table, wrapped.
picks = st.integers(0, 50)
mutations = st.one_of(
    st.tuples(st.just("insert"), rows),
    st.tuples(st.just("upsert_by"), rows),
    st.tuples(st.just("update"), picks,
              st.dictionaries(st.sampled_from(_FIELDS), phrases,
                              min_size=1, max_size=2)),
    st.tuples(st.just("add_fields"), phrases),
)
query_words = st.sampled_from(_WORDS + ("unseen",))
query_texts = st.one_of(
    query_words,                                                # term
    st.tuples(query_words, query_words).map('"{0[0]} {0[1]}"'.format),
    st.lists(query_words, min_size=2, max_size=3).map(" ".join),  # AND / OR
)
queries = st.builds(
    lambda text, fields: SourceQuery(
        text, count=5,
        context={"search_fields": fields} if fields else {}),
    query_texts,
    st.lists(st.sampled_from(_FIELDS), max_size=2, unique=True)
    .map(tuple),
)
steps = st.lists(
    st.tuples(st.lists(mutations, min_size=1, max_size=4),
              st.lists(queries, min_size=1, max_size=3)),
    min_size=1, max_size=8,
)


def apply(table, mutation, added_fields):
    kind, *args = mutation
    records = table.all_records()
    if kind == "insert":
        row = dict(args[0])
        # A second row with the sku would make a later upsert ambiguous.
        if table.find("sku", row["sku"]):
            row["sku"] = f"N{table.mutations}"
        table.insert({**row, **{name: row["title"]
                                for name in added_fields}})
    elif kind == "upsert_by":
        table.upsert_by("sku", args[0])
    elif kind == "add_fields":
        name = f"extra{len(added_fields)}"
        table.add_fields((FieldSpec(name, FieldType.STRING),))
        added_fields.append(name)
    elif not records:
        return
    elif kind == "update":
        update_record(table, records[args[0] % len(records)].record_id,
                      args[1])


class TestEquivalence:
    @given(steps)
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_long_lived_source_equals_fresh_after_every_step(self, steps):
        table = make_table()
        for sku, title in (("S1", "halo odyssey"), ("S2", "braid arena"),
                           ("S3", "halo combat evolved")):
            table.insert({"sku": sku, "title": title, "producer": "bungie",
                          "description": "combat puzzle"})
        source = make_source(table)
        source.search(SourceQuery("halo"))
        added_fields: list = []
        for batch, searches in steps:
            for mutation in batch:
                apply(table, mutation, added_fields)
            assert_same_as_fresh(source, table, searches)

    def test_source_rebuilds_when_the_tail_is_overrun(self, monkeypatch):
        table = make_table()
        for i in range(6):
            table.insert({"sku": f"S{i}", "title": f"halo {_WORDS[i]}",
                          "producer": "bungie", "description": ""})
        source = make_source(table)
        cursor = table.mutations
        assert source.search(SourceQuery("halo")).total_matches == 6
        victim = table.all_records()[0].record_id
        for i in range(CHANGE_TAIL // 2 + 1):
            update_record(table, victim, {"description": _WORDS[i % 10]})
        update_record(table, table.all_records()[1].record_id,
                      {"description": _WORDS[3]})
        assert table.changes_since(cursor) is None
        adds = count_calls(monkeypatch, "add")
        queries = [SourceQuery("halo"), SourceQuery('"halo odyssey"'),
                   SourceQuery("halo unseen"), SourceQuery(_WORDS[2])]
        assert_same_as_fresh(source, table, queries[:1])
        assert adds[0] == 2 * len(table)    # the source's and the fresh one's
        assert_same_as_fresh(source, table, queries)

    def test_a_change_landing_while_the_tail_is_applied_is_not_lost(
            self, monkeypatch):
        table = make_table()
        first = table.insert({"sku": "S1", "title": "halo"})
        second = table.insert({"sku": "S2", "title": "braid"})
        source = make_source(table)
        source.search(SourceQuery("halo"))
        update_record(table, first.record_id, {"title": "arena"})
        real_get, landed = table.get, []

        def get(record_id):
            if not landed:      # an upload lands mid-apply, once
                landed.append(record_id)
                update_record(table, second.record_id,
                              {"title": "racing"})
            return real_get(record_id)

        monkeypatch.setattr(table, "get", get)
        assert source.search(SourceQuery("arena")).total_matches == 1
        assert landed == [first.record_id]
        assert [item.item_id for item in
                source.search(SourceQuery("racing")).items] == \
            [second.record_id]
        assert_same_as_fresh(source, table, [SourceQuery("braid"),
                                             SourceQuery("racing")])


def count_calls(monkeypatch, method):
    """Count calls to ``InvertedIndex.<method>`` from here on."""
    calls = [0]
    original = getattr(InvertedIndex, method)

    def counted(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(InvertedIndex, method, counted)
    return calls


def spy_filing(monkeypatch):
    """The field names each ``InvertedIndex._entries`` call reads from
    here on: what filing and unfiling analyze."""
    calls = []
    original = InvertedIndex._entries

    def spied(self, fields):
        calls.append(tuple(fields))
        return original(self, fields)

    monkeypatch.setattr(InvertedIndex, "_entries", spied)
    return calls


class TestWorkCounts:
    """A delta costs the field values it changed: each changed value is
    analyzed twice (the old one out, the new one in), and nothing else."""

    def test_a_delta_costs_the_fields_it_changed(self, monkeypatch):
        table = make_table()
        for i in range(250):
            table.insert({"sku": f"S{i}", "title": f"game {_WORDS[i % 10]}",
                          "producer": "studio", "description": f"row{i}"})
        source = make_source(table)
        assert source.search(SourceQuery("game")).total_matches == 250
        for i in range(5):
            table.upsert_by("sku", {"sku": f"S{i}", "title": "repriced",
                                    "producer": "studio",
                                    "description": f"row{i}"})
        filed = spy_filing(monkeypatch)
        assert source.search(SourceQuery("repriced")).total_matches == 5
        assert [name for call in filed for name in call] == ["title"] * 10
        filed.clear()
        assert source.search(SourceQuery("game")).total_matches == 245
        assert filed == []

    def test_inserts_add_and_updates_refile(self, monkeypatch):
        table = make_table()
        records = [table.insert({"sku": f"S{i}", "title": "halo"})
                   for i in range(6)]
        source = make_source(table)
        source.search(SourceQuery("halo"))
        for i in range(3):
            table.insert({"sku": f"NEW{i}", "title": "halo arena"})
        update_record(table, records[2].record_id,
                      {"producer": "bungie"})
        adds = count_calls(monkeypatch, "add")
        removes = count_calls(monkeypatch, "remove")
        upserts = count_calls(monkeypatch, "upsert")
        filed = spy_filing(monkeypatch)
        assert source.search(SourceQuery("halo")).total_matches == 9
        # A new row is an upsert that adds; a changed one re-files in place.
        assert (adds[0], removes[0], upserts[0]) == (3, 0, 4)
        assert filed.count(("producer",)) == 2     # "" out, "bungie" in
        assert len(filed) == 3 + 2

    def test_a_row_changed_many_times_is_indexed_once(self, monkeypatch):
        table = make_table()
        record = table.insert({"sku": "S1", "title": "halo"})
        source = make_source(table)
        source.search(SourceQuery("halo"))
        for title in ("braid", "arena", "racing"):
            update_record(table, record.record_id, {"title": title})
        adds = count_calls(monkeypatch, "add")
        removes = count_calls(monkeypatch, "remove")
        upserts = count_calls(monkeypatch, "upsert")
        filed = spy_filing(monkeypatch)
        result = source.search(SourceQuery("racing"))
        assert [item.item_id for item in result.items] == [record.record_id]
        assert (adds[0], removes[0], upserts[0]) == (0, 0, 1)
        assert filed == [("title",), ("title",)]
