"""A tenant table's one index equals one built afresh from its rows.

Every write files its row into the table's index as it applies, and
every source over the table reads that index. These tests hold it to an
index and to sources built from scratch after any sequence of steps, to
the work a delta should cost at the upload, and to a search that files
nothing.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.datasources import ProprietaryTableSource, SourceQuery
from repro.core.structured import StructuredQuery
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.index import InvertedIndex
from repro.ingest.pipeline import DatasetIngestor
from repro.storage.records import (
    FieldSpec,
    FieldType,
    RecordTable,
    Schema,
)

from repro.storage.tenant import Tenant

from tests.conftest import make_inventory_csv
from tests.reference_index import reads

_WORDS = ("halo", "odyssey", "arena", "braid", "combat", "evolved",
          "puzzle", "island", "racing", "deluxe")
_FIELDS = ("title", "producer", "description")


def make_table():
    schema = Schema((FieldSpec("sku", FieldType.STRING),)
                    + tuple(FieldSpec(name, FieldType.STRING)
                            for name in _FIELDS)
                    + (FieldSpec("price", FieldType.INTEGER),))
    return RecordTable("games", schema, indexed_fields=("sku",))


def make_source(table):
    return ProprietaryTableSource("inv", "Inventory", table, _FIELDS)


def index_state(index):
    """Every read of ``index`` (see :func:`tests.reference_index.reads`),
    with the rows each document carries."""
    return {
        **reads(index),
        "payloads": {doc_id: index.document(doc_id).payload
                     for doc_id in index.all_doc_ids()},
        "vocabulary": {name: len(index.term_frequencies(name))
                       for name in index.text_fields()},
    }


def answers(source, query):
    result = source.search(query)
    return ([(item.item_id, item.score) for item in result.items],
            result.total_matches)


phrases = st.lists(st.sampled_from(_WORDS), min_size=0, max_size=4) \
    .map(" ".join)
prices = st.one_of(st.none(), st.integers(0, 60))
query_words = st.sampled_from(_WORDS + ("unseen",))
query_texts = st.one_of(
    query_words,                                                # term
    st.tuples(query_words, query_words).map('"{0[0]} {0[1]}"'.format),
    st.lists(query_words, min_size=2, max_size=3).map(" ".join),  # AND / OR
)
PROBES = (SourceQuery("halo"), SourceQuery("halo odyssey", count=3),
          SourceQuery("combat", offset=1, count=2))


def fresh_index(table):
    """The table's rows filed into a new index, the reference whose
    every read the table's own index must equal after any sequence of
    writes."""
    index = InvertedIndex()
    for record in table.all_records():
        index.add(FieldedDocument(record.record_id, {
            name: "" if value is None else value
            for name, value in record.values.items()}, record))
    return index


def reference(source):
    """``source`` over a copy of its table made from scratch: every row
    inserted afresh, so nothing it answers from was updated in place."""
    table = source.table
    copy = RecordTable(table.name, table.schema, table.indexed_fields)
    for record in table.all_records():
        copy.insert_validated(dict(record.values), record.record_id)
    return ProprietaryTableSource(source.source_id, source.name, copy,
                                  source.search_fields)


class TenantMachine(RuleBasedStateMachine):
    """Tenant writes, schema evolution, new sources and reads in any
    order: after every step the table's index equals one built afresh
    from its rows, every source reads it, and each source answers as a
    source built from scratch over a copy of the table does."""

    @initialize()
    def start(self):
        self.table = make_table()
        for sku, title in (("S1", "halo odyssey"), ("S2", "braid arena"),
                           ("S3", "halo combat evolved")):
            self.table.insert({"sku": sku, "title": title,
                               "producer": "bungie", "price": 20,
                               "description": "combat puzzle"})
        self.sources = [make_source(self.table)]
        self.added: list = []
        self.serial = 0

    def text_fields(self) -> tuple:
        return _FIELDS + tuple(self.added)

    @rule(row=st.fixed_dictionaries({
              "title": phrases, "producer": phrases,
              "description": phrases, "price": prices}),
          keyed=st.booleans())
    def insert(self, row, keyed):
        """A new row, through an insert or a keyed upsert of a new key;
        every column added so far is carried."""
        self.serial += 1
        row = {**row, "sku": f"N{self.serial}",
               **{name: row["title"] for name in self.added}}
        if keyed:
            self.table.upsert_by("sku", row)
        else:
            self.table.insert(row)

    @rule(pick=st.integers(0, 50), data=st.data())
    def upsert_delta(self, pick, data):
        """A keyed delta of one stored row changing one field or several."""
        records = self.table.all_records()
        current = records[pick % len(records)]
        names = data.draw(st.lists(
            st.sampled_from(self.text_fields() + ("price",)),
            min_size=1, max_size=3, unique=True))
        changes = {name: data.draw(prices if name == "price" else phrases)
                   for name in names}
        self.table.upsert_by("sku", {**current.values, **changes})

    @rule()
    def add_column(self):
        name = f"extra{len(self.added)}"
        self.table.add_fields((FieldSpec(name, FieldType.STRING),))
        self.added.append(name)

    @precondition(lambda self: len(self.sources) < 3)
    @rule(data=st.data())
    def add_source(self, data):
        fields = data.draw(st.lists(st.sampled_from(self.text_fields()),
                                    min_size=1, max_size=3, unique=True))
        self.sources.append(ProprietaryTableSource(
            f"inv{len(self.sources)}", "Inventory", self.table,
            tuple(fields)))

    @rule(pick=st.integers(0, 2), text=query_texts,
          fields=st.lists(st.sampled_from(_FIELDS), max_size=2,
                          unique=True))
    def search(self, pick, text, fields):
        source = self.sources[pick % len(self.sources)]
        query = SourceQuery(
            text, count=5,
            context={"search_fields": tuple(fields)} if fields else {})
        assert answers(source, query) == answers(reference(source), query)

    @rule(pick=st.integers(0, 2), text=st.one_of(st.just(""), query_texts),
          op=st.sampled_from(("lt", "ge", "ne")), bound=st.integers(0, 60),
          descending=st.booleans())
    def structured(self, pick, text, op, bound, descending):
        source = self.sources[pick % len(self.sources)]
        query = StructuredQuery(text, order_by="price",
                                descending=descending,
                                limit=4).where("price", op, bound)

        def page(source):
            result = source.structured_search(query)
            return ([(item.item_id, item.score) for item in result.items],
                    result.total_matches)

        assert page(source) == page(reference(source))

    @invariant()
    def every_source_is_current(self):
        index = self.table.search_index
        assert index_state(index) == index_state(fresh_index(self.table))
        for source in self.sources:
            assert source.vertical().index is index
            fresh = reference(source)
            for query in PROBES:
                assert answers(source, query) == answers(fresh, query)


TenantMachine.TestCase.settings = settings(max_examples=40,
                                           stateful_step_count=12)
TestTenantMachine = TenantMachine.TestCase


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
    """The field names each ``InvertedIndex._file`` / ``_unfile`` call
    reads from here on: what filing and unfiling analyze."""
    calls = []
    for method in ("_file", "_unfile"):
        original = getattr(InvertedIndex, method)

        def spied(self, ordinal, fields, *args, original=original):
            calls.append(tuple(fields))
            return original(self, ordinal, fields, *args)

        monkeypatch.setattr(InvertedIndex, method, spied)
    return calls


class TestWorkCounts:
    """A delta costs the field values it changed, at the upload: each
    changed value is analyzed twice (the old one out, the new one in),
    and a search files nothing."""

    def test_a_delta_costs_the_fields_it_changed(self, monkeypatch):
        table = make_table()
        for i in range(250):
            table.insert({"sku": f"S{i}", "title": f"game {_WORDS[i % 10]}",
                          "producer": "studio", "description": f"row{i}"})
        source = make_source(table)
        filed = spy_filing(monkeypatch)
        for i in range(5):
            table.upsert_by("sku", {"sku": f"S{i}", "title": "repriced",
                                    "producer": "studio",
                                    "description": f"row{i}"})
        assert [name for call in filed for name in call] == ["title"] * 10
        filed.clear()
        assert source.search(SourceQuery("repriced")).total_matches == 5
        assert source.search(SourceQuery("game")).total_matches == 245
        assert filed == []

    def test_inserts_add_and_updates_refile(self, monkeypatch):
        table = make_table()
        for i in range(6):
            table.insert({"sku": f"S{i}", "title": "halo"})
        source = make_source(table)
        adds = count_calls(monkeypatch, "add")
        removes = count_calls(monkeypatch, "remove")
        upserts = count_calls(monkeypatch, "upsert")
        filed = spy_filing(monkeypatch)
        for i in range(3):
            table.insert({"sku": f"NEW{i}", "title": "halo arena"})
        table.upsert_by("sku", {"sku": "S2", "title": "halo",
                                "producer": "bungie"})
        # A new row is an upsert that adds; a changed one re-files in place.
        assert (adds[0], removes[0], upserts[0]) == (3, 0, 4)
        assert filed.count(("producer",)) == 2     # "" out, "bungie" in
        assert len(filed) == 3 + 2
        assert source.search(SourceQuery("halo")).total_matches == 9

    def test_a_search_after_a_delta_upload_files_nothing(self, monkeypatch):
        tenant = Tenant("t1", "Ann")
        ingestor = DatasetIngestor(tenant)
        ingestor.ingest_rows([{"sku": f"S{i}", "title": f"halo {word}"}
                              for i, word in enumerate(_WORDS)], "games",
                             schema=make_table().schema, key_field="sku")
        source = make_source(tenant.table("games"))
        report = ingestor.ingest_rows(
            [{"sku": "S1", "title": "sequel"}, {"sku": "N1", "title": "halo"}],
            "games", key_field="sku")
        assert (report.inserted, report.updated) == (1, 1)
        calls = [count_calls(monkeypatch, method)
                 for method in ("add", "upsert", "_file")]
        assert source.search(SourceQuery("halo")).total_matches == 10
        assert source.search(SourceQuery("sequel")).total_matches == 1
        assert calls == [[0], [0], [0]]


def test_sources_over_one_table_share_its_index(symphony,
                                                designer_account):
    symphony.upload_http(designer_account, "inventory.csv",
                         make_inventory_csv(["Halo", "Braid"]),
                         "inventory", content_type="text/csv")
    by_title, by_producer = (
        symphony.add_proprietary_source(designer_account, "inventory",
                                        search_fields=fields)
        for fields in (("title",), ("producer", "title")))
    index = by_title.vertical().index
    assert by_producer.vertical().index is index
    assert index is by_title.table.search_index
    assert by_producer.vertical().text_fields == ["producer", "title"]
