"""A write costs what it changed, and answers as the full-cost write did.

Two references are kept here as the specification:

- :func:`reference_upsert` is ``InvertedIndex.upsert`` as it was: take
  the whole stored document out, then add the new one. The field-level
  upsert must leave the same postings, keyword entries, field lengths,
  totals, stored documents and phrase matches after every step, make
  the index look stale exactly when the reference does, and take out
  and file again only the fields whose filed value (``str``, or nothing
  for ``None`` or absent) changed.
- :func:`reference_find` is ``RecordTable.find`` on an unindexed field
  as it was: a scan comparing each record's value with ``==``. The
  exact-value map must return the same records in the same order after
  any sequence of inserts, updates, keyed upserts and added columns.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateError
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument, FieldMode
from repro.searchengine import index as index_module
from repro.searchengine.index import InvertedIndex
from repro.storage.records import FieldSpec, FieldType, RecordTable, Schema

from tests.conftest import update_record
from tests.reference_index import doc_ids, reads


# -- the index -----------------------------------------------------------------

def reference_upsert(index, document):
    """Replace by taking the whole stored document out, then adding."""
    if document.doc_id in index:
        index.remove(document.doc_id)
    index.add(document)


def make_index():
    return InvertedIndex(Analyzer(), field_modes={"tag": FieldMode.KEYWORD})


def state(index):
    """Every read of ``index``: stored fields, postings with positions,
    keyword entries, field lengths and totals."""
    return reads(index)


def spy_filing(index, calls: list) -> None:
    """Append the fields each ``_unfile`` / ``_file`` of ``index``
    takes out or files, in call order."""
    for method in ("_unfile", "_file"):
        original = getattr(index, method)

        def spied(ordinal, fields, *args, original=original):
            calls.append(dict(fields))
            return original(ordinal, fields, *args)

        setattr(index, method, spied)


_WORDS = ("halo", "odyssey", "the", "arena", "braid", "arenas", "1")
_ABSENT = object()
_FIELDS = ("title", "body", "tag")

phrases = st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join)
# 1, 1.0 and True are equal but file "1", "1.0" and "True".
values = st.one_of(
    phrases,
    st.sampled_from([None, "", 1, 1.0, True, "1", "1.0", "True", 0, False,
                     "HALO", "Halo"]),
)
changes = st.dictionaries(st.sampled_from(_FIELDS),
                          st.one_of(values, st.just(_ABSENT)), max_size=3)
index_steps = st.lists(
    st.one_of(
        st.tuples(st.just("upsert"), st.sampled_from("abcd"), changes),
        st.tuples(st.just("remove"), st.sampled_from("abcd")),
    ),
    min_size=1, max_size=25,
)


def filed(value):
    return None if value is None or value is _ABSENT else str(value)


class TestFieldLevelUpsert:
    @given(index_steps)
    @settings(max_examples=150)
    def test_equals_remove_then_add_after_every_step(self, steps):
        fast, reference = make_index(), make_index()
        unfiled_and_filed = []
        spy_filing(fast, unfiled_and_filed)
        for kind, doc_id, *rest in steps:
            before = fast.mutations, reference.mutations
            unfiled_and_filed.clear()
            if kind == "remove":
                if doc_id not in fast:
                    continue
                fast.remove(doc_id)
                reference.remove(doc_id)
            else:
                stored = (dict(fast.document(doc_id).fields)
                          if doc_id in fast else None)
                fields = dict(stored or {})
                for name, value in rest[0].items():
                    fields[name] = value
                fields = {name: value for name, value in fields.items()
                          if value is not _ABSENT}
                fast.upsert(FieldedDocument(doc_id, fields))
                reference_upsert(reference, FieldedDocument(doc_id, fields))
                if stored is not None:
                    changed = {name for name in stored.keys() | fields.keys()
                               if filed(stored.get(name))
                               != filed(fields.get(name))}
                    old, new = unfiled_and_filed
                    assert old == {name: stored[name] for name in stored
                                   if name in changed}
                    assert new == {name: fields[name] for name in fields
                                   if name in changed}
            assert fast.mutations == before[0] + 1
            assert reference.mutations != before[1]
            assert state(fast) == state(reference)
            for first in _WORDS:
                for second in _WORDS:
                    terms = [term for term, _ in
                             Analyzer().analyze_with_positions(
                                 f"{first} {second}")]
                    for name in ("title", "body"):
                        assert doc_ids(
                            fast, fast.phrase_matches(name, terms)) == \
                            doc_ids(reference,
                                    reference.phrase_matches(name, terms))

    def test_equal_values_that_file_differently_are_changed(self):
        index = make_index()
        index.add(FieldedDocument("d", {"title": "halo", "body": 1,
                                        "tag": True}))
        seen = []
        spy_filing(index, seen)
        index.upsert(FieldedDocument("d", {"title": "halo", "body": 1.0,
                                           "tag": "True"}))
        assert seen == [{"body": 1}, {"body": 1.0}]
        assert doc_ids(index, index.matching("body", "0")) == {"d"}
        assert doc_ids(index, index.keyword_matches("tag", "true")) == {"d"}


    @staticmethod
    def copied(value):
        """An equal value in a new object (``bool`` has two)."""
        if isinstance(value, str):
            return value.encode().decode()
        return value if isinstance(value, bool) else int(str(value))

    def test_a_one_field_delta_analyzes_and_files_that_field_only(
            self, monkeypatch):
        """On a sealed index: the changed value is analyzed twice (out,
        then in), ``str`` filing is compared for it alone, and only its
        field is tombstoned; every read then equals a fresh build."""
        rows = [{"title": f"halo {n}", "body": "arena braid",
                 "qty": 1000 + n, "tag": "t", "flag": n % 2 == 0}
                for n in range(20)]
        index = make_index()
        index.load(FieldedDocument(f"d{n}", row) for n, row in
                   enumerate(rows))
        analyzed, filed_values = [], []
        analyze = index.analyzer.analyze_with_positions
        monkeypatch.setattr(index.analyzer, "analyze_with_positions",
                            lambda text: analyzed.append(text) or
                            analyze(text))
        real_filed = index_module._filed
        monkeypatch.setattr(index_module, "_filed", lambda value:
                            filed_values.append(value) or real_filed(value))
        for n in range(5):
            # Equal values in new objects: only ``body`` changed.
            row = {name: self.copied(value) for name, value in rows[n].items()}
            row["body"] = "odyssey"
            index.upsert(FieldedDocument(f"d{n}", row))
            rows[n] = row
        assert analyzed == ["arena braid", "odyssey"] * 5
        assert filed_values == ["arena braid", "odyssey"] * 5
        assert {name for name, field_state in index._fields.items()
                if field_state.dead} == {"body"}
        fresh = make_index()
        fresh.load(FieldedDocument(f"d{n}", row) for n, row in
                   enumerate(rows))
        assert state(index) == state(fresh)


# -- the table -----------------------------------------------------------------

def reference_find(table, field_name, value):
    """Every record whose value for ``field_name`` ``==`` ``value``."""
    return [record for record in table.all_records()
            if record.values.get(field_name) == value]


def make_table():
    return RecordTable("items", Schema((
        FieldSpec("sku", FieldType.STRING),
        FieldSpec("price", FieldType.FLOAT),
        FieldSpec("qty", FieldType.INTEGER),
        FieldSpec("flag", FieldType.BOOLEAN),
        FieldSpec("name", FieldType.STRING),
    )), indexed_fields=("name",))


# Values meant to collide: 1, 1.0 and True are ==, "1" is not, and NaN
# equals nothing.
rows = st.fixed_dictionaries({
    "sku": st.sampled_from(["S1", "S2", "1", "True", ""]),
    "price": st.sampled_from([None, 1, 1.0, 0, 2.5, "nan"]),
    "qty": st.sampled_from([None, 0, 1, 2]),
    "flag": st.sampled_from([None, True, False]),
    "name": st.sampled_from(["a", "B", "b"]),
})
picks = st.integers(0, 40)
table_steps = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), rows),
        st.tuples(st.just("upsert_by"), st.sampled_from(
            ["sku", "price", "qty", "flag"]), rows),
        st.tuples(st.just("update"), picks, rows),
        st.tuples(st.just("add_fields")),
    ),
    min_size=1, max_size=25,
)
PROBES = ("S1", "S2", "1", "True", "", None, 0, 1, 1.0, True, False, 0.0,
          2, 2.5, float("nan"), "a")


class TestExactFind:
    @given(table_steps)
    @settings(max_examples=150)
    def test_find_equals_the_scan_after_every_step(self, steps):
        table = make_table()
        for step in steps:
            kind, *args = step
            records = table.all_records()
            if kind == "insert":
                table.insert(args[0])
            elif kind == "upsert_by":
                key_field, row = args
                matches = reference_find(
                    table, key_field, table.schema.coerce_row(row)[key_field])
                try:
                    table.upsert_by(key_field, row)
                except DuplicateError:
                    assert len(matches) > 1
                else:
                    assert len(matches) <= 1
            elif kind == "add_fields":
                table.add_fields((FieldSpec(f"extra{len(table.schema.fields)}",
                                            FieldType.STRING),))
            elif records and kind == "update":
                update_record(table, records[args[0] % len(records)].record_id,
                              args[1])
            for field_name in table.schema.field_names():
                if field_name in table.indexed_fields:
                    continue
                probes = PROBES + tuple(record.values.get(field_name)
                                        for record in table.all_records())
                for value in probes:
                    assert table.find(field_name, value) == \
                        reference_find(table, field_name, value), \
                        (field_name, value)

    def test_equal_scalars_share_a_bucket_in_table_order(self):
        table = make_table()
        for sku, qty in (("S1", 1), ("S2", 1), ("S3", 2), ("1", None)):
            table.insert({"sku": sku, "qty": qty, "price": qty})
        assert [r.values["sku"] for r in table.find("qty", 1)] == \
            ["S1", "S2"]
        update_record(table, "items:1", {"qty": 2})  # S1 leaves the bucket...
        update_record(table, "items:1", {"qty": 1})  # ...and comes back last
        for probe in (1, 1.0, True):
            for field_name in ("qty", "price"):
                assert [r.values["sku"] for r in
                        table.find(field_name, probe)] == ["S1", "S2"]
        assert [r.values["sku"] for r in table.find("sku", "1")] == ["1"]
        assert table.find("sku", 1) == []

    def test_nan_and_unhashable_probes_answer_as_the_scan(self):
        table = make_table()
        stored = table.insert({"sku": "S1", "price": "nan"})
        nan = stored.values["price"]
        assert math.isnan(nan)
        assert table.find("price", nan) == [] == \
            reference_find(table, "price", nan)
        assert table.find("sku", ["S1"]) == [] == \
            reference_find(table, "sku", ["S1"])
