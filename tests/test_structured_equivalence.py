"""Structured queries evaluated in the index answer as the row loop did.

:func:`reference_execute_structured` is ``execute_structured`` as it was
before its predicates became query nodes: one relevance search for
every matching row (or the whole table without text), a Python
predicate loop over the materialized items, a full sort, then the page.
It is kept here as the specification, with the two intended changes
marked ``intended``. Random tables that saw updates, random
text (multi-word, to reach OR-relaxation) and random typed predicates
of every operator over every column type must give the same ids,
scores, titles, fields, urls, order and totals.
"""

import operator

from hypothesis import given, settings, strategies as st

from repro.core.datasources import (
    ProprietaryTableSource,
    SourceItem,
    SourceQuery,
)
from repro.core.structured import (
    FieldPredicate,
    StructuredQuery,
    execute_structured,
)
from repro.errors import ValidationError
from repro.storage.records import FieldSpec, FieldType, RecordTable, Schema

from tests.conftest import update_record

_OPS = ("eq", "ne", "lt", "le", "gt", "ge")


def reference_matches(predicate, record_values) -> bool:
    """``FieldPredicate.matches`` as it was."""
    ops = {op: getattr(operator, op) for op in _OPS}
    actual = record_values.get(predicate.field)
    if actual is None:
        return False
    if predicate.op == "contains":
        return str(predicate.value).lower() in str(actual).lower()
    value = predicate.value
    if isinstance(actual, bool):
        value = bool(value)
    elif isinstance(actual, (int, float)) \
            and not isinstance(value, (int, float)):
        try:
            value = float(value)
        except (TypeError, ValueError):
            pass
    try:
        return ops[predicate.op](actual, value)
    except TypeError:
        return False


def _url(values) -> str:
    return next((str(values[name])
                 for name in ("url", "detail_url", "link", "homepage")
                 if values.get(name)), "")


def reference_execute_structured(source, query):
    if query.limit <= 0:
        raise ValidationError("structured query limit must be positive")
    table = source.table
    if query.text:
        relevance = source.search(SourceQuery(query.text,
                                              count=len(table) or 1))
        candidates = [(item, item.fields) for item in relevance.items]
    else:
        candidates = []
        for record in table.all_records():
            item = SourceItem(
                item_id=record.record_id,
                title=str(record.values.get(
                    table.schema.field_names()[0], record.record_id
                )),
                # intended: a url, as a text query's items have (was "").
                url=_url(record.values),
                fields=dict(record.values),
            )
            candidates.append((item, record.values))

    filtered = [
        item for item, values in candidates
        if all(reference_matches(predicate, values)
               for predicate in query.predicates)
    ]

    if query.order_by:
        if not table.schema.has_field(query.order_by):
            raise ValidationError(
                f"cannot order by unknown field {query.order_by!r}"
            )

        def sort_key(item):
            value = item.fields.get(query.order_by)
            # intended: a missing value sorts last when descending too
            # (was first, against the comment it carried).
            return ((value is None) != query.descending,
                    value if value is not None else 0)

        filtered.sort(key=sort_key, reverse=query.descending)

    window = filtered[query.offset:query.offset + query.limit]
    return tuple(window), len(filtered)


WORDS = ("halo", "zelda", "arena", "odyssey", "puzzle", "the", "10", "9")
COLUMNS = (
    FieldSpec("title", FieldType.STRING),
    FieldSpec("genre", FieldType.STRING),
    FieldSpec("code", FieldType.STRING),
    FieldSpec("price", FieldType.FLOAT),
    FieldSpec("stock", FieldType.INTEGER),
    FieldSpec("used", FieldType.BOOLEAN),
    FieldSpec("released", FieldType.DATE),
    FieldSpec("url", FieldType.URL),
)

phrases = st.lists(st.sampled_from(WORDS), max_size=3).map(" ".join)
rows = st.fixed_dictionaries({
    "title": phrases,
    "genre": st.sampled_from(("shooter", "Puzzle", "adventure", "")),
    "code": st.sampled_from(("10", "9", "010", "abc", "")),
    "price": st.one_of(st.none(), st.sampled_from((4.5, 9.0, 10.0, 29.99)),
                       st.floats(0, 100, allow_nan=False)),
    "stock": st.one_of(st.none(), st.integers(-2, 12)),
    "used": st.sampled_from((True, False, None)),
    "released": st.sampled_from(("2009-11-03", "2008-06-12", None)),
    "url": st.sampled_from(("http://shop.example/a", None)),
})
values = st.one_of(
    st.integers(-3, 15), st.floats(0, 100, allow_nan=False),
    st.sampled_from(("10", "9", "abc", "", "9.0", " 10 ", "2009-01-01",
                     "halo", "PUZZLE", "true")),
    st.booleans(),
)
predicates = st.builds(
    FieldPredicate,
    st.sampled_from([spec.name for spec in COLUMNS] + ["nosuch"]),
    st.sampled_from(_OPS + ("contains",)),
    values,
)
texts = st.one_of(
    st.just(""),
    st.sampled_from(WORDS),
    st.lists(st.sampled_from(WORDS), min_size=2, max_size=3).map(" ".join),
    st.sampled_from(('"halo arena"', "NOT halo", "halo OR zelda",
                     "price:[5 TO 20]", "genre:puzzle")),
)
queries = st.builds(
    StructuredQuery,
    text=texts,
    predicates=st.lists(predicates, max_size=3).map(tuple),
    order_by=st.sampled_from(("",) + tuple(spec.name for spec in COLUMNS)),
    descending=st.booleans(),
    limit=st.integers(1, 8),
    offset=st.integers(0, 6),
)


def make_source(row_list, churn):
    table = RecordTable("inv", Schema(COLUMNS))
    for row in row_list:
        table.insert(row)
    source = ProprietaryTableSource("src", "Inventory", table,
                                    ("title", "genre"))
    source.search(SourceQuery("halo"))  # built, then kept by delta
    for n, row in churn:
        records = table.all_records()
        if not records:
            break
        update_record(table, records[n % len(records)].record_id, row)
    return source


def seen(items):
    return [(item.item_id, item.score, item.title, item.url, item.fields)
            for item in items]


@settings(max_examples=300)
@given(st.lists(rows, max_size=14),
       st.lists(st.tuples(st.integers(0, 20), rows), max_size=4),
       st.lists(queries, min_size=1, max_size=4))
def test_index_evaluated_query_equals_the_row_loop(row_list, churn, batch):
    source = make_source(row_list, churn)
    for query in batch:
        result = execute_structured(source, query)
        items, total = reference_execute_structured(source, query)
        assert seen(result.items) == seen(items), query
        assert result.total_matches == total, query


# -- the intended changes, table order, and the work a query costs ------------------------

def small_source():
    table = RecordTable("inv", Schema(COLUMNS))
    for key, title, price, url in (
            ("r-odyssey", "halo odyssey", 20.0, "http://shop.example/o"),
            ("r-arena", "halo arena", None, None),
            ("r-zelda", "zelda", 10.0, None)):
        table.insert({"title": title, "price": price, "url": url},
                     record_id=key)
    update_record(table, "r-odyssey", {"genre": "shooter"})  # moves none
    return ProprietaryTableSource("src", "Inventory", table, ("title",))


def test_only_a_text_that_matched_nothing_relaxes():
    source = small_source()
    # "halo odyssey" matches as an AND; the filter rejects that row and
    # must not buy a relaxed OR that would let "halo arena" in.
    arena = StructuredQuery(text="halo odyssey").where("title", "contains",
                                                       "arena")
    assert execute_structured(source, arena).total_matches == 0
    # "odyssey zelda" matches nothing as an AND: relaxed, then filtered.
    relaxed = StructuredQuery(text="odyssey zelda").where("price", "le", 15)
    assert [item.item_id for item in
            execute_structured(source, relaxed).items] == ["r-zelda"]


def test_missing_values_sort_last_in_both_directions():
    source = small_source()
    for descending in (False, True):
        result = execute_structured(source, StructuredQuery(
            order_by="price", descending=descending))
        assert result.items[-1].item_id == "r-arena"


def test_filter_only_query_is_in_table_order_with_urls():
    result = execute_structured(small_source(), StructuredQuery())
    assert [item.item_id for item in result.items] == \
        ["r-odyssey", "r-arena", "r-zelda"]
    assert result.items[0].url == "http://shop.example/o"
    assert {item.score for item in result.items} == {0.0}


def test_filter_only_pages_follow_upload_order_past_nine_rows():
    # Generated ids are "inv:1" ... "inv:12": as strings, "inv:10" sorts
    # before "inv:2"; a browse must still page in upload order.
    table = RecordTable("inv", Schema(COLUMNS))
    ids = [table.insert({"title": f"game {n}", "stock": n}).record_id
           for n in range(12)]
    update_record(table, ids[3], {"title": "repriced"})     # keeps its place
    source = ProprietaryTableSource("src", "Inventory", table, ("title",))
    pages = [execute_structured(source, StructuredQuery(
        limit=5, offset=offset).where("stock", "ge", 1))
        for offset in (0, 5, 10)]
    assert [item.item_id for page in pages for item in page.items] == \
        ids[1:]
    assert {page.total_matches for page in pages} == {11}
    by_stock = execute_structured(source, StructuredQuery(
        order_by="used", limit=12))             # every value missing: ties
    assert [item.item_id for item in by_stock.items] == ids


def test_only_the_page_is_materialized_and_predicates_see_what_text_left():
    source = small_source()
    decided = []

    class Spy(FieldPredicate):
        def accepts(self, actual):
            decided.append(actual)
            return super().accepts(actual)

    materialized = []
    real = source.materialize

    def spy(ranked, scored):
        materialized.append(len(ranked))
        return real(ranked, scored)

    source.materialize = spy
    result = execute_structured(source, StructuredQuery(
        text="halo", predicates=(Spy("title", "contains", "h"),), limit=1))
    assert result.total_matches == 2
    assert materialized == [1]
    assert sorted(decided) == ["halo arena", "halo odyssey"]  # not zelda
