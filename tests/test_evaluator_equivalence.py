"""An AND that narrows as it goes finds exactly what set algebra finds.

:class:`ReferenceEvaluator` is the evaluator as it was before each AND
child saw only what its earlier siblings left: every node evaluated over
the whole index, children combined with ``&`` / ``|`` / ``-``, keyword
sets copied, phrases checked with a list comprehension over all later
positions. It is the specification (phrases in the form that allows, between
two terms, the distance they have in the phrase plus one). Random nested
ASTs — terms, phrases with and without stop-words, keyword and text
filters, ranges, 30+-way ``site:`` ORs, NOT at any depth, empty
AND / OR — over a random index that saw adds, removes and re-adds must
give the same candidate set; and so must the three callers that take a
query string: ``compute_facets``, ``ProprietaryTableSource.search`` and
the Google Base baseline.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.baselines.google_base import GoogleBasePlatform
from repro.core.datasources import ProprietaryTableSource, SourceQuery
from repro.searchengine.documents import FieldedDocument, FieldMode
from repro.searchengine.engine import VerticalIndex, build_engine
from repro.searchengine.facets import compute_facets
from repro.searchengine.query import (
    AndNode,
    FilterNode,
    NotNode,
    OrNode,
    PhraseNode,
    QueryEvaluator,
    RangeNode,
    TermNode,
)
from repro.searchengine.ranking import BM25Parameters
from repro.simweb.model import SyntheticWeb
from repro.storage.records import FieldSpec, FieldType, RecordTable, Schema

from tests.reference_index import DictIndex, doc_ids, reference_of


def reference_phrase(index, field_name, terms, offsets) -> set:
    by_docs = [index.postings(field_name, term) for term in terms]
    if len(terms) == 1:
        return set(by_docs[0])
    if not all(by_docs):
        return set()
    docs = set(by_docs[0])
    for by_doc in by_docs[1:]:
        docs &= set(by_doc)
    matched = set()
    for doc_id in docs:
        for start in sorted(set(by_docs[0][doc_id])):
            expected = start
            for by_doc, a, b in zip(by_docs[1:], offsets, offsets[1:]):
                following = [p for p in by_doc[doc_id] if p > expected]
                if not following or min(following) > expected + b - a + 1:
                    break
                expected = min(following)
            else:
                matched.add(doc_id)
                break
    return matched


class ReferenceEvaluator:
    """Set algebra over the dict reference index, in doc ids."""

    def __init__(self, index, text_fields) -> None:
        self._index = index
        self._text_fields = list(text_fields)

    def candidates(self, node) -> set:
        return self._eval(node)

    def _eval(self, node) -> set:
        index = self._index
        if isinstance(node, TermNode):
            matched = set()
            for term in index.analyzer.analyze(node.text):
                for field_name in self._text_fields:
                    matched |= set(index.postings(field_name, term))
            return matched
        if isinstance(node, PhraseNode):
            analyzed = index.analyzer.analyze_with_positions(node.text)
            terms = [term for term, __ in analyzed]
            offsets = [position for __, position in analyzed]
            matched = set()
            if terms:
                for field_name in self._text_fields:
                    matched |= reference_phrase(index, field_name, terms,
                                                offsets)
            return matched
        if isinstance(node, FilterNode):
            if index.field_modes.get(node.field) == FieldMode.KEYWORD:
                return set(index.keyword_matches(node.field, node.value))
            result = None
            for term in index.analyzer.analyze(node.value):
                term_docs = set(index.postings(node.field, term))
                result = term_docs if result is None else result & term_docs
            return result or set()
        if isinstance(node, RangeNode):
            return {
                doc_id for doc_id in index.all_doc_ids()
                if node.accepts(index.document(doc_id).fields.get(
                    node.field))
            }
        if isinstance(node, AndNode):
            result = None
            for child in node.children:
                child_set = self._eval(child)
                result = child_set if result is None else result & child_set
                if not result:
                    return set()
            return result or set()
        if isinstance(node, OrNode):
            result = set()
            for child in node.children:
                result |= self._eval(child)
            return result
        if isinstance(node, NotNode):
            return index.all_doc_ids() - self._eval(node.child)
        raise AssertionError(node)


# Stop-words included, so phrases have internal gaps; "half-life" and
# "lord-of-rings" are filter values that analyze to several terms.
WORDS = ("halo", "zelda", "review", "game", "wine", "lord", "rings", "arena",
         "the", "of", "and")
FILTER_WORDS = WORDS + ("half-life", "lord-of-rings", "Halo")
SITES = tuple(f"s{n}.example" for n in range(40))
TOPICS = ("games", "wine", "travel")
PRICES = ("", "3", "12.5", "40", "100", "abc")
BOUNDS = ("*", "0", "10", "12.5", "50", "a", "zzz")

doc_specs = st.fixed_dictionaries({
    "title": st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join),
    "body": st.lists(st.sampled_from(WORDS + ("half", "life")),
                     max_size=14).map(" ".join),
    "site": st.sampled_from(SITES[:8] + ("S1.Example",)),
    "topic": st.sampled_from(TOPICS),
    "price": st.sampled_from(PRICES),
})

site_ors = st.lists(st.sampled_from(SITES), min_size=30, max_size=40).map(
    lambda sites: OrNode(tuple(FilterNode("site", s) for s in sites)))

leaves = st.one_of(
    st.builds(TermNode, st.sampled_from(WORDS)),
    st.builds(PhraseNode, st.lists(st.sampled_from(WORDS), min_size=1,
                                   max_size=4).map(" ".join)),
    st.builds(FilterNode, st.just("site"),
              st.sampled_from(SITES[:10] + ("S2.EXAMPLE",))),
    st.builds(FilterNode, st.just("topic"), st.sampled_from(TOPICS)),
    st.builds(FilterNode, st.sampled_from(("title", "body", "nosuch")),
              st.sampled_from(FILTER_WORDS)),
    st.builds(RangeNode, st.just("price"), st.sampled_from(BOUNDS),
              st.sampled_from(BOUNDS)),
    site_ors,
)

trees = st.recursive(leaves, lambda inner: st.one_of(
    st.builds(AndNode, st.lists(inner, max_size=4).map(tuple)),
    st.builds(OrNode, st.lists(inner, max_size=4).map(tuple)),
    st.builds(NotNode, inner),
), max_leaves=12)


@st.composite
def churned(draw):
    """Doc specs, the ids removed after all were added, and the removed
    ids added back."""
    specs = draw(st.lists(doc_specs, min_size=1, max_size=25))
    ids = [f"d{n:02d}" for n in range(len(specs))]
    removed = draw(st.lists(st.sampled_from(ids), unique=True))
    readded = draw(st.lists(st.sampled_from(removed), unique=True)
                   if removed else st.just([]))
    return specs, removed, readded


def churned_vertical(specs, removed, readded):
    vertical = VerticalIndex("test", ["title", "body"], BM25Parameters(),
                             field_modes={"site": FieldMode.KEYWORD,
                                          "topic": FieldMode.KEYWORD})
    index = vertical.index
    docs = {f"d{n:02d}": FieldedDocument(f"d{n:02d}", fields)
            for n, fields in enumerate(specs)}
    for doc in docs.values():
        index.add(doc)
    for doc_id in removed:
        index.remove(doc_id)
    for doc_id in readded:
        index.add(docs[doc_id])
    return vertical


def churned_index(specs, removed, readded):
    return churned_vertical(specs, removed, readded).index


def churned_reference(specs, removed, readded):
    """The dict reference after the same adds, removes and re-adds."""
    index = DictIndex(field_modes={"site": FieldMode.KEYWORD,
                                   "topic": FieldMode.KEYWORD})
    docs = {f"d{n:02d}": FieldedDocument(f"d{n:02d}", fields)
            for n, fields in enumerate(specs)}
    for doc in docs.values():
        index.add(doc)
    for doc_id in removed:
        index.remove(doc_id)
    for doc_id in readded:
        index.add(docs[doc_id])
    return index


class ReferenceOverIndex:
    """:class:`ReferenceEvaluator` where the engine builds its evaluator:
    over the dict reference holding the index's documents, answering in
    the index's ordinals."""

    def __init__(self, index, text_fields) -> None:
        self._index = index
        self._reference = ReferenceEvaluator(reference_of(index),
                                             text_fields)

    def candidates(self, node) -> set:
        return {self._index.ordinal(doc_id)
                for doc_id in self._reference.candidates(node)}


phrases = st.builds(PhraseNode, st.lists(
    st.sampled_from(WORDS), min_size=2, max_size=4).map(" ".join))


@settings(max_examples=300)
@given(churned(), st.lists(trees, min_size=1, max_size=5),
       st.lists(phrases, max_size=5))
def test_narrowing_evaluator_equals_set_algebra(corpus, queries, bare):
    index = churned_index(*corpus)
    reference = churned_reference(*corpus)
    fields = ["title", "body"]
    for node in queries + bare:
        got = doc_ids(index, QueryEvaluator(index, fields).candidates(node))
        assert got == ReferenceEvaluator(reference, fields).candidates(
            node), node


def render(node) -> str:
    """Query text that parses to an AST with the same meaning (an empty
    AND / OR, which has no text, becomes a word that matches nothing)."""
    if isinstance(node, TermNode):
        return node.text
    if isinstance(node, PhraseNode):
        return f'"{node.text}"'
    if isinstance(node, FilterNode):
        return f"{node.field}:{node.value}"
    if isinstance(node, RangeNode):
        return f"{node.field}:[{node.low} TO {node.high}]"
    if isinstance(node, NotNode):
        return f"NOT {render(node.child)}"
    if not node.children:
        return "zzabsent"
    glue = " " if isinstance(node, AndNode) else " OR "
    return "(" + glue.join(render(child) for child in node.children) + ")"


def with_reference(module: str):
    return mock.patch(f"{module}.QueryEvaluator", ReferenceOverIndex)


def table_source(specs, removed, readded):
    columns = ("title", "body", "site", "price")
    table = RecordTable("inv", Schema(tuple(
        FieldSpec(name, FieldType.STRING) for name in columns)))
    rows = {f"d{n:02d}": {name: spec[name] for name in columns}
            for n, spec in enumerate(specs)}
    # The removed rows stay out; the re-added ones arrive after the
    # first build, so the delta path files them.
    for record_id, row in rows.items():
        if record_id not in removed:
            table.insert(row, record_id=record_id)
    source = ProprietaryTableSource("src", "Inventory", table,
                                    ("title", "body"))
    source.search(SourceQuery("halo"))  # indexed, then re-indexed by delta
    for record_id in readded:
        table.insert(rows[record_id], record_id=record_id)
    return source


@settings(max_examples=60)
@given(churned(), trees)
def test_every_caller_answers_as_with_the_reference(corpus, node):
    text = render(node)
    # All three evaluate through the engine's evaluate_candidates.
    vertical = churned_vertical(*corpus)
    facets = compute_facets(vertical, text, ("site", "topic"))
    with with_reference("repro.searchengine.engine"):
        assert facets == compute_facets(vertical, text, ("site", "topic"))

    source = table_source(*corpus)
    query = SourceQuery(text, count=50)
    result = source.search(query)
    with with_reference("repro.searchengine.engine"):
        expected = source.search(query)
    assert [(i.item_id, i.score) for i in result.items] == \
        [(i.item_id, i.score) for i in expected.items]
    assert result.total_matches == expected.total_matches

    base = GoogleBasePlatform(build_engine(SyntheticWeb(),
                                           use_authority=False))
    base.upload_structured_data(corpus[0])
    items = base.search(text)["base_items"]
    with with_reference("repro.searchengine.engine"):
        assert items == base.search(text)["base_items"]


# -- a keyword OR is one pass over what is left ---------------------------------
#
# A ``site:`` OR under an AND that left fewer documents than the OR has
# values scans those documents once instead of looking each value up.
# Documents here may lack the keyword field or hold it as ``None`` or in
# mixed case; OR values repeat, differ in case, and include sites no
# document holds.

KEYWORD_VALUES = SITES[:10] + ("S1.EXAMPLE", "s2.Example", "nowhere.example")

keyword_docs = st.fixed_dictionaries(
    {"title": st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join),
     "body": st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)},
    optional={"site": st.sampled_from(SITES[:6] + ("S1.Example", None)),
              "topic": st.sampled_from(TOPICS + (None,))},
)


def keyword_or(field_name, values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=14).map(
        lambda picked: OrNode(tuple(FilterNode(field_name, v)
                                    for v in picked)))


# ORs the pass must leave to the general path: two keyword fields, a
# keyword filter beside a term, a keyword filter beside a text filter.
general_ors = st.lists(st.one_of(
    st.builds(FilterNode, st.just("site"), st.sampled_from(KEYWORD_VALUES)),
    st.builds(FilterNode, st.just("topic"), st.sampled_from(TOPICS)),
    st.builds(TermNode, st.sampled_from(WORDS)),
    st.builds(FilterNode, st.just("title"), st.sampled_from(WORDS)),
), min_size=2, max_size=14).map(lambda children: OrNode(tuple(children)))

narrowers = st.one_of(
    st.builds(TermNode, st.sampled_from(WORDS)),
    st.builds(NotNode, st.builds(TermNode, st.sampled_from(WORDS))),
    st.builds(FilterNode, st.just("topic"), st.sampled_from(TOPICS)),
)


@settings(max_examples=300)
@given(st.lists(keyword_docs, min_size=1, max_size=25), narrowers,
       st.one_of(keyword_or("site", KEYWORD_VALUES),
                 keyword_or("topic", TOPICS + ("WINE", "none")),
                 general_ors))
def test_keyword_or_pass_equals_set_algebra(specs, narrower, or_node):
    index = churned_index(specs, [], [])
    reference = churned_reference(specs, [], [])
    fields = ["title", "body"]
    for node in (AndNode((narrower, or_node)), or_node,
                 AndNode((narrower, NotNode(or_node)))):
        got = doc_ids(index, QueryEvaluator(index, fields).candidates(node))
        assert got == ReferenceEvaluator(reference, fields).candidates(
            node), node


def test_keyword_or_pass_runs_only_below_the_threshold():
    index = churned_index([
        {"title": "halo", "body": "", "site": "s1.example"},
        {"title": "halo", "body": "", "site": "S2.Example"},
        {"title": "halo", "body": ""},
        {"title": "zelda", "body": "", "site": "s3.example"},
    ], [], [])
    evaluator = QueryEvaluator(index, ["title", "body"])
    scanned = []
    real_scan = evaluator._scan_keyword

    def spy(*args):
        scanned.append(args[:2])
        return real_scan(*args)

    evaluator._scan_keyword = spy
    sites = ("s1.example", "s2.example", "S2.EXAMPLE", "nowhere.example")
    restricted = OrNode(tuple(FilterNode("site", s) for s in sites))
    def candidates(node):
        return doc_ids(index, evaluator.candidates(node))

    # Three halo documents, four values: one pass.
    assert candidates(AndNode((TermNode("halo"), restricted))) \
        == {"d00", "d01"}
    assert scanned == [("site", {"s1.example", "s2.example",
                                 "nowhere.example"})]
    # As many documents as values, no narrowing, or a mixed OR: the
    # general path.
    three = OrNode(restricted.children[:3])
    mixed = OrNode((FilterNode("site", "s3.example"),
                    FilterNode("topic", "wine"), TermNode("halo")))
    assert candidates(AndNode((TermNode("halo"), three))) == \
        {"d00", "d01"}
    assert candidates(restricted) == {"d00", "d01"}
    assert candidates(AndNode((TermNode("zelda"), mixed))) == {"d03"}
    assert len(scanned) == 1
