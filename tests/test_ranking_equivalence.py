"""Every ranked list comes from one scorer, and its floats did not move.

:class:`BM25Scorer` resolves per query what it used to re-derive per
(document, field, term). Only lookups were hoisted — the float
expression keeps its operand order — so scores must be ``==`` to the old
per-call scorer, kept here as :func:`reference_score`; a shard scored
under merged statistics must be ``==`` to the union index; and a
cluster must return the single node's ids, scores and match counts
exactly. :meth:`BM25Scorer.rank` scores term-at-a-time into a bounded
selection; the doc-at-a-time loop it replaced — per-document score, a
blend closure, a full sort — is kept here as :func:`reference_rank`,
and every bounded request must be its prefix, float for float. The
last test pins the ``(-score, doc_id)`` order for the three kinds of
index that rank through :meth:`BM25Scorer.rank`. Both references read
the dict reference index (``tests/reference_index.py``) holding the same
documents, in doc ids; the scorer reads the product's index in
ordinals.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.baselines.google_base import GoogleBasePlatform
from repro.cluster import ClusterConfig, build_clustered_engine
from repro.core.datasources import ProprietaryTableSource, SourceQuery
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.engine import (
    SearchOptions,
    Vertical,
    build_engine,
    evaluate_candidates,
    rank_candidates,
)
from repro.searchengine.index import InvertedIndex
from repro.searchengine.query import extract_terms, parse_query
from repro.searchengine.ranking import (
    BM25Parameters,
    BM25Scorer,
    by_score_then_id,
    recency_boost,
)
from repro.searchengine.stats import CorpusStats
from repro.simweb.model import SyntheticWeb
from repro.storage.records import FieldSpec, FieldType, RecordTable, Schema
from tests.reference_index import DictIndex, doc_ids, reference_of
from tests.test_cluster_equivalence import (
    align_clocks,
    make_web,
    sample_queries,
)


def reference_score(index, fields, params, doc_id, terms) -> float:
    """The scorer as it was before statistics became a value: every
    statistic read from the index per (document, field, term)."""
    total = 0.0
    for field_name in fields:
        lengths = index.field_lengths(field_name)
        avg_len = (index.total_field_length(field_name) / len(lengths)
                   if lengths else 0.0)
        if avg_len == 0:
            continue
        doc_len = lengths.get(doc_id, 0)
        norm = params.k1 * (
            1.0 - params.b + params.b * doc_len / avg_len
        )
        boost = params.boost(field_name)
        for term in terms:
            positions = index.postings(field_name, term).get(doc_id)
            if positions is None:
                continue
            n = len(index)
            df = index.document_frequency(field_name, term)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            tf = len(positions)
            total += boost * idf * (
                tf * (params.k1 + 1.0) / (tf + norm)
            )
    return total


def blend_scores(relevance: float, prior: float,
                 prior_weight: float = 0.3) -> float:
    """Combine text relevance with an authority/freshness prior, the
    way ``BM25Scorer.rank`` applies ``prior``: multiplicatively on a
    (1 + prior) basis, so a zero prior demotes but never eliminates."""
    return relevance * (1.0 + prior_weight * prior)


def reference_rank(index, fields, params, terms, candidates,
                   adjust=None) -> list:
    """Ranking as it was before top-k: score each candidate on its own,
    map it through ``adjust(doc_id, relevance)``, sort everything. A
    query with no terms ranks every candidate at relevance 1.0."""
    def score(doc_id):
        if not terms:
            return 1.0
        return reference_score(index, fields, params, doc_id, terms)

    if adjust is None:
        scored = [(doc_id, score(doc_id)) for doc_id in candidates]
    else:
        scored = [(doc_id, adjust(doc_id, score(doc_id)))
                  for doc_id in candidates]
    scored.sort(key=by_score_then_id)
    return scored


ANALYZER = Analyzer()
WORDS = ("halo", "zelda", "review", "game", "wine", "guide", "arena",
         "quest", "vintage", "tasting")
FIELDS = ("title", "body", "notes")
# What the index stores for each word, plus one term no document has.
TERMS = tuple(ANALYZER.analyze(word)[0] for word in WORDS) + ("zzabsent",)

# A field is missing, empty, or a run of words (repeats included).
field_values = st.one_of(
    st.none(), st.just(""),
    st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join),
)
corpora = st.lists(
    st.fixed_dictionaries({name: field_values for name in FIELDS}),
    min_size=1, max_size=40,
)
scored_fields = st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3,
                         unique=True)
parameters = st.builds(
    BM25Parameters,
    k1=st.sampled_from((0.9, 1.2, 2.0)),
    b=st.sampled_from((0.0, 0.75, 1.0)),
    field_boosts=st.dictionaries(st.sampled_from(FIELDS),
                                 st.sampled_from((0.5, 2.0, 3.5))),
)
term_lists = st.lists(st.sampled_from(TERMS), max_size=5)


def documents(corpus):
    return [FieldedDocument(f"d{n:02d}", fields)
            for n, fields in enumerate(corpus)]


def index_of(docs, kind=InvertedIndex):
    index = kind(Analyzer())
    for doc in docs:
        index.add(doc)
    return index


@settings(max_examples=200)
@given(corpora, scored_fields, parameters, term_lists)
def test_scores_equal_the_per_call_reference(corpus, fields, params, terms):
    docs = documents(corpus)
    index = index_of(docs)
    scorer = BM25Scorer(index, fields, params, terms)
    ids = {doc.doc_id for doc in docs}
    assert scorer.rank(index.ordinals()) == reference_rank(
        index_of(docs, DictIndex), fields, params, terms, ids)


@settings(max_examples=100)
@given(corpora, scored_fields, parameters, term_lists)
def test_a_shard_under_merged_stats_scores_like_the_union(
        corpus, fields, params, terms):
    docs = documents(corpus)
    union = index_of(docs, DictIndex)
    shards = [index_of(docs[n::4]) for n in range(4)]
    stats = CorpusStats.merge(
        CorpusStats.collect(shard, fields, terms) for shard in shards)
    for n, shard in enumerate(shards):
        ids = {doc.doc_id for doc in docs[n::4]}
        scorer = BM25Scorer(shard, fields, params, terms, stats)
        assert scorer.rank(shard.ordinals()) == reference_rank(
            union, fields, params, terms, ids)


# (weight, prior values) per vertical kind: web blends link authority
# (many ids absent), news blends recency, the others blend nothing. A
# few repeated values force score ties.
PRIOR_WEIGHTS = {"plain": 0.0, "web": 0.3, "news": 0.5}
prior_values = st.one_of(st.sampled_from((0.0, 0.25, 1.0)),
                         st.floats(0.0, 1.0))


@settings(max_examples=200)
@given(corpora, corpora, scored_fields, parameters, term_lists,
       st.sampled_from(sorted(PRIOR_WEIGHTS)), st.data())
def test_bounded_rank_is_the_reference_prefix(
        corpus, added, fields, params, terms, kind, data):
    # Churn: index, remove some, add more (and copies, for ties, and
    # ghosts, documents in no posting at all), in both indexes.
    docs = documents(corpus)
    index, reference = index_of(docs), index_of(docs, DictIndex)
    removed = data.draw(st.sets(st.sampled_from(
        [doc.doc_id for doc in docs])), "removed")
    for doc_id in sorted(removed):
        index.remove(doc_id)
        reference.remove(doc_id)
    for n, fields_of in enumerate(added + corpus[:3] + [{}, {}]):
        index.add(FieldedDocument(f"e{n:02d}", fields_of))
        reference.add(FieldedDocument(f"e{n:02d}", fields_of))
    live = sorted(index.all_doc_ids())
    # Candidates: any live subset, the ghosts among them.
    candidates = data.draw(st.sets(st.sampled_from(live)), "live")
    ordinals = {index.ordinal(doc_id) for doc_id in candidates}

    weight = PRIOR_WEIGHTS[kind]
    prior = None
    if kind != "plain":
        prior = data.draw(st.dictionaries(
            st.sampled_from(sorted(candidates) or ["ghost"]),
            prior_values), "prior")
        if kind == "news":      # recency is known for every candidate
            prior = {doc_id: prior.get(doc_id, 0.5)
                     for doc_id in candidates}

    def adjust(doc_id, relevance):
        return blend_scores(relevance, prior.get(doc_id, 0.0), weight)

    expected = reference_rank(reference, fields, params, terms, candidates,
                              adjust if prior is not None else None)
    scorer = BM25Scorer(index, fields, params, terms)
    n = len(candidates)
    k = data.draw(st.integers(0, n + 2), "k")
    for limit in sorted({0, 1, k, n, n + 3}):
        assert scorer.rank(ordinals, prior, weight, limit) == \
            expected[:limit]
    full = scorer.rank(ordinals, prior, weight)
    assert full == expected
    for doc_id, score in full:
        relevance = (reference_score(reference, fields, params, doc_id,
                                     terms) if terms else 1.0)
        if prior is not None:
            relevance = blend_scores(relevance, prior.get(doc_id, 0.0),
                                     weight)
        assert score == relevance


def reference_rank_candidates(vindex, candidates, terms, now_ms):
    """``rank_candidates`` before top-k: one blend closure per vertical
    around the doc-at-a-time reference."""
    adjust = None
    if vindex.vertical == Vertical.WEB:
        def adjust(doc_id, relevance):
            return blend_scores(relevance,
                                vindex.authority.get(doc_id, 0.0),
                                prior_weight=0.3)
    elif vindex.vertical == Vertical.NEWS:
        def adjust(doc_id, relevance):
            published = int(vindex.index.document(doc_id).fields.get(
                "_published_ms", 0))
            return blend_scores(relevance,
                                recency_boost(published, now_ms),
                                prior_weight=0.5)
    return reference_rank(reference_of(vindex.index), vindex.text_fields,
                          vindex.params, terms,
                          doc_ids(vindex.index, candidates), adjust)


def test_every_vertical_ranks_like_the_blend_closures():
    """Authority (with ids the link graph never saw), recency, no
    prior, and a filter-only query, at several limits."""
    web = make_web(2010)
    engine = build_engine(web)
    unlinked = "http://unlinked.example/1"
    engine.vertical("web").add(FieldedDocument(unlinked, {
        "url": unlinked, "title": "wine tasting review",
        "body": "wine review", "site": "unlinked.example",
        "topic": "wine"}))
    assert unlinked not in engine.vertical("web").authority
    now_ms = engine.clock.now_ms
    queries = (*sample_queries(web), f"site:{sorted(web.sites)[0]}")
    for vertical in Vertical:
        vindex = engine.vertical(vertical)
        for query in queries:
            node = parse_query(query)
            terms = extract_terms(node, vindex.index.analyzer)
            candidates = evaluate_candidates(vindex, node,
                                             SearchOptions(), now_ms)
            expected = reference_rank_candidates(vindex, candidates,
                                                 terms, now_ms)
            scorer = BM25Scorer(vindex.index, vindex.text_fields,
                                vindex.params, terms)
            for limit in (0, 1, 3, 10, None):
                assert rank_candidates(
                    vindex, candidates, scorer, now_ms, limit) == \
                    expected[:limit], (vertical, query, limit)


def assert_same_answers(single, cluster, vertical, query):
    align_clocks(single, cluster)
    options = SearchOptions(count=10)
    a = single.search(vertical, query, options)
    b = cluster.search(vertical, query, options)
    label = f"{vertical!r} {query!r}"
    assert not b.degraded, label
    assert [(r.url, r.score) for r in b.results] == \
        [(r.url, r.score) for r in a.results], label
    assert b.total_matches == a.total_matches, label


def test_cluster_returns_the_single_nodes_scores_exactly():
    """All four verticals (authority and recency blends included),
    then again after adds and removes have moved every statistic."""
    web = make_web(2010)
    single = build_engine(web)
    cluster = build_clustered_engine(
        web, ClusterConfig(num_shards=4, replicas_per_shard=1))
    for vertical in ("web", "image", "video", "news"):
        for query in sample_queries(web):
            assert_same_answers(single, cluster, vertical, query)

    storm = [
        FieldedDocument(
            doc_id=f"http://storm.example/{n}",
            fields={"url": f"http://storm.example/{n}",
                    "title": f"stormterm review {n}",
                    "body": "wine stormterm " * (1 + n % 3),
                    "site": "storm.example", "topic": "wine"},
        )
        for n in range(60)
    ]
    for doc in storm:
        cluster.add_document("web", doc)
        single.vertical("web").add(doc)
    for doc in storm[::2]:
        cluster.remove_document("web", doc.doc_id)
        single.vertical("web").index.remove(doc.doc_id)
    for query in ("stormterm", "stormterm review", "wine tasting",
                  *sample_queries(web)):
        assert_same_answers(single, cluster, "web", query)


def test_equal_scores_order_by_id_on_every_kind_of_index():
    # Twelve identical rows each; ids that sort differently as strings
    # ("…:10" < "…:2") than in insertion order.
    table = RecordTable("inv", Schema((
        FieldSpec("title", FieldType.STRING),)), ("title",))
    for n in reversed(range(1, 13)):
        table.insert({"title": "vintage crate"}, record_id=f"inv:{n}")
    source = ProprietaryTableSource("src", "Inventory", table, ("title",))
    items = source.search(SourceQuery("vintage crate", count=12)).items
    assert len({item.score for item in items}) == 1
    assert [item.item_id for item in items] == \
        sorted(f"inv:{n}" for n in range(1, 13))

    engine = build_engine(SyntheticWeb(), use_authority=False)
    base = GoogleBasePlatform(engine)
    base.upload_structured_data(
        [{"title": "vintage crate", "sku": str(n)} for n in range(1, 13)])
    skus = [item["sku"] for item in base.search("vintage crate")
            ["base_items"]]
    assert skus == ["1", "10", "11"]    # base:items:1, :10, :11

    urls = [f"http://tie.example/{n}" for n in range(1, 13)]
    for url in reversed(urls):
        engine.vertical("web").add(FieldedDocument(url, {
            "url": url, "title": "vintage crate", "body": "vintage crate",
            "site": "tie.example", "topic": "wine"}))
    response = engine.search("web", "vintage crate",
                             SearchOptions(count=12))
    assert len({r.score for r in response.results}) == 1
    assert response.urls() == sorted(urls)
