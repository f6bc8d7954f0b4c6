"""Property test: clustered search is rank/score-identical to single node.

The two-phase statistics exchange exists so BM25 idf and length
normalisation on a shard use corpus-wide numbers. If that works, a
cluster of any shard count must return exactly the ranked doc_ids the
single-node engine returns, with scores equal to within float noise —
for every vertical, over several generated webs.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import ClusterConfig, build_clustered_engine
from repro.controlplane import (
    CLEANUP,
    COMPLETE,
    COPY,
    CUTOVER,
    ShardLifecycleManager,
)
from repro.core.datasources import ProprietaryTableSource, SourceQuery
from repro.core.structured import StructuredQuery, execute_structured
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.engine import SearchOptions, build_engine
from repro.searchengine.facets import FacetResult, compute_facets
from repro.simweb.generator import WebGenerator, WebSpec
from repro.storage.records import FieldSpec, FieldType, RecordTable, Schema

SEEDS = (2010, 7, 123)
SHARD_COUNTS = (1, 2, 4, 5)


def make_web(seed: int):
    return WebGenerator(WebSpec(
        seed=seed,
        topics=("video_games", "wine"),
        extra_sites_per_topic=1,
        pages_per_site=6,
        images_per_site=2,
        videos_per_site=2,
        news_per_site=3,
    )).build()


def sample_queries(web):
    """A mixed workload: entity terms, common words, a site filter."""
    games = web.entities["video_games"]
    queries = [
        games[0],
        games[1].split()[0],
        "wine tasting",
        "review",
        "no-such-term-anywhere",
    ]
    some_site = sorted(web.sites)[0]
    queries.append(f"site:{some_site} review")
    return queries


def align_clocks(single, cluster):
    """NEWS recency scoring reads now_ms; the engines' clocks drift
    (sum- vs max-over-shards latency), so step both to the later one
    before each compared query."""
    target = max(single.clock.now_ms, cluster.clock.now_ms)
    single.clock.advance(target - single.clock.now_ms)
    cluster.clock.advance(target - cluster.clock.now_ms)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_cluster_matches_single_node(seed, num_shards):
    web = make_web(seed)
    single = build_engine(web)
    cluster = build_clustered_engine(
        web, ClusterConfig(num_shards=num_shards,
                           replicas_per_shard=1),
    )
    options = SearchOptions(count=10)
    for vertical in ("web", "image", "video", "news"):
        for query in sample_queries(web):
            align_clocks(single, cluster)
            a = single.search(vertical, query, options)
            b = cluster.search(vertical, query, options)
            label = f"{vertical!r} {query!r} shards={num_shards}"
            assert b.urls() == a.urls(), label
            assert b.total_matches == a.total_matches, label
            assert b.suggestion == a.suggestion, label
            assert not b.degraded
            for ours, theirs in zip(b.results, a.results):
                assert ours.score == pytest.approx(
                    theirs.score, abs=1e-9), label


def union_facets(cluster, vertical, query_text, facet_fields) -> dict:
    """Facets over the union of the routed shards' candidate sets: each
    shard's buckets, summed."""
    merged: dict = {name: {} for name in facet_fields}
    for group in cluster.active_groups():
        shard = compute_facets(group.primary().vertical(vertical),
                               query_text, facet_fields)
        for name, result in shard.items():
            for facet in result.counts:
                merged[name][facet.value] = \
                    merged[name].get(facet.value, 0) + facet.count
    return {name: FacetResult.of(name, buckets)
            for name, buckets in merged.items()}


@pytest.mark.parametrize("seed", SEEDS)
def test_facets_match_single_node(seed):
    """Facets stay a single-node method; the shards partition a corpus
    so that their summed buckets are the single node's."""
    web = make_web(seed)
    single = build_engine(web)
    cluster = build_clustered_engine(
        web, ClusterConfig(num_shards=4, replicas_per_shard=1),
    )
    assert union_facets(cluster, "web", "wine", ("site", "topic")) == \
        single.facets("web", "wine", ("site", "topic"))


def test_writes_right_after_a_failed_scatter_match_single_node():
    """ROADMAP 4(c), closed by construction: a search leaves no thread
    behind — not even one whose shard task raised — so a write storm on
    that shard straight afterwards races nothing and the cluster still
    answers like a single node."""
    web = make_web(2010)
    single = build_engine(web)
    cluster = build_clustered_engine(
        web, ClusterConfig(num_shards=4, replicas_per_shard=1),
    )
    storm = [
        FieldedDocument(
            doc_id=f"http://storm.example/{n}",
            fields={"url": f"http://storm.example/{n}",
                    "title": f"stormterm report {n}",
                    "body": "stormterm " * (1 + n % 3),
                    "site": "storm.example", "topic": "wine"},
        )
        for n in range(200)
    ]
    shard_id = cluster.router.shard_of(storm[0].doc_id)
    storm = [doc for doc in storm
             if cluster.router.shard_of(doc.doc_id) == shard_id]
    assert len(storm) >= 20

    threads_before = threading.active_count()
    assert not cluster.search("web", "wine tasting").degraded
    cluster.groups[shard_id].replicas[0].inject_fault()
    failed = cluster.search("web", "wine tasting")
    assert failed.degraded and failed.failed_shards == (shard_id,)
    assert threading.active_count() == threads_before

    for doc in storm:
        cluster.add_document("web", doc)
        single.vertical("web").add(doc)
    for doc in storm[::2]:
        cluster.remove_document("web", doc.doc_id)
        single.vertical("web").index.remove(doc.doc_id)

    options = SearchOptions(count=10)
    for query in ("stormterm", "stormterm report", "wine tasting"):
        align_clocks(single, cluster)
        a = single.search("web", query, options)
        b = cluster.search("web", query, options)
        assert not b.degraded
        assert b.urls() == a.urls(), query
        assert b.total_matches == a.total_matches, query
        for ours, theirs in zip(b.results, a.results):
            assert ours.score == pytest.approx(theirs.score, abs=1e-9)


def test_did_you_mean_follows_writes_on_both_engines():
    """A corrector snapshots the vocabulary, so a cached one must not
    outlive a write: the single node used to keep answering from the
    vocabulary of its first zero-hit query."""
    web = make_web(2010)
    single = build_engine(web)
    cluster = build_clustered_engine(
        web, ClusterConfig(num_shards=4, replicas_per_shard=1),
    )
    assert single.search("web", "stormtemr").suggestion is None
    assert cluster.search("web", "stormtemr").suggestion is None

    for n in range(2):
        doc = FieldedDocument(
            doc_id=f"http://storm.example/{n}",
            fields={"url": f"http://storm.example/{n}",
                    "title": f"stormterm report {n}",
                    "body": "stormterm", "site": "storm.example",
                    "topic": "wine"},
        )
        cluster.add_document("web", doc)
        single.vertical("web").add(doc)

    a = single.search("web", "stormtemr")
    b = cluster.search("web", "stormtemr")
    assert a.total_matches == b.total_matches == 0
    assert b.suggestion is not None
    assert a.suggestion == b.suggestion


def assert_same_page(single, cluster, vertical, query, offset, count):
    align_clocks(single, cluster)
    options = SearchOptions(count=count, offset=offset)
    a = single.search(vertical, query, options)
    b = cluster.search(vertical, query, options)
    label = f"{vertical!r} {query!r} offset={offset} count={count}"
    assert not b.degraded, label
    assert [(r.url, r.score) for r in b.results] == \
        [(r.url, r.score) for r in a.results], label
    assert b.total_matches == a.total_matches, label
    return a


def pages(total: int, num_shards: int) -> tuple:
    """``(offset, count)``: a later page, a page reaching past what one
    shard holds, the tail, and a count beyond the total."""
    per_shard = total // num_shards
    return ((3, 5), (1, per_shard + 3), (max(total - 2, 0), 10),
            (0, total + 7))


@pytest.mark.parametrize("num_shards", (1, 2, 4))
def test_every_page_matches_single_node(num_shards):
    """A shard ships only its top ``offset + count``; every page and
    ``total_matches`` must still be the single node's."""
    web = make_web(2010)
    single = build_engine(web)
    cluster = build_clustered_engine(
        web, ClusterConfig(num_shards=num_shards, replicas_per_shard=1))
    for vertical in ("web", "news"):
        for query in ("review", "wine", *sample_queries(web)):
            total = single.search(vertical, query).total_matches
            for offset, count in pages(total, num_shards):
                page = assert_same_page(single, cluster, vertical, query,
                                        offset, count)
                assert len(page.results) == \
                    max(0, min(count, total - offset))


@pytest.mark.parametrize("kind", ("split", "merge"))
def test_every_page_matches_single_node_in_every_reshard_state(kind):
    """Mid-migration a routed shard holds copies it does not own: the
    merge target before cutover, the split donor after it. Each shard
    counts only what the query's pinned route gives it, so in every
    lifecycle state every page (ids, scores, totals) is the single
    node's."""
    web = make_web(2010)
    single = build_engine(web)
    cluster = build_clustered_engine(
        web, ClusterConfig(num_shards=2, replicas_per_shard=1))
    lifecycle = ShardLifecycleManager(cluster, batch_size=32)
    if kind == "split":
        lifecycle.begin_split(0)
    else:
        lifecycle.begin_merge(1, 0)
    states = []
    doubled = False     # proof that a shard held a foreign copy
    state = lifecycle.migration.state
    while True:
        states.append(state)
        doubled |= sum(group.primary().doc_count("web")
                       for group in cluster.active_groups()) > len(
            single.vertical("web"))
        for vertical in ("web", "news"):
            for query in ("review", "wine tasting"):
                total = single.search(vertical, query).total_matches
                for offset, count in ((0, 10), *pages(total, 2)):
                    assert_same_page(single, cluster, vertical, query,
                                     offset, count)
        if state == COMPLETE:
            break
        state = lifecycle.step()
    assert set(states) == {COPY, CUTOVER, CLEANUP, COMPLETE}
    assert doubled


@pytest.fixture()
def catalog():
    table = RecordTable("games", Schema((
        FieldSpec("title", FieldType.STRING),
        FieldSpec("genre", FieldType.STRING),
    )))
    for n in range(23):
        table.insert({"title": f"halo {'arena ' * (n % 4)}{n}",
                      "genre": ("shooter", "arena")[n % 2]})
    return ProprietaryTableSource("src", "Games", table,
                                  ("title", "genre"))


def test_proprietary_pages_tile_the_full_ranking(catalog):
    everything = catalog.search(SourceQuery("halo arena", count=100))
    assert everything.total_matches == len(everything.items) > 10
    ranked = [(item.item_id, item.score) for item in everything.items]
    for count in (1, 4, 10):
        for offset in range(0, len(ranked) + count, count):
            page = catalog.search(SourceQuery("halo arena", count=count,
                                              offset=offset))
            assert page.total_matches == everything.total_matches
            assert [(item.item_id, item.score) for item in page.items] \
                == ranked[offset:offset + count]


def test_structured_text_query_sees_every_match(catalog):
    """``execute_structured`` asks for ``count=len(table)``; a bounded
    ranking must still hand it every match, in relevance order."""
    everything = catalog.search(SourceQuery("arena", count=100))
    result = execute_structured(
        catalog, StructuredQuery(text="arena", limit=100))
    assert [item.item_id for item in result.items] == \
        [item.item_id for item in everything.items]
    assert result.total_matches == everything.total_matches
