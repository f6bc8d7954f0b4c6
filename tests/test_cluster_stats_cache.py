"""The coordinator's cached BM25 statistics: one round when warm, never
stale.

A clustered query needs corpus-wide statistics before its shards can
score. The coordinator keeps one merged entry per vertical, keyed on
(writes applied to that vertical, route-map version): a query whose
terms are all in the entry is one execution round; any other runs one
``stats`` round first, and only a round every routed shard answered is
kept. These tests count scatter rounds per search and check that a
warm entry answers exactly as a single node does, whatever writes,
splits and merges came in between.
"""

from __future__ import annotations

from functools import cache

from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterConfig, build_clustered_engine
from repro.cluster import engine as cluster_engine
from repro.controlplane import COMPLETE, CUTOVER, ShardLifecycleManager
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.engine import SearchOptions, build_engine
from repro.simweb.generator import WebGenerator, WebSpec

SPEC = WebSpec(
    seed=2010,
    topics=("video_games", "wine"),
    extra_sites_per_topic=1,
    pages_per_site=4,
    images_per_site=1,
    videos_per_site=1,
    news_per_site=3,
)


@cache
def web():
    return WebGenerator(SPEC).build()


def make_cluster(num_shards=2):
    return build_clustered_engine(
        web(), ClusterConfig(num_shards=num_shards, replicas_per_shard=1))


def count_rounds(engine) -> list:
    """Wrap the engine's executor; the returned list holds the shard
    set of every scatter round since."""
    rounds = []
    real_scatter = engine.executor.scatter

    def scatter(tasks):
        rounds.append(frozenset(tasks))
        return real_scatter(tasks)

    engine.executor.scatter = scatter
    return rounds


def rounds_of(engine, rounds, vertical, query, options=None):
    """``(response, scatter rounds it took)``."""
    before = len(rounds)
    response = engine.search(vertical, query, options)
    return response, len(rounds) - before


def align_clocks(single, cluster):
    """News recency reads ``now_ms``; step both clocks to the later."""
    target = max(single.clock.now_ms, cluster.clock.now_ms)
    single.clock.advance(target - single.clock.now_ms)
    cluster.clock.advance(target - cluster.clock.now_ms)


def page(response) -> tuple:
    return ([(r.url, r.score) for r in response.results],
            response.total_matches)


def doc(n: int, words: str, vertical: str = "web") -> FieldedDocument:
    url = f"http://added-{n}.example/{vertical}"
    return FieldedDocument(doc_id=url, fields={
        "url": url, "title": f"{words} {n}", "body": f"{words} {words}",
        "site": f"added-{n}.example", "topic": "wine",
        "_published_ms": 1_262_000_000_000 + n,
    })


def test_a_warm_query_is_one_round():
    cluster = make_cluster()
    rounds = count_rounds(cluster)
    cold, cold_rounds = rounds_of(cluster, rounds, "web", "wine review")
    warm, warm_rounds = rounds_of(cluster, rounds, "web", "wine review")
    assert (cold_rounds, warm_rounds) == (2, 1)
    assert page(warm) == page(cold)
    # Known terms in another combination are warm too; a new one is not.
    assert rounds_of(cluster, rounds, "web", "review")[1] == 1
    assert rounds_of(cluster, rounds, "web", "review tasting")[1] == 2
    assert rounds_of(cluster, rounds, "web", "tasting wine")[1] == 1


def test_a_write_invalidates_only_its_vertical():
    cluster = make_cluster()
    single = build_engine(web())
    rounds = count_rounds(cluster)
    for vertical in ("web", "news"):
        rounds_of(cluster, rounds, vertical, "wine review")

    added = doc(1, "wine review", "news")
    cluster.add_document("news", added)
    single.vertical("news").add(added)

    align_clocks(single, cluster)
    assert rounds_of(cluster, rounds, "web", "wine review")[1] == 1
    response, taken = rounds_of(cluster, rounds, "news", "wine review")
    assert taken == 2
    assert page(response) == page(single.search("news", "wine review"))
    assert added.doc_id in response.urls()


def test_a_cutover_invalidates_the_entry():
    for kind in ("split", "merge"):
        cluster = make_cluster(num_shards=2)
        rounds = count_rounds(cluster)
        lifecycle = ShardLifecycleManager(cluster)
        if kind == "split":
            lifecycle.begin_split(0)
        else:
            lifecycle.begin_merge(1, 0)
        while lifecycle.step() != CUTOVER:
            pass
        # The copy stream is done: warm the entry on the old layout,
        # then flip with no write in between.
        rounds_of(cluster, rounds, "web", "wine review")
        assert rounds_of(cluster, rounds, "web", "wine review")[1] == 1
        lifecycle.step()
        after, taken = rounds_of(cluster, rounds, "web", "wine review")
        assert taken == 2, kind
        again, taken = rounds_of(cluster, rounds, "web", "wine review")
        assert taken == 1, kind
        assert page(again) == page(after)
        while lifecycle.active:
            lifecycle.step()
        assert lifecycle.migration is None


def test_a_cold_round_that_loses_a_shard_caches_nothing():
    cluster = make_cluster()
    single = build_engine(web())
    rounds = count_rounds(cluster)
    cluster.groups[1].replicas[0].inject_fault()
    lost, taken = rounds_of(cluster, rounds, "web", "wine review")
    assert lost.degraded and lost.failed_shards == (1,)
    # The stats round failed on shard 1, so execution skipped it.
    assert taken == 2 and rounds[-1] == frozenset({0})

    healed, taken = rounds_of(cluster, rounds, "web", "wine review")
    assert taken == 2 and not healed.degraded
    align_clocks(single, cluster)
    assert page(healed) == page(single.search("web", "wine review"))


def test_a_degraded_warm_query_scores_survivors_under_full_statistics():
    cluster = make_cluster()
    rounds = count_rounds(cluster)
    everything = SearchOptions(count=500)
    full, __ = rounds_of(cluster, rounds, "web", "wine review", everything)
    cluster.groups[1].replicas[0].inject_fault()
    degraded, taken = rounds_of(cluster, rounds, "web", "wine review",
                                everything)
    assert taken == 1
    assert degraded.degraded and degraded.failed_shards == (1,)
    on_shard_0 = [(r.url, r.score) for r in full.results
                  if cluster.router.shard_of(r.url) == 0]
    assert on_shard_0
    assert [(r.url, r.score) for r in degraded.results] == on_shard_0


def test_the_entry_starts_over_at_its_bound(monkeypatch):
    monkeypatch.setattr(cluster_engine, "STATS_CACHE_TERMS", 2)
    cluster = make_cluster()
    rounds = count_rounds(cluster)
    assert rounds_of(cluster, rounds, "web", "wine")[1] == 2
    assert rounds_of(cluster, rounds, "web", "review")[1] == 2
    assert rounds_of(cluster, rounds, "web", "wine review")[1] == 1
    # A third term passes the bound: the entry holds only it now.
    assert rounds_of(cluster, rounds, "web", "tasting")[1] == 2
    assert rounds_of(cluster, rounds, "web", "tasting")[1] == 1
    assert rounds_of(cluster, rounds, "web", "wine")[1] == 2


# -- interleaved writes, reshards and queries ----------------------------------

WORDS = ("wine", "review", "tasting", "game", "vintage")
VERTICALS = ("web", "news")

queries = st.tuples(
    st.just("query"), st.sampled_from(VERTICALS),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(" ".join))
adds = st.tuples(
    st.just("add"), st.sampled_from(VERTICALS),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join))
removes = st.tuples(st.just("remove"), st.sampled_from(VERTICALS),
                    st.integers(0, 10_000))
reshards = st.tuples(st.sampled_from(("split", "merge")))
operations = st.lists(
    st.one_of(queries, queries, adds, adds, removes, reshards),
    min_size=1, max_size=14)


def reshard(cluster, kind: str) -> None:
    active = cluster.router.snapshot().shard_ids
    lifecycle = ShardLifecycleManager(cluster, batch_size=64)
    if kind == "split":
        lifecycle.begin_split(active[0])
    elif len(active) > 1:
        lifecycle.begin_merge(active[-1], active[0])
    else:
        return
    migration = lifecycle.migration
    while lifecycle.active:
        lifecycle.step()
    assert migration.state == COMPLETE


def assert_same(single, cluster, rounds, vertical, query) -> None:
    """The cluster answers ``query`` as the single node does, and a
    second time from a warm entry in one round."""
    options = SearchOptions(count=20)
    for warm in (False, True):
        align_clocks(single, cluster)
        expected = single.search(vertical, query, options)
        got, taken = rounds_of(cluster, rounds, vertical, query, options)
        if warm:
            assert taken == 1, query
        assert not got.degraded
        assert got.urls() == expected.urls(), query
        assert [r.score for r in got.results] == \
            [r.score for r in expected.results], query
        assert got.total_matches == expected.total_matches, query


@settings(max_examples=25, derandomize=True, deadline=None)
@given(operations)
def test_interleaved_writes_and_reshards_match_single_node(ops):
    single = build_engine(web())
    cluster = make_cluster(num_shards=2)
    rounds = count_rounds(cluster)
    # Warm every vertical on every word, so each later write or
    # reshard meets a populated entry.
    for vertical in VERTICALS:
        assert_same(single, cluster, rounds, vertical, " ".join(WORDS))
    for n, op in enumerate(ops):
        if op[0] == "query":
            assert_same(single, cluster, rounds, op[1], op[2])
        elif op[0] == "add":
            document = doc(n, op[2], op[1])
            cluster.add_document(op[1], document)
            single.vertical(op[1]).add(document)
        elif op[0] == "remove":
            ids = sorted(single.vertical(op[1]).index.all_doc_ids())
            doc_id = ids[op[2] % len(ids)]
            cluster.remove_document(op[1], doc_id)
            single.vertical(op[1]).index.remove(doc_id)
        else:
            reshard(cluster, op[0])
    for vertical in VERTICALS:
        assert_same(single, cluster, rounds, vertical, " ".join(WORDS))
