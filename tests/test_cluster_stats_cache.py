"""The coordinator's cached BM25 statistics: one round when warm, never
stale.

A clustered query needs corpus-wide statistics before its shards can
score. The coordinator keeps one merged entry per vertical over its
whole vocabulary, keyed on (that vertical's corpus generation,
route-map version): a query under a current entry is one execution
round, whatever its terms; the first query after a write or a cutover
runs one ``stats`` round first, and only a round every routed shard
answered is kept. These tests count scatter rounds per search and
check that a warm entry answers, "did you mean" included, exactly as a
single node does, whatever writes came in between, in every state of a
split or a merge.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from functools import cache
from unittest import mock

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.cluster import ClusterConfig, build_clustered_engine, sharding
from repro.cluster.replica import ShardReplica
from repro.controlplane import CUTOVER, ShardLifecycleManager
from repro.resilience.deadline import Deadline
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


@cache
def pristine() -> bytes:
    """A new single node and 2-shard cluster, pickled: each machine
    run unpickles its own copy in a tenth of the time a build takes."""
    return pickle.dumps((build_engine(web()), make_cluster(num_shards=2)))


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
    # The entry holds the whole vocabulary: terms no earlier query
    # asked about are warm too, and so is a word the corpus lacks.
    assert rounds_of(cluster, rounds, "web", "review")[1] == 1
    assert rounds_of(cluster, rounds, "web", "review tasting")[1] == 1
    assert rounds_of(cluster, rounds, "web", "zzunknown")[1] == 1


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


def test_an_expired_deadline_runs_no_round():
    cluster = make_cluster()
    rounds = count_rounds(cluster)
    deadline = Deadline(cluster.clock, 1)
    cluster.clock.advance(5)
    response = cluster.search("web", "wine review", deadline=deadline)
    assert response.deadline_overrun and response.degraded
    assert not response.results
    assert rounds == []
    assert sum(replica.reads_served for group in cluster.groups
               for replica in group.replicas) == 0


# -- a pinned route filters by stored hash --------------------------------------


@contextmanager
def hashing_in_shard_reads():
    """Count ``route_hash`` calls made inside a replica's two read
    phases, ``collect_stats`` and ``execute_many``, and the filters
    those reads built under a pinned route:
    ``{"hashes": n, "routed": n}``."""
    counts = {"hashes": 0, "routed": 0}
    depth = [0]
    real_hash, real_keep = sharding.route_hash, ShardReplica._keep

    def counted(doc_id):
        counts["hashes"] += depth[0] > 0
        return real_hash(doc_id)

    def keep(self, route, index):
        counts["routed"] += route is not None
        return real_keep(self, route, index)

    def reading(method):
        real = getattr(ShardReplica, method)

        def read(self, *args, **kwargs):
            depth[0] += 1
            try:
                return real(self, *args, **kwargs)
            finally:
                depth[0] -= 1
        return read

    with mock.patch.object(sharding, "route_hash", counted), \
            mock.patch.object(ShardReplica, "_keep", keep), \
            mock.patch.object(ShardReplica, "collect_stats",
                              reading("collect_stats")), \
            mock.patch.object(ShardReplica, "execute_many",
                              reading("execute_many")):
        yield counts


def test_a_mid_migration_read_hashes_nothing():
    """Both phases filter by the hash each shard index stored at add."""
    for kind in ("split", "merge"):
        cluster = make_cluster()
        single = build_engine(web())
        lifecycle = ShardLifecycleManager(cluster, batch_size=8)
        if kind == "split":
            lifecycle.begin_split(0)
        else:
            lifecycle.begin_merge(1, 0)
        while lifecycle.step() != CUTOVER:
            pass
        for __ in range(2):     # before the cutover, then after it
            assert cluster.write_fanout is not None
            with hashing_in_shard_reads() as counts:
                got = cluster.search("web", "wine review")
            assert counts["routed"] >= 2 and counts["hashes"] == 0, kind
            align_clocks(single, cluster)
            assert page(got) == page(single.search("web", "wine review"))
            lifecycle.step()


# -- interleaved writes, reshard steps and queries -----------------------------

WORDS = ("wine", "review", "tasting", "game", "vintage")
VERTICALS = ("web", "news")


def misspell(query: str) -> str:
    """Swap each word's second and third letters."""
    return " ".join(word[0] + word[2] + word[1] + word[3:]
                    for word in query.split())


def assert_same(single, cluster, rounds, vertical, query) -> None:
    """The cluster answers ``query`` as the single node does, a second
    time from a warm entry in one round, and then a misspelled form of
    it with the same "did you mean", in one round too."""
    options = SearchOptions(count=20)
    for text, warm in ((query, False), (query, True),
                       (misspell(query), True)):
        align_clocks(single, cluster)
        expected = single.search(vertical, text, options)
        got, taken = rounds_of(cluster, rounds, vertical, text, options)
        if warm:
            assert taken == 1, text
        assert not got.degraded
        assert got.urls() == expected.urls(), text
        assert [r.score for r in got.results] == \
            [r.score for r in expected.results], text
        assert got.total_matches == expected.total_matches, text
        assert got.suggestion == expected.suggestion, text


class ReshardMachine(RuleBasedStateMachine):
    """Writes, lifecycle steps and queries in any order, against a
    single node that sees the same writes: every query, in every state
    of a split or a merge, answers as the single node does."""

    @initialize()
    def warm(self):
        self.single, self.cluster = pickle.loads(pristine())
        self.rounds = count_rounds(self.cluster)
        self.lifecycle = ShardLifecycleManager(self.cluster, batch_size=8)
        self.added = 0
        # Warm every vertical on every word, so each later write or
        # step meets a populated entry.
        for vertical in VERTICALS:
            assert_same(self.single, self.cluster, self.rounds, vertical,
                        " ".join(WORDS))

    def shard_ids(self) -> tuple:
        return self.cluster.router.snapshot().shard_ids

    @rule(vertical=st.sampled_from(VERTICALS),
          words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
    def add(self, vertical, words):
        document = doc(self.added, " ".join(words), vertical)
        self.added += 1
        self.cluster.add_document(vertical, document)
        self.single.vertical(vertical).add(document)

    @rule(vertical=st.sampled_from(VERTICALS), pick=st.integers(0, 10_000))
    def remove(self, vertical, pick):
        ids = sorted(self.single.vertical(vertical).index.all_doc_ids())
        doc_id = ids[pick % len(ids)]
        self.cluster.remove_document(vertical, doc_id)
        self.single.vertical(vertical).index.remove(doc_id)

    @precondition(lambda self: not self.lifecycle.active)
    @rule()
    def begin_split(self):
        self.lifecycle.begin_split(self.shard_ids()[0])

    @precondition(lambda self: not self.lifecycle.active
                  and len(self.shard_ids()) > 1)
    @rule()
    def begin_merge(self):
        active = self.shard_ids()
        self.lifecycle.begin_merge(active[-1], active[0])

    @precondition(lambda self: self.lifecycle.active)
    @rule()
    def step(self):
        self.lifecycle.step()

    @rule(vertical=st.sampled_from(VERTICALS),
          words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=2))
    def query(self, vertical, words):
        with hashing_in_shard_reads() as counts:
            assert_same(self.single, self.cluster, self.rounds, vertical,
                        " ".join(words))
        assert counts["hashes"] == 0


ReshardMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20)
TestReshardMachine = ReshardMachine.TestCase
