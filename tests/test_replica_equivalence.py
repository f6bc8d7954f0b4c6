"""Property test: shared replica state is invisible to every observer.

The replicas of a shard hold one :class:`~repro.cluster.replica.IndexState`
and a write is filed once per distinct state. The reference here is the
per-replica path it replaced: every replica built on, and kept on, its
own private indexes (a crash, a new replica, a split's new shard and a
verified recovery all stay private), so each one files every write
itself. Random interleavings of writes, tolerant writes, kills, crashes,
recoveries, replica adds, splits and searches must leave both clusters
answering, digesting and counting identically.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    IndexState,
    ReplicaGroup,
    ShardReplica,
    build_clustered_engine,
)
from repro.cluster.engine import ClusteredSearchEngine
from repro.cluster.sharding import ShardRouter
from repro.controlplane import ShardLifecycleManager
from repro.durability import DurabilityConfig, content_digest
from repro.durability.manager import DurabilityManager
from repro.errors import ReproError
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.engine import (
    iter_corpus_documents,
    make_vertical_indexes,
)
from repro.simweb.generator import WebGenerator, WebSpec

WEB = WebGenerator(WebSpec(
    seed=3, topics=("video_games",), extra_sites_per_topic=0,
    pages_per_site=2, images_per_site=1, videos_per_site=1,
    news_per_site=2,
)).build()
# A few dozen pages keep two cluster builds per example cheap.
WEB.pages = dict(sorted(WEB.pages.items())[:32])
VERTICALS = ("web", "news")
QUERIES = ("game", "shared title", "review", "equivalence")
MAX_SHARDS = 3
MAX_REPLICAS = 4


def build_private_cluster(web, config: ClusterConfig):
    """The per-replica reference: one private index set per replica.

    Mirrors ``build_clustered_engine`` except that no two replicas
    share a state, so ``broadcast`` hands each of them every write.
    """
    router = ShardRouter(config.num_shards)
    groups = [
        ReplicaGroup(shard_id, [
            ShardReplica(shard_id, index,
                         IndexState(make_vertical_indexes({})))
            for index in range(config.replicas_per_shard)
        ], failure_threshold=config.failure_threshold)
        for shard_id in range(config.num_shards)
    ]
    engine = ClusteredSearchEngine(groups, router, authority={},
                                   config=config)
    for vertical, document in iter_corpus_documents(web):
        groups[router.shard_of(document.doc_id)].broadcast(
            lambda replica, v=vertical, d=document: replica.add(v, d))
    return engine


def make_doc(number: int, version: int = 0) -> FieldedDocument:
    return FieldedDocument(
        f"equivalence-doc-{number}",
        {"title": f"shared title {number} v{version}",
         "body": f"equivalence review {version} game " * (1 + number % 3),
         "url": f"http://equivalence.example/{number}"},
        None,
    )


class Cluster:
    """One cluster plus its durability and lifecycle managers."""

    def __init__(self, private: bool, replicas: int) -> None:
        config = ClusterConfig(num_shards=2, replicas_per_shard=replicas)
        self.private = private
        if private:
            self.engine = build_private_cluster(WEB, config)
        else:
            self.engine = build_clustered_engine(WEB, config,
                                                 use_authority=False)
        self.durability = DurabilityManager(
            self.engine, DurabilityConfig(checkpoint_every=8))
        self.lifecycle = ShardLifecycleManager(self.engine, batch_size=16)

    def add_replica(self, shard_id: int):
        replica = self.lifecycle.add_replica(shard_id)
        if self.private:
            # The old path: a new replica re-files the primary's docs.
            primary = self.engine.groups[shard_id].primary()
            replica.state = IndexState(make_vertical_indexes({}))
            for vertical, vindex in primary.verticals.items():
                for doc_id in sorted(vindex.index.all_doc_ids()):
                    replica.add(vertical, vindex.index.document(doc_id))
            replica.applied_lsn = primary.applied_lsn

    def split(self, shard_id: int):
        migration = self.lifecycle.begin_split(shard_id)
        if self.private:
            for replica in self.engine.groups[migration.target_id].replicas:
                replica.state = IndexState(make_vertical_indexes({}))
        while self.lifecycle.active:
            self.lifecycle.step()
        return migration.docs_moved

    def recover(self, shard_id: int, replica_index: int):
        replica = self.engine.groups[shard_id].replicas[replica_index]
        restored = replica.state
        report = self.durability.recover_replica(shard_id, replica_index)
        if self.private:
            replica.state = restored      # the old path kept its copy
        # Every field but the digest itself; digest_match is its verdict.
        return {name: value for name, value in vars(report).items()
                if name != "digest"}


def search(engine, vertical: str, query: str):
    response = engine.search(vertical, query)
    return ([(r.url, r.score) for r in response.results],
            response.total_matches, response.degraded)


def apply(cluster: Cluster, step):
    """Run one step; returns what it answered (or the error it raised)."""
    engine = cluster.engine
    groups = engine.groups
    kind, a, b = step
    shard = a % len(groups)
    replica_index = b % len(groups[shard].replicas)
    vertical = VERTICALS[a % 2]
    try:
        if kind == "add":
            engine.add_document(vertical, make_doc(a))
        elif kind == "remove":
            engine.remove_document(vertical, make_doc(a).doc_id)
        elif kind == "upsert":
            document = make_doc(a, version=b)
            engine.replicated_write(
                engine.router.shard_of(document.doc_id), "add",
                vertical, document=document, tolerant=True)
        elif kind == "discard":
            doc_id = make_doc(a).doc_id
            engine.replicated_write(engine.router.shard_of(doc_id),
                                    "remove", vertical, doc_id=doc_id,
                                    tolerant=True)
        elif kind == "kill":
            engine.kill_replica(shard, replica_index)
        elif kind == "revive":
            engine.revive_replica(shard, replica_index)
        elif kind == "crash":
            cluster.durability.crash_replica(shard, replica_index)
        elif kind == "recover":
            crashed = [(group.shard_id, index)
                       for group in groups
                       for index, replica in enumerate(group.replicas)
                       if replica.crashed]
            if crashed:
                return cluster.recover(*crashed[a % len(crashed)])
        elif kind == "add_replica":
            if len(groups[shard].replicas) < MAX_REPLICAS:
                return cluster.add_replica(shard)
        elif kind == "split":
            if len(groups) < MAX_SHARDS:
                return cluster.split(shard)
        else:
            return search(engine, vertical, QUERIES[b % len(QUERIES)])
    except ReproError as exc:
        return type(exc).__name__, str(exc)
    return None


def replica_state(engine):
    digests: dict = {}      # one digest per distinct state
    rows = []
    for group in engine.groups:
        for replica in group.replicas:
            key = id(replica.state)
            if key not in digests:
                digests[key] = content_digest(replica)
            rows.append((replica.replica_id, digests[key],
                         replica.applied_lsn, replica.writes_missed,
                         replica.healthy, replica.crashed))
    return rows


steps = st.lists(
    st.tuples(
        st.sampled_from(("add", "remove", "upsert", "discard", "kill",
                         "revive", "crash", "crash", "recover",
                         "add_replica", "split", "search", "search")),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=4, max_size=16,
)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(replicas=st.sampled_from((2, 3)), sequence=steps)
# Every replica of shard 0 crashed: degraded reads, add_replica refused,
# then a recovery with no peer to verify against and one with a peer.
@example(replicas=2, sequence=[
    ("crash", 0, 0), ("crash", 0, 1), ("add", 2, 0), ("search", 0, 0),
    ("add_replica", 0, 0), ("recover", 0, 0), ("add", 4, 1),
    ("search", 0, 0), ("recover", 0, 0), ("upsert", 2, 3),
    ("search", 0, 1),
])
# The only healthy peer is killed: the recovered replica keeps its own
# state beside the others' shared one, and both take every write.
@example(replicas=3, sequence=[
    ("kill", 0, 0), ("crash", 0, 1), ("kill", 0, 2), ("upsert", 1, 2),
    ("recover", 0, 0), ("revive", 0, 0), ("revive", 0, 2),
    ("add", 6, 0), ("discard", 1, 0), ("add_replica", 0, 0),
    ("split", 0, 0), ("search", 0, 0), ("search", 1, 2),
])
def test_shared_state_matches_private_replicas(replicas, sequence):
    shared = Cluster(private=False, replicas=replicas)
    reference = Cluster(private=True, replicas=replicas)
    for step in sequence:
        assert apply(shared, step) == apply(reference, step), step
        assert (replica_state(shared.engine)
                == replica_state(reference.engine)), step
    for vertical in VERTICALS:
        for query in QUERIES:
            assert (search(shared.engine, vertical, query)
                    == search(reference.engine, vertical, query))
