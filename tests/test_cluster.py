"""Unit and integration tests for the ``repro.cluster`` subsystem."""

import threading

import pytest

from repro.cluster import (
    ClusterConfig,
    ScatterGatherExecutor,
    ShardRouter,
    build_clustered_engine,
    merge_ranked,
)
from repro.cluster.replica import IndexState, ReplicaGroup, ShardReplica
from repro.errors import (
    DuplicateError,
    NotFoundError,
    ReplicaFaultError,
    ShardUnavailableError,
)
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.engine import (
    SearchOptions,
    build_engine,
    make_vertical_indexes,
)


@pytest.fixture()
def cluster(small_web):
    """A fresh 4x2 cluster per test (tests mutate health/contents)."""
    engine = build_clustered_engine(
        small_web,
        ClusterConfig(num_shards=4, replicas_per_shard=2),
        use_authority=False,
    )
    return engine


@pytest.fixture(scope="module")
def single(small_web):
    return build_engine(small_web, use_authority=False)


class TestShardRouter:
    def test_routing_is_stable_and_in_range(self):
        router = ShardRouter(5)
        ids = [f"http://site-{i}.example/page" for i in range(200)]
        first = [router.shard_of(doc_id) for doc_id in ids]
        second = [router.shard_of(doc_id) for doc_id in ids]
        assert first == second
        assert all(0 <= shard < 5 for shard in first)
        # A hash router should actually spread documents around.
        assert len(set(first)) == 5

    def test_partition_covers_everything(self):
        router = ShardRouter(3)
        ids = [f"doc-{i}" for i in range(50)]
        parts: dict = {}
        for doc_id in ids:
            parts.setdefault(router.shard_of(doc_id), []).append(doc_id)
        assert sorted(parts) == [0, 1, 2]
        regathered = [d for shard in parts.values() for d in shard]
        assert sorted(regathered) == sorted(ids)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


def make_replica(shard_id=0, replica_index=0):
    return ShardReplica(shard_id, replica_index,
                        IndexState(make_vertical_indexes()))


class TestReplicaGroup:
    def test_failover_skips_faulted_replica(self):
        first, second = make_replica(0, 0), make_replica(0, 1)
        group = ReplicaGroup(0, [first, second])
        first.inject_fault(count=1)
        second.inject_fault(count=1)
        # Whichever replica rotation picks first is faulted, the group
        # falls through to the other — also faulted, so the first call
        # exhausts the group. The faults are consumed doing so, and the
        # next call succeeds.
        with pytest.raises(ShardUnavailableError):
            group.run(lambda r: r.collect_stats("web", ["x"]))
        stats = group.run(lambda r: r.collect_stats("web", ["x"]))
        assert stats.doc_count == 0

    def test_repeated_failures_remove_replica_from_rotation(self):
        flaky, stable = make_replica(0, 0), make_replica(0, 1)
        group = ReplicaGroup(0, [flaky, stable], failure_threshold=2)
        flaky.inject_fault(count=10)
        for __ in range(4):
            group.run(lambda r: r.collect_stats("web", ["x"]))
        assert not flaky.healthy
        assert stable.healthy

    def test_all_down_raises_shard_unavailable(self):
        group = ReplicaGroup(0, [make_replica(), make_replica(0, 1)])
        group.kill(0)
        group.kill(1)
        assert not group.healthy_replicas()
        with pytest.raises(ShardUnavailableError):
            group.run(lambda r: r.doc_count("web"))

    def test_revive_restores_service(self):
        group = ReplicaGroup(0, [make_replica()])
        group.kill(0)
        with pytest.raises(ShardUnavailableError):
            group.run(lambda r: r.doc_count("web"))
        group.revive(0)
        assert group.run(lambda r: r.doc_count("web")) == 0

    def test_writes_reach_killed_replicas(self):
        group = ReplicaGroup(0, [make_replica(), make_replica(0, 1)])
        group.kill(1)
        doc = FieldedDocument(doc_id="d1", fields={"title": "hello"})
        group.broadcast(lambda r: r.add("web", doc))
        group.revive(1)
        assert group.replicas[1].doc_count("web") == 1


class TestScatterGatherExecutor:
    def test_dispatch_collects_all(self):
        outcomes = ScatterGatherExecutor().scatter(
            {i: (lambda i=i: i * i) for i in range(8)}
        )
        assert all(out.ok for out in outcomes.values())
        assert {i: out.value for i, out in outcomes.items()} == \
            {i: i * i for i in range(8)}

    def test_runs_on_calling_thread_in_task_order(self):
        ran = []

        def thunk(shard_id):
            return lambda: ran.append((shard_id, threading.get_ident()))
        ScatterGatherExecutor().scatter(
            {shard_id: thunk(shard_id) for shard_id in (3, 0, 2, 1)}
        )
        here = threading.get_ident()
        assert ran == [(3, here), (0, here), (2, here), (1, here)]

    def test_exception_is_isolated_per_shard(self):
        def boom():
            raise ReplicaFaultError("nope")
        outcomes = ScatterGatherExecutor().scatter(
            {0: lambda: "early", 1: boom, 2: lambda: "fine"}
        )
        assert outcomes[0].ok and outcomes[0].value == "early"
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, ReplicaFaultError)
        # The shard after the failed one still ran.
        assert outcomes[2].ok and outcomes[2].value == "fine"

    def test_bug_in_a_thunk_propagates(self):
        # Only platform faults degrade a shard; a TypeError is our bug.
        def bug():
            raise TypeError("not a fault")
        with pytest.raises(TypeError):
            ScatterGatherExecutor().scatter({0: lambda: "ok", 1: bug})

    def test_merge_ranked_orders_and_tags(self):
        merged = list(merge_ranked({
            0: [("a", 3.0), ("c", 1.0)],
            1: [("b", 2.0), ("d", 1.0)],
        }))
        assert merged == [("a", 3.0, 0), ("b", 2.0, 1),
                          ("c", 1.0, 0), ("d", 1.0, 1)]


class TestClusteredSearch:
    def test_document_partitioning_is_complete(self, cluster, single):
        def doc_count(vertical):
            return sum(group.primary().doc_count(vertical)
                       for group in cluster.active_groups())

        for vertical in ("web", "image", "video", "news"):
            assert doc_count(vertical) == \
                len(single.vertical(vertical).index)
        # No shard holds everything: the corpus is actually split.
        web_counts = [
            group.replicas[0].doc_count("web")
            for group in cluster.groups
        ]
        assert all(count > 0 for count in web_counts)
        assert max(web_counts) < doc_count("web")

    def test_search_logs_query_event(self, cluster):
        cluster.search("web", "wine", app_id="app-x",
                       session_id="s-1")
        event = cluster.log.queries[-1]
        assert event.app_id == "app-x"
        assert event.session_id == "s-1"
        assert event.vertical == "web"

    def test_single_replica_kill_is_invisible(self, cluster, single):
        baseline = cluster.search("web", "wine tasting")
        cluster.kill_replica(0, 0)
        response = cluster.search("web", "wine tasting")
        assert not response.degraded
        assert response.urls() == baseline.urls()

    def test_whole_shard_down_degrades_not_fails(self, cluster):
        everything = SearchOptions(count=500)
        healthy = cluster.search("web", "wine", everything)
        cluster.kill_replica(1, 0)
        cluster.kill_replica(1, 1)
        degraded = cluster.search("web", "wine", everything)
        assert degraded.degraded
        assert degraded.failed_shards == (1,)
        assert degraded.shards_ok == 3
        assert degraded.shards_total == 4
        # Partial results: a subset of the healthy result set.
        assert degraded.total_matches < healthy.total_matches
        assert set(degraded.urls()) <= set(healthy.urls())

    def test_fault_injection_fails_over_silently(self, cluster):
        baseline = cluster.search("web", "wine tasting")
        for group in cluster.groups:
            group.replicas[0].inject_fault(count=1)
        response = cluster.search("web", "wine tasting")
        assert not response.degraded
        assert response.urls() == baseline.urls()

    def test_revive_restores_full_results(self, cluster):
        healthy = cluster.search("web", "wine")
        cluster.kill_replica(2, 0)
        cluster.kill_replica(2, 1)
        assert cluster.search("web", "wine").degraded
        cluster.revive_replica(2, 1)
        recovered = cluster.search("web", "wine")
        assert not recovered.degraded
        assert recovered.urls() == healthy.urls()

    def test_health_snapshot(self, cluster):
        cluster.kill_replica(3, 1)
        assert [r.healthy for r in cluster.groups[3].replicas] == \
            [True, False]
        assert [r.healthy for r in cluster.groups[0].replicas] == \
            [True, True]

    def test_incremental_add_remove(self, cluster):
        doc = FieldedDocument(
            doc_id="http://added.example/zzyzx",
            fields={"url": "http://added.example/zzyzx",
                    "title": "zzyzx chronicle", "body": "zzyzx body",
                    "site": "added.example", "topic": "wine"},
        )
        shard_id = cluster.add_document("web", doc)
        assert 0 <= shard_id < cluster.num_shards
        found = cluster.search("web", "zzyzx")
        assert found.urls() == [doc.doc_id]
        with pytest.raises(DuplicateError):
            cluster.add_document("web", doc)
        cluster.remove_document("web", doc.doc_id)
        assert cluster.search("web", "zzyzx").total_matches == 0
        with pytest.raises(NotFoundError):
            cluster.remove_document("web", doc.doc_id)

    def test_added_document_survives_replica_failover(self, cluster):
        doc = FieldedDocument(
            doc_id="http://added.example/qwxyz",
            fields={"url": "http://added.example/qwxyz",
                    "title": "qwxyz report", "body": "qwxyz",
                    "site": "added.example", "topic": "wine"},
        )
        shard_id = cluster.add_document("web", doc)
        cluster.kill_replica(shard_id, 0)
        response = cluster.search("web", "qwxyz")
        assert not response.degraded
        assert response.urls() == [doc.doc_id]

    def test_vertical_view_supports_signals_surface(self, cluster):
        """What relevance signals read of a corpus, membership and the
        stored document by URL, comes from the owning shard."""
        some_url = cluster.search("web", "wine").urls()[0]
        owner = cluster.groups[cluster.router.shard_of(some_url)]
        index = owner.primary().vertical("web").index
        assert some_url in index
        assert index.document(some_url).get("url") == some_url
        assert all("http://nowhere.example/" not in
                   group.primary().vertical("web").index
                   for group in cluster.active_groups())

    def test_pagination_matches_single_node(self, cluster, single):
        for offset in (0, 3, 10):
            options = SearchOptions(count=5, offset=offset)
            assert cluster.search("web", "wine", options).urls() == \
                single.search("web", "wine", options).urls()

    def test_latency_is_max_over_shards_not_sum(self, cluster, single):
        query = "wine"  # broad: many candidates per shard
        a = single.search("web", query)
        b = cluster.search("web", query)
        assert b.elapsed_ms < a.elapsed_ms

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_shards=0)
        with pytest.raises(ValueError):
            ClusterConfig(replicas_per_shard=0)


class TestSymphonyClusterIntegration:
    def test_platform_opt_in_runs_apps_unchanged(self, tiny_web):
        from repro.core.platform import Symphony
        from tests.conftest import make_inventory_csv

        symphony = Symphony(web=tiny_web, use_authority=False,
                            cluster=2)
        account = symphony.register_designer("Ann")
        games = symphony.web.entities["video_games"][:3]
        symphony.upload_http(account, "inv.csv",
                             make_inventory_csv(games), "inventory",
                             content_type="text/csv")
        inventory = symphony.add_proprietary_source(
            account, "inventory", ("title",))
        reviews = symphony.add_web_source("Reviews", "web")
        session = symphony.designer().new_application(
            "Shop", account.tenant.tenant_id)
        slot = session.drag_source_onto_app(
            inventory.source_id, search_fields=("title",))
        session.add_text(slot, "title")
        session.drag_source_onto_result_layout(
            slot, reviews.source_id, drive_fields=("title",))
        app_id = symphony.host(session)

        response = symphony.query(app_id, games[0])
        assert response.views
        assert symphony.engine.log.queries
        # The app keeps answering with a whole shard dark.
        symphony.engine.kill_replica(0, 0)
        assert symphony.query(app_id, games[1]).views


def test_a_fanout_is_one_planned_cluster_call(tiny_web, monkeypatch):
    """The work a supplemental fan-out sends a cluster: N distinct
    cache-missing look-ups are one exec round, at most one stats round,
    N logged searches, and exactly the analysis N searches make."""
    from tests.conftest import make_inventory_csv

    from repro.core.datasources import SourceQuery
    from repro.core.platform import Symphony
    from repro.searchengine.analysis import Analyzer

    sym = Symphony(web=tiny_web, use_authority=False, telemetry=True,
                   cluster=ClusterConfig(num_shards=4))
    account = sym.register_designer("Ann")
    games = tiny_web.entities["video_games"][:4]
    sym.upload_http(account, "inventory.csv", make_inventory_csv(games),
                    "inventory", content_type="text/csv")
    inventory = sym.add_proprietary_source(
        account, "inventory", search_fields=("title", "producer"))
    reviews = sym.add_web_source("Reviews", "web",
                                 sites=("gamespot.com", "ign.com"))
    session = sym.designer().new_application(
        "Store", account.tenant.tenant_id)
    slot = session.drag_source_onto_app(
        inventory.source_id, heading="Games", max_results=4,
        search_fields=("title", "producer"))
    session.add_text(slot, "title")
    session.drag_source_onto_result_layout(
        slot, reviews.source_id, drive_fields=("title",), max_results=2)
    app_id = sym.host(session)

    analyzed = []
    counting = [False]
    original = Analyzer.analyze

    def analyze(self, text):
        if counting[0]:
            analyzed.append(text)
        return original(self, text)

    monkeypatch.setattr(Analyzer, "analyze", analyze)
    search_many = sym.engine.search_many

    def counted(*args, **kwargs):
        counting[0] = True
        try:
            return search_many(*args, **kwargs)
        finally:
            counting[0] = False

    monkeypatch.setattr(sym.engine, "search_many", counted)
    response = sym.query(app_id, "studio")
    lookups = [event.query for event in sym.engine.log.queries
               if event.vertical != "app"]
    assert len(response.views) == len(lookups) == 4
    assert len(set(lookups)) == 4
    names = [span.name for span in
             sym.telemetry.tracer.trace_spans(response.trace.span.trace_id)]
    assert names.count("phase:execute") == 1
    assert names.count("phase:stats") <= 1
    assert names.count("cluster.search") == 1
    assert names.count("source") == 2          # the primary, the fan-out
    batched = len(analyzed)

    analyzed.clear()
    counting[0] = True
    for text in lookups:
        reviews.search(SourceQuery(text=text, count=2))
    counting[0] = False
    assert batched == len(analyzed) > 0


# -- shared replica state ------------------------------------------------------


def test_replicas_analyze_each_document_once(tiny_web, monkeypatch):
    """A 4x2 build and a later write make exactly the filing analysis
    of a 4x1 one: the replicas of a shard share what is filed."""
    from repro.searchengine.analysis import Analyzer

    calls = [0]
    original = Analyzer.analyze_with_positions

    def counted(self, text):
        calls[0] += 1
        return original(self, text)

    monkeypatch.setattr(Analyzer, "analyze_with_positions", counted)
    counts = []
    for replicas in (1, 2):
        calls[0] = 0
        engine = build_clustered_engine(
            tiny_web, ClusterConfig(num_shards=4,
                                    replicas_per_shard=replicas),
            use_authority=False)
        built = calls[0]
        engine.add_document("web", FieldedDocument(
            "http://shared.example/1",
            {"title": "shared state", "body": "one analysis per shard",
             "url": "http://shared.example/1"}))
        counts.append((built, calls[0] - built))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0


def _one_state_per_shard(engine) -> None:
    for group in engine.groups:
        assert len({id(replica.state) for replica in group.replicas}) == 1


def test_build_split_and_add_replica_share_one_state(small_web):
    from repro.controlplane import ShardLifecycleManager

    engine = build_clustered_engine(
        small_web, ClusterConfig(num_shards=2, replicas_per_shard=2),
        use_authority=False)
    _one_state_per_shard(engine)
    lifecycle = ShardLifecycleManager(engine)
    lifecycle.begin_split(0)
    while lifecycle.active:
        lifecycle.step()
    assert len(engine.groups) == 3
    added = lifecycle.add_replica(2)
    _one_state_per_shard(engine)
    assert added.state is engine.groups[2].replicas[0].state
    assert added.doc_count("web") > 0
