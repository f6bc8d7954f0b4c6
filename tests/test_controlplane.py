"""Tests for ``repro.controlplane`` — range routing, live shard
handoff, and the telemetry-driven autoscaler."""

from collections import Counter

import pytest

from repro.cluster import (
    HASH_SPACE,
    ClusterConfig,
    RouteMap,
    ShardRouter,
    build_clustered_engine,
    route_hash,
)
from repro.controlplane import (
    CLEANUP,
    COMPLETE,
    COPY,
    CUTOVER,
    Autoscaler,
    AutoscalerPolicy,
    ShardLifecycleManager,
)
from repro.errors import ConfigurationError, ControlPlaneError
from repro.gateway.generations import TOPOLOGY_KEY
from repro.resilience.hedging import HedgePolicy
from repro.searchengine.documents import FieldedDocument
from repro.telemetry import Telemetry

DOC_IDS = [f"http://site-{i}.example/page-{i}" for i in range(2000)]


@pytest.fixture()
def make_cluster(small_web):
    """Factory for fresh clusters (tests mutate topology)."""
    def _make(num_shards=2, replicas=1, **kwargs):
        return build_clustered_engine(
            small_web,
            ClusterConfig(num_shards=num_shards,
                          replicas_per_shard=replicas),
            use_authority=False, **kwargs,
        )

    return _make


def snap(engine, query="news"):
    response = engine.search("web", query)
    return tuple(response.urls()), response.total_matches


class TestRouteMap:
    def test_initial_map_tiles_the_hash_space(self):
        route = RouteMap.initial(4)
        assert route.version == 1
        assert route.shard_ids == (0, 1, 2, 3)
        cursor = 0
        for entry in route.ranges:
            assert entry.low == cursor
            cursor = entry.high
        assert cursor == HASH_SPACE

    def test_split_moves_only_the_upper_half(self):
        route = RouteMap.initial(2)
        successor, moved = route.split(0, 2)
        assert successor.version == 2
        assert moved.shard_id == 2
        changed = {d for d in DOC_IDS
                   if route.shard_of(d) != successor.shard_of(d)}
        in_moved = {d for d in DOC_IDS if route_hash(d) in moved}
        assert changed == in_moved
        assert changed  # the moved half is not empty
        for doc_id in changed:
            assert route.shard_of(doc_id) == 0
            assert successor.shard_of(doc_id) == 2

    def test_split_rejects_an_active_target(self):
        route = RouteMap.initial(2)
        with pytest.raises(ValueError):
            route.split(0, 1)

    def test_merge_relabels_the_source_ranges(self):
        route = RouteMap.initial(3)
        successor, moved = route.merge(2, 0)
        assert successor.version == 2
        assert successor.shard_ids == (0, 1)
        for doc_id in DOC_IDS:
            before = route.shard_of(doc_id)
            after = successor.shard_of(doc_id)
            assert after == (0 if before == 2 else before)
        assert all(entry.shard_id == 2 for entry in moved)

    def test_merge_validation(self):
        route = RouteMap.initial(2)
        with pytest.raises(ValueError):
            route.merge(1, 1)
        with pytest.raises(ValueError):
            route.merge(5, 0)

    def test_router_enforces_version_succession(self):
        router = ShardRouter(2)
        v2, __ = router.snapshot().split(0, 2)
        v3, __ = v2.split(1, 3)
        with pytest.raises(ValueError):
            router.apply(v3)   # skips version 2
        router.apply(v2)
        router.apply(v3)
        assert router.topology_version == 3

    @pytest.mark.parametrize("num_shards", [4, 8, 16])
    def test_distribution_skew_is_bounded(self, num_shards):
        route = RouteMap.initial(num_shards)
        counts = Counter(route.shard_of(d) for d in DOC_IDS)
        assert len(counts) == num_shards
        mean = len(DOC_IDS) / num_shards
        assert max(counts.values()) < 1.35 * mean
        assert min(counts.values()) > 0.65 * mean


class TestRouteFlipIsolation:
    @staticmethod
    def flip_on_first_scatter(engine):
        """Record each scatter round's shard set; the first round flips
        the route to a merged layout before it runs."""
        merged, __ = engine.router.snapshot().merge(1, 0)
        scattered = []
        real_scatter = engine.executor.scatter

        def spying_scatter(tasks):
            if not scattered:
                engine.apply_route(merged)
            scattered.append(frozenset(tasks))
            return real_scatter(tasks)

        engine.executor.scatter = spying_scatter
        return scattered

    def test_mid_query_flip_does_not_mix_layouts(self, make_cluster):
        """A query pins one route snapshot: flipping the topology
        between its stats and execution rounds must not change the
        shard set it talks to. A term the engine has not seen needs
        both rounds."""
        baseline = snap(make_cluster(num_shards=2))
        engine = make_cluster(num_shards=2)
        scattered = self.flip_on_first_scatter(engine)
        during = snap(engine)
        after_sets_start = len(scattered)
        snap(engine)

        # Both rounds of the in-flight query used the pinned two-shard
        # layout even though the route flipped during the first ...
        assert scattered[:after_sets_start] == [frozenset({0, 1})] * 2
        assert during == baseline
        # ... and the next query, whose cached statistics belong to the
        # old layout, runs both rounds on the new one.
        assert scattered[after_sets_start:] == [frozenset({0})] * 2

    def test_warm_query_flip_does_not_mix_layouts(self, make_cluster):
        """With the statistics cached a query is one execution round on
        the pinned layout; the flip it saw invalidates the entry."""
        engine = make_cluster(num_shards=2)
        baseline = snap(engine)
        scattered = self.flip_on_first_scatter(engine)
        during = snap(engine)
        assert scattered == [frozenset({0, 1})]
        assert during == baseline
        snap(engine)
        assert scattered[1:] == [frozenset({0})] * 2


class TestReplicaScaling:
    def test_add_replica_clones_the_primary(self, make_cluster):
        engine = make_cluster(num_shards=2, replicas=1)
        lifecycle = ShardLifecycleManager(engine)
        baseline = snap(engine)
        primary_docs = engine.groups[0].replicas[0].doc_count("web")

        replica = lifecycle.add_replica(0)
        assert len(engine.groups[0].replicas) == 2
        assert replica.doc_count("web") == primary_docs
        # Reads rotate onto the clone without changing results.
        for __ in range(4):
            assert snap(engine) == baseline

        lifecycle.remove_replica(0)
        assert len(engine.groups[0].replicas) == 1
        assert snap(engine) == baseline

    def test_add_replica_refuses_a_shard_with_no_intact_replica(
            self, make_cluster):
        """A new replica of a wholly crashed shard would be an empty
        copy served as healthy: the shard's lost documents would vanish
        from answers that no longer say they are degraded."""
        engine = make_cluster(num_shards=2, replicas=2)
        lifecycle = ShardLifecycleManager(engine)
        for replica in engine.groups[0].replicas:
            replica.crash()
        before = engine.search("web", "game")
        assert before.degraded
        with pytest.raises(ConfigurationError):
            lifecycle.add_replica(0)
        assert len(engine.groups[0].replicas) == 2
        after = engine.search("web", "game")
        assert after.degraded
        assert after.total_matches == before.total_matches

    def test_membership_change_resets_hedge_learning(self, make_cluster):
        """Satellite: latency histograms reset when membership changes
        so stale observations cannot poison the hedge threshold."""
        engine = make_cluster(
            num_shards=2, replicas=2,
            hedge=HedgePolicy(min_observations=4),
        )
        lifecycle = ShardLifecycleManager(engine)
        for __ in range(4):
            engine.search("web", "news")
        group = engine.groups[0]
        assert group.latency_histogram.count > 0

        lifecycle.add_replica(0)
        assert group.latency_histogram.count == 0
        for __ in range(3):
            engine.search("web", "news")
        assert group.latency_histogram.count > 0

        lifecycle.remove_replica(0)
        assert group.latency_histogram.count == 0


class TestLiveResharding:
    def test_split_preserves_results_at_every_step(self, make_cluster):
        telemetry = Telemetry()
        engine = make_cluster(num_shards=2, telemetry=telemetry)
        lifecycle = ShardLifecycleManager(engine, telemetry=telemetry,
                                          batch_size=32)
        queries = ("news", "game", "travel")
        baseline = {q: snap(engine, q) for q in queries}
        donor_docs = engine.shard_doc_count(0)

        migration = lifecycle.begin_split(0)
        states = [migration.state]
        while states[-1] != COMPLETE:
            for q in queries:
                assert snap(engine, q) == baseline[q], states[-1]
            states.append(lifecycle.step())

        assert COPY in states and CUTOVER in states
        assert CLEANUP in states
        assert engine.num_shards == 3
        assert engine.topology_version == 2
        assert migration.docs_moved > 0
        assert engine.shard_doc_count(2) == migration.docs_moved
        assert engine.shard_doc_count(0) == (donor_docs
                                             - migration.docs_moved)
        for q in queries:
            assert snap(engine, q) == baseline[q]

        for kind in ("reshard.start", "reshard.handoff",
                     "reshard.cutover", "reshard.complete"):
            assert telemetry.events.by_kind(kind)

    def test_merge_returns_to_the_original_topology(self, make_cluster):
        engine = make_cluster(num_shards=2)
        lifecycle = ShardLifecycleManager(engine, batch_size=64)
        baseline = snap(engine)

        lifecycle.begin_split(0)
        while lifecycle.active:
            lifecycle.step()
        lifecycle.begin_merge(2, 0)
        while lifecycle.active:
            lifecycle.step()

        assert engine.topology_version == 3
        assert engine.router.snapshot().shard_ids == (0, 1)
        assert engine.shard_doc_count(2) == 0
        assert snap(engine) == baseline

    def test_dual_writes_reach_both_sides_of_the_handoff(
            self, make_cluster):
        engine = make_cluster(num_shards=2)
        lifecycle = ShardLifecycleManager(engine, batch_size=16)
        migration = lifecycle.begin_split(0)
        assert migration.state == COPY

        moving = next(
            f"http://fresh.example/{i}" for i in range(10_000)
            if migration.owns(f"http://fresh.example/{i}")
        )
        doc = FieldedDocument(
            doc_id=moving,
            fields={"url": moving, "title": "zzfresh chronicle",
                    "body": "zzfresh body", "site": "fresh.example",
                    "topic": "news"},
        )
        engine.add_document("web", doc)
        # The write landed on the donor *and* was fanned out to the
        # filling target, so no copy step needs to see it again.
        for shard_id in (0, 2):
            index = engine.groups[shard_id].replicas[0] \
                .vertical("web").index
            assert moving in index

        while lifecycle.active:

            lifecycle.step()
        response = engine.search("web", "zzfresh")
        assert response.urls() == [moving]
        assert engine.router.snapshot().shard_of(moving) == 2

    def test_did_you_mean_does_not_outlive_a_reshard(self, make_cluster):
        """Handoff and cleanup write through ``replicated_write``, not
        ``add_document``: a corrector cached in the dual-read window
        (moved documents counted on both sides) must not survive to
        COMPLETE."""
        def corrector_frequencies(engine):
            assert engine.search("web", "zzmissing").total_matches == 0
            [corrector] = engine._correctors.values()
            return corrector._frequencies

        engine = make_cluster(num_shards=2)
        lifecycle = ShardLifecycleManager(engine)
        lifecycle.begin_split(0)
        while lifecycle.step() != CLEANUP:
            pass
        in_window = corrector_frequencies(engine)
        while lifecycle.active:
            lifecycle.step()

        fresh = corrector_frequencies(make_cluster(num_shards=2))
        assert in_window != fresh       # the window double-counts
        assert corrector_frequencies(engine) == fresh

    def test_only_one_migration_at_a_time(self, make_cluster):
        engine = make_cluster(num_shards=2)
        lifecycle = ShardLifecycleManager(engine)
        lifecycle.begin_split(0)
        with pytest.raises(ControlPlaneError):
            lifecycle.begin_split(1)
        with pytest.raises(ControlPlaneError):
            lifecycle.begin_merge(1, 0)
        while lifecycle.active:
            lifecycle.step()
        assert lifecycle.step() is None     # idle manager is a no-op

    @pytest.mark.parametrize("begin", [
        ("split", 9), ("split", -1), ("merge", 0, 9), ("merge", 1, -1),
        ("merge", 0, 0), ("merge", 9, 0)])
    def test_an_unrouted_shard_id_is_refused_before_any_change(
            self, make_cluster, begin):
        engine = make_cluster(num_shards=2)
        lifecycle = ShardLifecycleManager(engine)
        route = engine.router.snapshot()
        groups = list(engine.groups)
        start = (lifecycle.begin_split if begin[0] == "split"
                 else lifecycle.begin_merge)
        with pytest.raises(ConfigurationError):
            start(*begin[1:])
        assert not lifecycle.active
        assert engine.write_fanout is None
        assert engine.groups == groups
        assert engine.router.snapshot() is route


def drive(engine, autoscaler, ticks, queries=("news", "game"),
          spike=None):
    """Run query traffic and autoscaler ticks; returns decisions."""
    decisions = []
    for __ in range(ticks):
        # Re-arm per tick: drain leftovers so a hot phase never bleeds
        # queued delays into the quiet ticks that follow it.
        for replica in engine.groups[0].replicas:
            while replica.take_latency_ms() > 0:
                pass
        if spike is not None:
            for replica in engine.groups[0].replicas:
                replica.inject_latency(spike, count=8)
        for query in queries:
            engine.search("web", query)
        decisions.append(autoscaler.tick())
    return decisions


class TestAutoscaler:
    def make(self, make_cluster, policy, replicas=1):
        telemetry = Telemetry()
        engine = make_cluster(num_shards=2, replicas=replicas,
                              telemetry=telemetry)
        lifecycle = ShardLifecycleManager(engine, telemetry=telemetry,
                                          batch_size=512)
        return engine, Autoscaler(engine, lifecycle,
                                  telemetry=telemetry, policy=policy)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(latency_high_ms=10.0, latency_low_ms=20.0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(breach_rounds=0)

    def test_in_band_load_never_triggers_actions(self, make_cluster):
        engine, autoscaler = self.make(make_cluster, AutoscalerPolicy(
            latency_high_ms=500.0, latency_low_ms=0.1,
            breach_rounds=1, cooldown_ticks=0,
        ))
        decisions = drive(engine, autoscaler, ticks=8)
        assert not any(d.acted for d in decisions)
        assert engine.num_shards == 2
        assert len(engine.groups[0].replicas) == 1

    def test_hysteresis_requires_consecutive_breaches(self,
                                                      make_cluster):
        engine, autoscaler = self.make(make_cluster, AutoscalerPolicy(
            latency_high_ms=50.0, latency_low_ms=0.1, breach_rounds=3,
        ))
        # Two hot ticks, then quiet: the streak resets in the dead
        # band, so the threshold round count is never reached.
        drive(engine, autoscaler, ticks=2, spike=400.0)
        decisions = drive(engine, autoscaler, ticks=4)
        drive(engine, autoscaler, ticks=2, spike=400.0)
        assert not any(d.acted for d in decisions)
        assert not any(d.acted for d in autoscaler.decisions)

    def test_sustained_heat_adds_a_replica_then_cools_down(
            self, make_cluster):
        engine, autoscaler = self.make(make_cluster, AutoscalerPolicy(
            latency_high_ms=50.0, latency_low_ms=0.1, breach_rounds=2,
            cooldown_ticks=3, max_replicas=2,
        ))
        decisions = drive(engine, autoscaler, ticks=6, spike=400.0)
        acted = [(i, d.action) for i, d in enumerate(decisions)
                 if d.acted]
        assert acted[0][1] == "add_replica"
        assert len(engine.groups[0].replicas) == 2
        # Cooldown: the ticks right after the action never act, even
        # though the shard is still hot.
        first = acted[0][0]
        assert all(not d.acted
                   for d in decisions[first + 1:first + 4])

    def test_a_wholly_crashed_shard_is_not_scaled(self, make_cluster):
        engine, autoscaler = self.make(make_cluster, AutoscalerPolicy(
            latency_high_ms=50.0, latency_low_ms=0.1, breach_rounds=1,
            cooldown_ticks=0, max_replicas=3,
        ), replicas=2)
        for replica in engine.groups[0].replicas:
            replica.inject_latency(400.0, count=8)
        for query in ("news", "game"):
            engine.search("web", query)
        # The hot window was observed; then every replica crashes.
        for replica in engine.groups[0].replicas:
            replica.crash()
        decision = autoscaler.tick()
        assert (decision.action, decision.shard_id) != ("add_replica", 0)
        assert decision.action != "split"
        assert len(engine.groups[0].replicas) == 2

    def test_ladder_escalates_to_a_split_at_max_replicas(
            self, make_cluster):
        engine, autoscaler = self.make(make_cluster, AutoscalerPolicy(
            latency_high_ms=50.0, latency_low_ms=0.1, breach_rounds=2,
            cooldown_ticks=1, max_replicas=1, split_min_docs=1,
            max_shards=3,
        ))
        decisions = drive(engine, autoscaler, ticks=10, spike=400.0)
        actions = [d.action for d in decisions if d.acted]
        assert actions[0] == "split"
        assert "reshard_step" in {d.action for d in decisions}
        assert engine.num_shards == 3
        assert engine.topology_version == 2

    def test_cold_shard_sheds_a_replica(self, make_cluster):
        engine, autoscaler = self.make(make_cluster, AutoscalerPolicy(
            latency_high_ms=500.0, latency_low_ms=450.0,
            breach_rounds=2, cooldown_ticks=1, min_replicas=1,
            max_replicas=2,
        ), replicas=2)
        decisions = drive(engine, autoscaler, ticks=4)
        actions = [d.action for d in decisions if d.acted]
        assert "remove_replica" in actions
        assert len(engine.groups[0].replicas) == 1 \
            or len(engine.groups[1].replicas) == 1

    def test_idle_cold_cluster_merges_down(self, make_cluster):
        engine, autoscaler = self.make(make_cluster, AutoscalerPolicy(
            latency_high_ms=500.0, latency_low_ms=450.0,
            breach_rounds=2, cooldown_ticks=1, min_replicas=1,
            merge_max_docs=1_000_000,
        ))
        baseline = snap(engine)
        decisions = drive(engine, autoscaler, ticks=12)
        actions = [d.action for d in decisions if d.acted]
        assert "merge" in actions
        assert engine.num_shards == 1
        assert snap(engine) == baseline


class TestPlatformIntegration:
    def test_controlplane_requires_a_cluster(self, small_web):
        from repro.core.platform import Symphony

        with pytest.raises(ConfigurationError):
            Symphony(web=small_web, controlplane=True)

    def test_cutover_bumps_the_topology_generation(self, small_web):
        from repro.core.platform import Symphony

        symphony = Symphony(
            web=small_web, use_authority=False,
            cluster=ClusterConfig(num_shards=2, replicas_per_shard=1),
            controlplane=True, gateway=True, telemetry=True,
        )
        assert symphony.controlplane is not None
        assert symphony.autoscaler is not None

        before = symphony.generations.current(TOPOLOGY_KEY)
        stamp = symphony.generations.snapshot([TOPOLOGY_KEY])
        assert symphony.generations.valid(stamp)

        symphony.controlplane.begin_split(0)
        while symphony.controlplane.active:
            symphony.controlplane.step()

        # Cached results stamped under the old topology are now stale.
        assert symphony.generations.current(TOPOLOGY_KEY) == before + 1
        assert not symphony.generations.valid(stamp)

    def test_cutover_invalidates_runtime_cached_web_results(
            self, small_web):
        """Regression: with no gateway in front, the runtime's cached
        web results used to survive a reshard cutover — the platform's
        bump subscriber only understood ``tenant:`` keys."""
        from repro.core.platform import Symphony

        symphony = Symphony(
            web=small_web, use_authority=False,
            cluster=ClusterConfig(num_shards=2, replicas_per_shard=1),
            controlplane=True,
        )
        source = symphony.add_web_source("Reviews", "web")
        account = symphony.register_designer("Ann")
        session = symphony.designer().new_application(
            "Reviews", account.tenant.tenant_id)
        slot = session.drag_source_onto_app(source.source_id)
        session.add_text(slot, "title")
        app_id = symphony.host(session)
        query = symphony.web.entities["video_games"][0]

        first = symphony.query(app_id, query)
        assert first.views
        assert symphony.query(app_id, query).trace.cache_hits == 1

        symphony.controlplane.begin_split(0)
        while symphony.controlplane.active:
            symphony.controlplane.step()

        after = symphony.query(app_id, query)
        assert after.trace.cache_hits == 0
        assert [view.item.url for view in after.views] \
            == [view.item.url for view in first.views]
