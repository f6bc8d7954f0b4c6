"""repro.durability: WAL, checkpoints, crash-faithful loss, repair.

Covers the durability contract end to end — append-before-apply LSN
ordering, blob round-trips, idempotent replay (property-tested under
double/overlapping delivery), checkpoint-bounded recovery, crashed
replicas genuinely missing writes and never serving reads until the
digest-verified rejoin — plus the regression fixes that rode along:
kill/revive disarming chaos injections and revive resetting the
hedge-latency learning.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.cluster.replica import IndexState, ReplicaGroup, ShardReplica
from repro.core.platform import Symphony
from repro.durability import (
    BlobWalStorage,
    DurabilityConfig,
    WriteAheadLog,
    content_digest,
    replay,
    restore_checkpoint,
    take_checkpoint,
)
from repro.errors import ConfigurationError, DurabilityError
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.engine import Vertical, make_vertical_indexes
from repro.util import SimClock


def make_doc(number: int, token: str = "durable") -> FieldedDocument:
    return FieldedDocument(
        f"{token}-doc-{number}",
        {"title": f"{token} title {number}",
         "url": f"http://{token}.example/{number}"},
        None,
    )


def fresh_replica(shard_id: int = 0, index: int = 0) -> ShardReplica:
    return ShardReplica(shard_id, index,
                        IndexState(make_vertical_indexes({})))


def doc_total(replica: ShardReplica) -> int:
    return sum(len(v.index) for v in replica.verticals.values())


@pytest.fixture()
def platform(tiny_web):
    """A 2x2 clustered, telemetry-on, durability-on deployment."""
    return Symphony(
        web=tiny_web, use_authority=False,
        cluster=ClusterConfig(num_shards=2, replicas_per_shard=2),
        telemetry=True,
        durability=DurabilityConfig(checkpoint_every=16),
    )


# -- write-ahead log ----------------------------------------------------------


class TestWriteAheadLog:
    def test_lsn_monotonic_per_shard_stamped_off_clock(self):
        clock = SimClock()
        base = clock.now_ms
        wal = WriteAheadLog(clock=clock)
        clock.advance(5.0)
        first = wal.append(0, "add", Vertical.WEB, document=make_doc(1))
        clock.advance(7.0)
        second = wal.append(0, "remove", Vertical.WEB,
                            doc_id="durable-doc-1")
        other = wal.append(3, "add", Vertical.WEB, document=make_doc(2))
        assert (first.lsn, second.lsn) == (1, 2)
        assert other.lsn == 1              # per-shard sequences
        assert first.at_ms - base == 5 and second.at_ms - base == 12
        assert wal.last_lsn(0) == 2 and wal.last_lsn(3) == 1
        assert wal.last_lsn(9) == 0        # untouched shard

    def test_append_happens_before_apply_on_engine_writes(self, platform):
        engine = platform.engine
        wal = platform.durability.wal
        doc = make_doc(77, "ordering")
        shard = engine.router.snapshot().shard_of(doc.doc_id)
        engine.add_document(Vertical.WEB, doc)
        tail = wal.tail(shard)
        assert tail and tail[-1].doc_id == doc.doc_id
        for replica in engine.groups[shard].replicas:
            # The applying replica stamped exactly the appended LSN.
            assert replica.applied_lsn == tail[-1].lsn

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            WriteAheadLog().append(0, "upsert", Vertical.WEB,
                                   document=make_doc(0))

    def test_blob_storage_round_trips_records(self):
        wal = WriteAheadLog(storage=BlobWalStorage())
        wal.append(0, "add", Vertical.WEB, document=make_doc(5))
        wal.append(0, "remove", Vertical.NEWS, doc_id="gone")
        records = wal.tail(0)
        assert [r.lsn for r in records] == [1, 2]
        assert records[0].fields == make_doc(5).fields
        assert records[0].payload is None   # payloads don't serialize
        assert (records[1].op, records[1].vertical,
                records[1].doc_id) == ("remove", "news", "gone")


# -- replay idempotence -------------------------------------------------------


ops_strategy = st.lists(
    st.tuples(st.sampled_from(["add", "remove"]),
              st.integers(min_value=0, max_value=5)),
    min_size=1, max_size=40,
)


class TestReplayIdempotence:
    @staticmethod
    def build_log(ops) -> WriteAheadLog:
        wal = WriteAheadLog()
        for op, number in ops:
            if op == "add":
                wal.append(0, "add", Vertical.WEB,
                           document=make_doc(number))
            else:
                wal.append(0, "remove", Vertical.WEB,
                           doc_id=f"durable-doc-{number}")
        return wal

    @settings(max_examples=60, deadline=None)
    @given(ops=ops_strategy,
           split=st.integers(min_value=0, max_value=40))
    def test_double_and_overlapping_replay_converge(self, ops, split):
        """Replaying a prefix, then the whole log, then the whole log
        again yields exactly the single-replay state."""
        wal = self.build_log(ops)
        records = wal.tail(0)
        once = fresh_replica()
        assert replay(records, once) == len(records)
        twice = fresh_replica()
        prefix = records[:min(split, len(records))]
        replay(prefix, twice)            # partial delivery...
        replay(records, twice)           # ...then the full tail...
        applied_again = replay(records, twice)   # ...delivered again
        assert applied_again == 0        # everything already applied
        assert content_digest(once) == content_digest(twice)
        assert once.applied_lsn == twice.applied_lsn == len(records)

    @settings(max_examples=30, deadline=None)
    @given(ops=ops_strategy)
    def test_replay_matches_direct_application(self, ops):
        """The WAL is a faithful account: replaying it reproduces the
        state of a replica that applied every op directly."""
        wal = self.build_log(ops)
        direct = fresh_replica()
        for op, number in ops:
            if op == "add":
                direct.vertical("web").index.upsert(make_doc(number))
            else:
                index = direct.vertical("web").index
                if f"durable-doc-{number}" in index:
                    index.remove(f"durable-doc-{number}")
        replayed = fresh_replica()
        replay(wal.tail(0), replayed)
        assert content_digest(direct) == content_digest(replayed)


# -- checkpoints --------------------------------------------------------------


class TestCheckpoints:
    def test_take_restore_round_trip(self):
        clock = SimClock()
        base = clock.now_ms
        source = fresh_replica()
        for number in range(8):
            source.vertical("web").index.upsert(make_doc(number))
        source.applied_lsn = 8
        clock.advance(100)
        checkpoint = take_checkpoint(source, clock=clock)
        assert checkpoint.doc_count == 8
        assert checkpoint.applied_lsn == 8
        assert checkpoint.taken_at_ms - base == 100
        target = fresh_replica(index=1)
        assert restore_checkpoint(target, checkpoint) == 8
        assert target.applied_lsn == 8
        assert content_digest(target) == content_digest(source)

    def test_snapshot_does_not_alias_live_state(self):
        source = fresh_replica()
        source.vertical("web").index.upsert(make_doc(0))
        source.vertical("web").index.upsert(make_doc(1))
        checkpoint = take_checkpoint(source)
        source.vertical("web").index.remove("durable-doc-0")
        # A changed row after the snapshot replaces the filed object;
        # the one the checkpoint holds keeps its fields.
        source.vertical("web").index.upsert(
            FieldedDocument("durable-doc-1", {"title": "rewritten"}))
        target = fresh_replica(index=1)
        restore_checkpoint(target, checkpoint)
        assert "durable-doc-0" in target.vertical("web").index
        restored = target.vertical("web").index.document("durable-doc-1")
        assert restored.fields == make_doc(1).fields

    def test_auto_checkpoint_cadence_bounds_replay(self, platform):
        durability = platform.durability
        engine = platform.engine
        for number in range(80):
            engine.add_document(Vertical.WEB,
                                make_doc(number, "cadence"))
        for group in engine.groups:
            shard = group.shard_id
            checkpoint = durability.checkpoints.latest(shard)
            lag = durability.wal.last_lsn(shard) - checkpoint.applied_lsn
            # Never more than one cadence-worth of tail past the newest
            # checkpoint (the baseline alone would leave the full log).
            assert 0 <= lag < durability.config.checkpoint_every


# -- crash semantics ----------------------------------------------------------


class TestCrashSemantics:
    def test_crashed_replica_misses_broadcasts_and_is_counted(self):
        group = ReplicaGroup(0, [fresh_replica(0, 0),
                                 fresh_replica(0, 1)])
        group.replicas[1].crash()
        group.broadcast(lambda r: r.vertical("web").index
                        .upsert(make_doc(1)))
        assert doc_total(group.replicas[0]) == 1
        assert doc_total(group.replicas[1]) == 0
        assert group.replicas[1].writes_missed == 1

    def test_killed_replica_still_applies_writes(self):
        group = ReplicaGroup(0, [fresh_replica(0, 0),
                                 fresh_replica(0, 1)])
        group.kill(1)
        group.broadcast(lambda r: r.vertical("web").index
                        .upsert(make_doc(1)))
        assert doc_total(group.replicas[1]) == 1
        assert group.replicas[1].writes_missed == 0

    def test_crash_wipes_state_and_revive_cannot_resurrect(self):
        replica = fresh_replica()
        replica.vertical("web").index.upsert(make_doc(1))
        replica.applied_lsn = 1
        replica.crash()
        assert doc_total(replica) == 0
        assert replica.applied_lsn == 0
        assert not replica.healthy
        replica.revive()                 # flap harness hits this path
        assert not replica.healthy       # still down: state is gone
        replica.rejoin()
        assert replica.healthy and not replica.crashed

    def test_crash_detaches_only_the_crashed_replica(self, platform):
        group = platform.engine.groups[0]
        peer, crashed = group.replicas
        assert peer.state is crashed.state
        docs = doc_total(peer)
        digest = content_digest(peer)
        platform.durability.crash_replica(0, 1)
        assert crashed.state is not peer.state
        assert doc_total(crashed) == 0 and crashed.applied_lsn == 0
        assert doc_total(peer) == docs and content_digest(peer) == digest

    def test_primary_skips_crashed_replicas(self):
        group = ReplicaGroup(0, [fresh_replica(0, 0),
                                 fresh_replica(0, 1)])
        group.replicas[0].crash()
        assert group.primary() is group.replicas[1]


# -- recovery -----------------------------------------------------------------


class TestRecovery:
    def crash_and_write(self, platform, shard=0, replica_index=1,
                        docs=24):
        engine = platform.engine
        platform.durability.crash_replica(shard, replica_index)
        for number in range(docs):
            engine.add_document(Vertical.WEB,
                                make_doc(number, "postcrash"))
        return engine.groups[shard].replicas[replica_index]

    def test_full_cycle_converges_and_rejoins(self, platform):
        replica = self.crash_and_write(platform)
        reads_before = replica.reads_served
        for __ in range(4):              # storm of reads while down
            platform.engine.search("web", "postcrash title")
        assert replica.reads_served == reads_before
        assert replica.writes_missed > 0
        report = platform.durability.recover_replica(0, 1)
        assert report.converged and report.digest_match is True
        assert report.records_replayed > 0
        assert report.docs_restored > 0   # baseline checkpoint kicked in
        assert replica.healthy and not replica.crashed
        assert replica.writes_missed == 0
        peer = platform.engine.groups[0].replicas[0]
        assert content_digest(peer) == content_digest(replica)

    def test_verified_recovery_reattaches_to_the_peer_state(self,
                                                          platform):
        replica = self.crash_and_write(platform)
        peer = platform.engine.groups[0].replicas[0]
        restored = replica.state
        report = platform.durability.recover_replica(0, 1)
        assert report.digest_match is True
        assert replica.state is peer.state and restored is not peer.state

    def test_recovery_without_a_healthy_peer_keeps_its_own_state(
            self, platform):
        replica = self.crash_and_write(platform)
        platform.engine.kill_replica(0, 0)
        restored = replica.state
        report = platform.durability.recover_replica(0, 1)
        assert report.digest_match is None and report.converged
        assert replica.state is restored
        peer = platform.engine.groups[0].replicas[0]
        assert content_digest(replica) == content_digest(peer)
        # Two intact states now: each takes every write.
        platform.engine.add_document(Vertical.WEB, make_doc(500, "both"))
        assert content_digest(replica) == content_digest(peer)
        assert replica.applied_lsn == peer.applied_lsn > 0

    def test_recovery_emits_events_and_metrics(self, platform):
        self.crash_and_write(platform)
        platform.durability.recover_replica(0, 1)
        events = platform.telemetry.events
        assert events.by_kind("replica.crashed")
        assert events.by_kind("recovery.started")
        assert events.by_kind("recovery.completed")
        metrics = platform.telemetry.metrics
        assert metrics.counter("durability_recoveries_total").value == 1
        assert metrics.counter("replica_writes_missed_total",
                               shard="0",
                               replica="shard-0/replica-1").value > 0

    def test_catch_up_charged_to_sim_clock(self, platform):
        self.crash_and_write(platform)
        before = platform.clock.now_ms
        report = platform.durability.recover_replica(0, 1)
        assert platform.clock.now_ms - before == int(report.catch_up_ms) \
            or platform.clock.now_ms > before

    def test_divergence_keeps_replica_out_of_rotation(self, platform):
        replica = self.crash_and_write(platform, docs=6)
        # Corrupt the healthy peer behind the WAL's back: replay will
        # converge to the logged state, which now disagrees.
        peer = platform.engine.groups[0].replicas[0]
        peer.vertical("web").index.upsert(make_doc(999, "phantom"))
        with pytest.raises(DurabilityError):
            platform.durability.recover_replica(0, 1)
        assert not replica.healthy
        assert replica.crashed and replica.recovering
        assert platform.telemetry.events.by_kind("recovery.diverged")

    def test_recover_requires_a_crash(self, platform):
        with pytest.raises(DurabilityError):
            platform.durability.recover_replica(0, 1)

    def test_recovery_lag_visible_in_status(self, platform):
        self.crash_and_write(platform, docs=10)
        status = platform.durability.status()
        assert status["max_lag_records"] > 0
        down = status["shards"][0]["replicas"][1]
        assert down["crashed"] and down["writes_missed"] > 0
        platform.durability.recover_replica(0, 1)
        assert platform.durability.status()["max_lag_records"] == 0


# -- ingest-during-crash equivalence ------------------------------------------


class TestIngestEquivalence:
    GOLDEN = ("equivalence title", "postcrash", "durable")

    @staticmethod
    def build(tiny_web):
        return Symphony(
            web=tiny_web, use_authority=False,
            cluster=ClusterConfig(num_shards=2, replicas_per_shard=2),
            durability=True,
        )

    @staticmethod
    def ingest(engine, start, count, token="equivalence"):
        for number in range(start, start + count):
            engine.add_document(Vertical.WEB, make_doc(number, token))

    def test_crash_mid_stream_yields_identical_results(self, tiny_web):
        """A crash + recovery in the middle of an ingest stream is
        invisible: every golden query answers exactly as on a platform
        that never crashed."""
        clean = self.build(tiny_web)
        self.ingest(clean.engine, 0, 40)

        crashed = self.build(tiny_web)
        self.ingest(crashed.engine, 0, 15)
        crashed.durability.crash_replica(0, 1)
        crashed.durability.crash_replica(1, 0)
        self.ingest(crashed.engine, 15, 25)   # both shards miss writes
        crashed.durability.recover_replica(0, 1)
        crashed.durability.recover_replica(1, 0)

        for query in self.GOLDEN:
            baseline = clean.engine.search("web", query)
            answer = crashed.engine.search("web", query)
            assert ([(r.url, round(r.score, 9))
                     for r in baseline.results]
                    == [(r.url, round(r.score, 9))
                        for r in answer.results]), query
            assert baseline.total_matches == answer.total_matches
        # Stronger than query equality: every replica pair agrees.
        for clean_group, crashed_group in zip(clean.engine.groups,
                                              crashed.engine.groups):
            expected = content_digest(clean_group.replicas[0])
            for replica in crashed_group.replicas:
                assert content_digest(replica) == expected


# -- satellite regressions ----------------------------------------------------


class TestInjectionClearing:
    def test_kill_disarms_pending_faults_and_delays(self):
        replica = fresh_replica()
        replica.inject_fault(count=3)
        replica.inject_latency(50.0, count=2)
        replica.kill()
        replica.revive()
        replica._check_fault()           # armed fault would raise here
        assert replica.take_latency_ms() == 0.0

    def test_revive_alone_disarms_injections(self):
        replica = fresh_replica()
        replica.inject_fault()
        replica.revive()
        replica._check_fault()

    def test_injections_fire_when_not_flapped(self):
        replica = fresh_replica()
        replica.inject_fault()
        with pytest.raises(Exception):
            replica._check_fault()


class TestHedgeLearningReset:
    @staticmethod
    def group_with_histogram():
        from repro.telemetry.metrics import Histogram
        group = ReplicaGroup(0, [fresh_replica(0, 0),
                                 fresh_replica(0, 1)])
        group.latency_histogram = Histogram(
            "replica_attempt_ms", labels=(("shard", "0"),))
        return group

    def test_revive_restarts_latency_learning(self):
        group = self.group_with_histogram()
        for value in (5.0, 900.0, 950.0):    # poisoned by a bad period
            group.latency_histogram.observe(value)
        group.kill(1)
        group.revive(1)
        assert group.latency_histogram.summary()["count"] == 0

    def test_membership_changes_still_reset(self):
        group = self.group_with_histogram()
        group.latency_histogram.observe(10.0)
        group.add_replica(fresh_replica(0, 2))
        assert group.latency_histogram.summary()["count"] == 0


# -- reshard interplay --------------------------------------------------------


class TestReshardCrashInterplay:
    def test_split_survives_donor_replica_crash_mid_handoff(self,
                                                            tiny_web):
        platform = Symphony(
            web=tiny_web, use_authority=False,
            cluster=ClusterConfig(num_shards=2, replicas_per_shard=2),
            telemetry=True, controlplane=True, durability=True,
        )
        engine = platform.engine
        baseline = engine.search("web", "news")
        before = [(r.url, r.title) for r in baseline.results]
        migration = platform.controlplane.begin_split(0)
        platform.controlplane.step()            # first COPY batch
        platform.durability.crash_replica(0, 0)  # donor primary dies
        while platform.controlplane.active:
            platform.controlplane.step()
        assert migration.state == "complete"
        report = platform.durability.recover_replica(0, 0)
        assert report.converged
        after = engine.search("web", "news")
        assert [(r.url, r.title) for r in after.results] == before
        assert after.total_matches == baseline.total_matches


# -- platform wiring ----------------------------------------------------------


class TestPlatformWiring:
    def test_requires_cluster(self, tiny_web):
        with pytest.raises(ConfigurationError):
            Symphony(web=tiny_web, durability=True)

    def test_null_object_default(self, symphony):
        assert not symphony.durability.enabled
        with pytest.raises(ConfigurationError):
            symphony.durability.crash_replica(0, 0)
        assert symphony.durability.status() == {"enabled": False}

    def test_config_selects_blob_storage(self, tiny_web):
        platform = Symphony(
            web=tiny_web, use_authority=False,
            cluster=ClusterConfig(num_shards=2, replicas_per_shard=2),
            durability=DurabilityConfig(storage="blob"),
        )
        platform.engine.add_document(Vertical.WEB, make_doc(1, "blob"))
        shard = platform.engine.router.snapshot() \
            .shard_of("blob-doc-1")
        assert platform.durability.wal.record_count(shard) == 1

    def test_unknown_storage_rejected(self):
        with pytest.raises(ConfigurationError):
            DurabilityConfig(storage="tape").build_storage()


# -- chaos plan ---------------------------------------------------------------


class TestChaosPlan:
    def test_crash_recovery_plan_parses(self):
        from repro.resilience.chaos import load_fault_plan
        plan = load_fault_plan("examples/crash_recovery_plan.json")
        assert plan.durability["expect_digest_match"] is True
        assert len(plan.durability["crashes"]) == 2
        assert any(step.get("during_reshard")
                   for step in plan.durability["crashes"])

    @pytest.mark.parametrize("shard", [9, -1])
    def test_a_crash_of_a_shard_the_cluster_lacks_is_a_violation(
            self, shard):
        # Python indexing would read -1 as the last shard (and crash it
        # while recovery read shard -1's empty log) and 9 as an
        # IndexError out of run_chaos.
        from repro.resilience.chaos import FaultPlan, run_chaos
        plan = FaultPlan(
            name="bad-crash", queries=3, hedge=None,
            durability={"ingest_per_query": 1, "crashes": [
                {"at": 1, "shard": shard, "replica": 1,
                 "recover_at": 2}]},
        )
        report = run_chaos(plan)
        assert report.crashes_injected == 0
        assert report.violations == [
            f"durability: crash at 1: the cluster has no shard {shard}"]
        assert not report.escaped


class TestOutsideIds:
    """Shard ids and replica indexes arrive from the CLI and chaos
    plans; one this cluster does not have is refused, not indexed."""

    @pytest.mark.parametrize("shard, replica_index", [
        (-1, 0), (2, 0), (0, -1), (0, 2)])
    def test_a_crash_outside_the_cluster_raises_and_crashes_nothing(
            self, platform, shard, replica_index):
        with pytest.raises(ConfigurationError):
            platform.durability.crash_replica(shard, replica_index)
        assert not any(replica.crashed
                       for group in platform.engine.groups
                       for replica in group.replicas)
        assert not platform.telemetry.events.by_kind("replica.crashed")

    def test_a_recovery_outside_the_cluster_raises(self, platform):
        platform.durability.crash_replica(1, 1)
        with pytest.raises(ConfigurationError):
            platform.durability.recover_replica(-1, 1)
        assert not platform.telemetry.events.by_kind("recovery.started")

    def test_the_cli_prints_one_error_line(self, capsys):
        from repro.cli import main
        assert main(["durability", "--crash-shard", "9"]) == 1
        assert capsys.readouterr().out == "the cluster has no shard 9\n"
