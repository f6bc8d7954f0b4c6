"""Shard replicas: redundant copies of one document partition.

A :class:`ShardReplica` is a node (health, faults, read counts) that
runs :func:`~repro.searchengine.engine.execute_query` over an
:class:`IndexState`: its shard's vertical indexes and the WAL LSN they
reflect. A :class:`ReplicaGroup` fronts the N replicas of one shard
with health tracking, fault injection and failover: a request rotates
across healthy replicas and falls through to the next on error; a
replica that keeps failing leaves rotation.

Writes (add/remove) go to every replica *with intact index state*,
including killed ones, so a revived replica is immediately consistent —
``kill`` models a node that stops serving reads, not one that loses its
data. Intact replicas are write-identical and share one state, so a
write is filed once per shard. ``crash`` models the real failure: the
replica detaches onto empty indexes, subsequent writes are genuinely
missed (counted as ``replica_writes_missed_total``), and the replica
can only rejoin after :mod:`repro.durability` has caught it up from
checkpoint + WAL replay — a recovering replica is never served from.
"""

from __future__ import annotations

import itertools

from repro.errors import (
    ReplicaFaultError,
    ReproError,
    ShardUnavailableError,
)
from repro.searchengine.engine import (
    Vertical,
    execute_query,
    materialize_result,
)
from repro.searchengine.spelling import collect_term_frequencies
from repro.searchengine.stats import CorpusStats
from repro.telemetry.events import NULL_EVENTS
from repro.telemetry.metrics import NULL_METRICS
from repro.telemetry.trace import NULL_TRACER

__all__ = ["IndexState", "ShardReplica", "ReplicaGroup"]


class IndexState:
    """Vertical indexes and the WAL LSN they reflect, shared by a shard's
    write-identical replicas; never cleared in place (see ``crash``)."""

    def __init__(self, verticals: dict) -> None:
        self.verticals = verticals
        self.applied_lsn = 0        # highest WAL record applied here


class ShardReplica:
    """One replica of one shard: a node over a (shared) index state."""

    def __init__(self, shard_id: int, replica_index: int,
                 state: IndexState) -> None:
        self.shard_id = shard_id
        self.replica_index = replica_index
        self.replica_id = f"shard-{shard_id}/replica-{replica_index}"
        # The name of every read-attempt span on this replica, built
        # once: a tracer keeps every finished span, and with it the name
        # string, so attempts share one string instead of one each.
        self.attempt_span = f"attempt:{self.replica_id}"
        self.state = state
        self.healthy = True
        # Durability state (see repro.durability): a crashed replica has
        # lost its indexes and must be repaired before rejoining.
        self.crashed = False
        self.recovering = False
        self.writes_missed = 0      # broadcasts skipped while crashed
        self.reads_served = 0       # read attempts that reached us
        self._pending_faults: list[Exception] = []
        self._pending_delays: list[float] = []

    @property
    def verticals(self) -> dict:
        return self.state.verticals

    @property
    def applied_lsn(self) -> int:
        return self.state.applied_lsn

    @applied_lsn.setter
    def applied_lsn(self, lsn: int) -> None:
        self.state.applied_lsn = lsn

    # -- health & fault injection -------------------------------------------

    def kill(self) -> None:
        """Take the replica out of read rotation (ops hook / tests).

        Chaos injections armed for this replica are disarmed: a pending
        fault or delay describes a request the dead node will never see,
        and must not fire on whoever serves after a later revive.
        """
        self.healthy = False
        self.clear_injections()

    def revive(self) -> None:
        """Return to read rotation — unless the index state is gone.

        A *crashed* replica stays out of rotation: it holds nothing and
        must go through :class:`repro.durability.RecoveryManager` (which
        calls :meth:`rejoin` after checkpoint + WAL replay converge).
        """
        self.clear_injections()
        if self.crashed:
            return
        self.healthy = True

    def clear_injections(self) -> None:
        """Drop any still-armed injected faults and delays."""
        self._pending_faults.clear()
        self._pending_delays.clear()

    # -- durability state machine (driven by repro.durability) ---------------

    def crash(self) -> None:
        """Lose the node: detach onto empty indexes and leave rotation.

        Peers keep the shared state. Unlike :meth:`kill`, writes broadcast
        while crashed are *not* applied — the replica genuinely misses
        them and must be caught up from a checkpoint plus the WAL.
        """
        from repro.searchengine.engine import make_vertical_indexes
        authority = next(
            (v.authority for v in self.verticals.values() if v.authority),
            {},
        )
        self.state = IndexState(make_vertical_indexes(authority))
        self.healthy = False
        self.crashed = True
        self.recovering = False
        self.clear_injections()

    def begin_recovery(self) -> None:
        """Enter repair: still crashed, still unserved, being rebuilt."""
        self.recovering = True

    def rejoin(self) -> None:
        """Repair done — converged state rejoins read rotation."""
        self.crashed = False
        self.recovering = False
        self.healthy = True

    def inject_fault(self, count: int = 1,
                     exc: Exception | None = None) -> None:
        """Arrange for the next ``count`` reads on this replica to raise."""
        for __ in range(count):
            self._pending_faults.append(
                exc or ReplicaFaultError(
                    f"injected fault on {self.replica_id}"
                )
            )

    def _check_fault(self) -> None:
        if self._pending_faults:
            raise self._pending_faults.pop(0)

    def inject_latency(self, delay_ms: float, count: int = 1) -> None:
        """Make the next ``count`` reads appear ``delay_ms`` slow.

        The delay is simulated — consumed by the owning
        :class:`ReplicaGroup` for latency accounting and hedging
        decisions, never slept.
        """
        if delay_ms < 0:
            raise ValueError("delay_ms must be non-negative")
        self._pending_delays.extend([float(delay_ms)] * count)

    def take_latency_ms(self) -> float:
        """Consume the next injected read delay (0 when none pending)."""
        if self._pending_delays:
            return self._pending_delays.pop(0)
        return 0.0

    # -- data plane -----------------------------------------------------------

    def vertical(self, vertical) -> object:
        return self.state.verticals[Vertical(vertical)]

    def add(self, vertical, document) -> None:
        self.vertical(vertical).index.add(document)

    def remove(self, vertical, doc_id: str) -> None:
        self.vertical(vertical).index.remove(doc_id)

    def doc_count(self, vertical) -> int:
        return len(self.vertical(vertical).index)

    # -- query plane (runs inside scatter-gather shard tasks) -----------------

    def collect_stats(self, vertical, terms) -> CorpusStats:
        """Phase 1: this shard's contribution to the global statistics."""
        self.reads_served += 1
        self._check_fault()
        vindex = self.vertical(vertical)
        return CorpusStats.collect(vindex.index, vindex.text_fields,
                                   terms)

    def execute_many(self, vertical, requests, stats: CorpusStats,
                     now_ms: int) -> list:
        """Phase 2: evaluate + rank this shard under global statistics,
        for every ``(node, options, terms, limit)`` of one batch.

        The batch is one read: one fault check and one ``reads_served``.
        Returns one ``(top, candidate_count)`` per request, where
        ``top`` is the shard's best ``limit`` (all when ``None``)
        ``(doc_id, score)`` pairs ordered by score desc then id — ready
        for the gatherer's heap merge.
        """
        self.reads_served += 1
        self._check_fault()
        vindex = self.vertical(vertical)
        return [execute_query(vindex, node, options, terms, now_ms, stats,
                              limit)
                for node, options, terms, limit in requests]

    def materialize(self, vertical, doc_id: str, score: float, terms):
        return materialize_result(self.vertical(vertical), doc_id,
                                  score, terms)

    def term_frequencies(self, vertical) -> dict:
        """This shard's vocabulary frequencies, for merged spelling."""
        vindex = self.vertical(vertical)
        return collect_term_frequencies(vindex.index,
                                        vindex.text_fields)


class ReplicaGroup:
    """The replicas of one shard, with failover and health tracking."""

    def __init__(self, shard_id: int, replicas: list,
                 failure_threshold: int = 3) -> None:
        if not replicas:
            raise ValueError("a replica group needs at least one replica")
        if failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        self.shard_id = shard_id
        self.replicas = list(replicas)
        self.failure_threshold = failure_threshold
        # Telemetry hooks, installed by the owning cluster engine. The
        # tracer parents attempt spans under the shard-task span that
        # is current when the request reaches this group.
        self.tracer = NULL_TRACER
        self.events = NULL_EVENTS
        self.metrics = NULL_METRICS
        # Hedging, installed via enable_hedging by the cluster engine.
        self.hedge_policy = None
        self.latency_histogram = None
        self._rotation = itertools.count()
        self._consecutive_failures = [0] * len(self.replicas)

    # -- membership (driven by repro.controlplane) ----------------------------

    def add_replica(self, replica) -> None:
        """Add a fully built replica to the read rotation."""
        self.replicas.append(replica)
        self._consecutive_failures.append(0)
        self._reset_latency_learning()

    def remove_replica(self, replica_index: int):
        """Drop one replica from the group; returns it."""
        if len(self.replicas) <= 1:
            raise ValueError(
                "cannot remove the last replica of a shard"
            )
        replica = self.replicas.pop(replica_index)
        self._consecutive_failures.pop(replica_index)
        self._reset_latency_learning()
        return replica

    def _reset_latency_learning(self) -> None:
        """Re-learn hedge latencies after a membership change.

        The learned attempt-latency distribution describes the *old*
        replica set; keeping it would let a departed slow replica (or a
        fresh replica's cold start) poison the hedge threshold, so the
        histogram restarts and the policy falls back to its fixed
        threshold until enough new observations accumulate.
        """
        if self.latency_histogram is not None:
            from repro.telemetry.metrics import Histogram
            self.latency_histogram = Histogram(
                "replica_attempt_ms",
                labels=(("shard", str(self.shard_id)),),
            )

    # -- ops hooks ------------------------------------------------------------

    def kill(self, replica_index: int) -> None:
        self.replicas[replica_index].kill()

    def revive(self, replica_index: int) -> None:
        """Bring one replica back into rotation (no-op while crashed).

        Besides the health flag, revival resets the failure streak *and*
        the hedge-latency learning: the attempt-latency distribution was
        learned while this replica was degraded or absent, and a hedge
        threshold inflated by its bad period would otherwise persist
        long after it recovered.
        """
        self.replicas[replica_index].revive()
        self._consecutive_failures[replica_index] = 0
        self._reset_latency_learning()

    def healthy_replicas(self) -> list:
        return [r for r in self.replicas if r.healthy]

    def primary(self):
        """The first replica with intact index state.

        Crashed replicas hold nothing, so copy streams, doc counts, and
        read-only views must come from an intact one (killed-but-intact
        replicas still apply every write, so they qualify). Falls back
        to replica 0 when the whole group has crashed.
        """
        for replica in self.replicas:
            if not replica.crashed:
                return replica
        return self.replicas[0]

    # -- write path: replicate everywhere -------------------------------------

    def broadcast(self, fn) -> None:
        """Apply a write once per intact index state, in replica order.

        Killed replicas still receive writes (``kill`` only stops
        reads), but *crashed* replicas genuinely miss them: the write is
        counted against each one, to be replayed from the WAL.
        """
        applied: set = set()        # ids of the states written
        for replica in self.replicas:
            if replica.crashed:
                replica.writes_missed += 1
                self.metrics.counter(
                    "replica_writes_missed_total",
                    shard=str(self.shard_id),
                    replica=replica.replica_id,
                ).inc()
            elif id(replica.state) not in applied:
                applied.add(id(replica.state))
                fn(replica)

    # -- read path: rotate + fail over + hedge --------------------------------

    def enable_hedging(self, policy) -> None:
        """Install hedged reads (called by the owning cluster engine).

        The group keeps its own attempt-latency histogram so the hedge
        threshold adapts to the latencies this shard has actually
        observed, independent of whether full telemetry is enabled.
        """
        from repro.telemetry.metrics import Histogram
        self.hedge_policy = policy
        if self.latency_histogram is None:
            self.latency_histogram = Histogram(
                "replica_attempt_ms",
                labels=(("shard", str(self.shard_id)),),
            )

    def _emit(self, kind: str, **fields) -> None:
        self.events.emit(kind, shard=self.shard_id, **fields)

    def _attempt(self, fn, index: int, replica, errors: list):
        """One read attempt on ``replica``; ``(ok, result, latency_ms)``.

        Consumes the replica's injected latency, feeds the attempt
        histogram, and does the failure accounting (consecutive errors
        remove the replica from rotation).
        """
        with self.tracer.span(replica.attempt_span) as span:
            latency_ms = replica.take_latency_ms()
            if span and latency_ms:
                span.set("injected_latency_ms", latency_ms)
            try:
                result = fn(replica)
            except ReproError as exc:
                errors.append(f"{replica.replica_id}: {exc}")
                if span:
                    span.status = "error"
                    span.set("error", str(exc))
                self._consecutive_failures[index] += 1
                removed = (self._consecutive_failures[index]
                           >= self.failure_threshold)
                if removed:
                    replica.kill()
                self._emit(
                    "replica.failover",
                    replica=replica.replica_id,
                    error=str(exc),
                    removed_from_rotation=removed,
                )
                return False, None, latency_ms
            self._consecutive_failures[index] = 0
            if self.latency_histogram is not None:
                self.latency_histogram.observe(latency_ms)
            return True, result, latency_ms

    def run(self, fn):
        """Run ``fn(replica)`` on a healthy replica, failing over.

        Starts at a rotating offset for load spread, skips unhealthy
        replicas, and on a :class:`ReproError` records the failure
        (``failure_threshold`` consecutive errors remove the replica
        from rotation) and tries the next one. Raises
        :class:`ShardUnavailableError` when every replica is down or
        errored.
        """
        result, _meta = self.run_annotated(fn)
        return result

    def run_annotated(self, fn):
        """Like :meth:`run`, returning ``(result, meta)`` with hedging.

        ``meta`` carries ``replica``, ``attempts``, ``latency_ms`` (the
        simulated latency the caller should charge for this read) and
        ``hedged``/``hedge`` markers.  When a hedge policy is installed
        and the serving attempt came back slower than the policy's
        threshold, a backup attempt fires on the next healthy replica;
        the model is that both attempts race from the moment the hedge
        launched (at ``threshold`` ms), so the effective latency is
        ``min(primary, threshold + backup)`` and the backup's result is
        served only when it would genuinely have finished first.
        """
        start = next(self._rotation)
        errors: list[str] = []
        order = [(start + offset) % len(self.replicas)
                 for offset in range(len(self.replicas))]
        attempts = 0
        for pos, index in enumerate(order):
            replica = self.replicas[index]
            if not replica.healthy:
                errors.append(f"{replica.replica_id}: down")
                continue
            attempts += 1
            ok, result, latency_ms = self._attempt(fn, index, replica,
                                                   errors)
            if not ok:
                continue
            meta = {"replica": replica.replica_id, "attempts": attempts,
                    "latency_ms": latency_ms, "hedged": False}
            policy = self.hedge_policy
            if policy is not None:
                threshold = policy.threshold_ms(self.latency_histogram)
                if latency_ms > threshold:
                    hedged = self._hedge(fn, order[pos + 1:], threshold,
                                         latency_ms, attempts, errors)
                    if hedged is not None:
                        return hedged
                    meta["hedged"] = True
                    meta["hedge"] = "lose"
                    meta["attempts"] = attempts + 1
            return result, meta
        self._emit("shard.unavailable", attempts=len(errors))
        raise ShardUnavailableError(
            f"shard {self.shard_id} unavailable: " + "; ".join(errors)
        )

    def _hedge(self, fn, rest: list, threshold: float,
               primary_latency: float, attempts: int, errors: list):
        """Fire the backup attempt; ``(result, meta)`` on a hedge win.

        Returns ``None`` when no healthy backup exists, the backup
        failed, or the backup would not have beaten the primary (a
        hedge *lose* — the primary's result stands).
        """
        backup_index = next(
            (i for i in rest if self.replicas[i].healthy), None)
        if backup_index is None:
            return None
        backup = self.replicas[backup_index]
        self._emit("hedge.launched", backup=backup.replica_id,
                   primary_latency_ms=primary_latency,
                   threshold_ms=threshold)
        ok, result, backup_latency = self._attempt(
            fn, backup_index, backup, errors)
        hedge_latency = threshold + backup_latency
        if ok and hedge_latency < primary_latency:
            self._emit("hedge.win", backup=backup.replica_id,
                       latency_ms=hedge_latency,
                       saved_ms=primary_latency - hedge_latency)
            return result, {"replica": backup.replica_id,
                            "attempts": attempts + 1,
                            "latency_ms": hedge_latency,
                            "hedged": True, "hedge": "win"}
        self._emit("hedge.lose", backup=backup.replica_id,
                   backup_ok=ok, backup_latency_ms=backup_latency)
        return None
