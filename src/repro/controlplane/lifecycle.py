"""Online shard splits and merges with live handoff.

The :class:`ShardLifecycleManager` changes the cluster's shard layout
*while the cluster keeps answering queries*. A migration walks a small
state machine, one batch of work per :meth:`~ShardLifecycleManager.step`:

``COPY``
    Documents whose routing hash falls in the moved range stream from
    the donor to the target in generation-stamped batches. The donor
    still owns the range and serves every read; a dual-write fanout
    (installed on ``engine.write_fanout``) mirrors concurrent writes to
    both sides so the copy stream can never lose a racing update.
``CUTOVER``
    The successor :class:`~repro.cluster.sharding.RouteMap` flips in
    atomically — queries pin one snapshot, so each sees entirely-old or
    entirely-new topology, never a mix. The gateway's
    ``cluster-topology`` generation bumps in the same step, so every
    cached response computed over the old layout dies immediately.
``CLEANUP``
    The moved documents are deleted from the donor. Until cleanup
    finishes both sides hold them (the merge target did before cutover
    too); while the fanout is installed a shard reads only documents
    the query's pinned route map gives it, so each counts once.
    Cleanup recomputes the remaining set every step, which also sweeps
    up documents that dual-writes landed on the donor mid-cleanup.
``COMPLETE``
    The fanout uninstalls and the cluster is back on the clean path.

Replica membership (add/drop a replica of one shard) is also here —
the :class:`~repro.controlplane.autoscaler.Autoscaler` drives both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.replica import IndexState, ShardReplica
from repro.cluster.sharding import RouteMap, route_hash
from repro.errors import ConfigurationError, ControlPlaneError
from repro.gateway.generations import TOPOLOGY_KEY
from repro.telemetry import Telemetry

__all__ = ["Migration", "ShardLifecycleManager",
           "COPY", "CUTOVER", "CLEANUP", "COMPLETE"]

COPY = "copy"
CUTOVER = "cutover"
CLEANUP = "cleanup"
COMPLETE = "complete"


@dataclass
class Migration:
    """One in-flight shard split or merge."""

    kind: str                 # "split" | "merge"
    source_id: int            # donor shard
    target_id: int            # receiving shard
    route: RouteMap           # successor map, applied at cutover
    moved_ranges: tuple       # hash ranges changing owner
    state: str = COPY
    pending: list = field(default_factory=list)   # (vertical, doc_id)
    generation: int = 0       # handoff batch counter
    docs_moved: int = 0

    def owns(self, doc_id: str) -> bool:
        """True when ``doc_id`` hashes into a moved range."""
        position = route_hash(doc_id)
        return any(position in entry for entry in self.moved_ranges)

    def status(self) -> dict:
        return {
            "kind": self.kind,
            "source": self.source_id,
            "target": self.target_id,
            "state": self.state,
            "pending": len(self.pending),
            "generation": self.generation,
            "docs_moved": self.docs_moved,
            "next_version": self.route.version,
        }


class ShardLifecycleManager:
    """Drives topology changes against one clustered engine.

    One migration at a time; each :meth:`step` performs a bounded batch
    of work so the caller (autoscaler tick, chaos harness, CLI) can
    interleave queries with the migration and observe every window.
    """

    def __init__(self, engine, generations=None,
                 telemetry: Telemetry | None = None,
                 batch_size: int = 64) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.engine = engine
        self.generations = generations
        self.telemetry = telemetry or Telemetry.disabled()
        self.batch_size = batch_size
        self._migration: Migration | None = None
        metrics = self.telemetry.metrics
        metrics.gauge("controlplane_active_shards",
                      fn=lambda: engine.num_shards)
        metrics.gauge("controlplane_topology_version",
                      fn=lambda: engine.topology_version)

    # -- introspection --------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._migration is not None

    @property
    def migration(self) -> Migration | None:
        return self._migration

    def status(self) -> dict | None:
        return self._migration.status() if self._migration else None

    # -- replica membership ---------------------------------------------------

    def add_replica(self, shard_id: int) -> ShardReplica:
        """Enroll a new replica on the primary's index state; raises
        :class:`ConfigurationError` when no replica is intact."""
        group = self.engine.groups[shard_id]
        primary = group.primary()
        if primary.crashed:
            raise ConfigurationError(
                f"shard {shard_id} has no intact replica to add from"
            )
        index = max(r.replica_index for r in group.replicas) + 1
        replica = ShardReplica(shard_id, index, primary.state)
        group.add_replica(replica)
        self.telemetry.metrics.counter(
            "controlplane_replicas_added_total").inc()
        self.telemetry.events.emit(
            "replica.added", shard=shard_id, replica=replica.replica_id,
            replicas=len(group.replicas),
        )
        return replica

    def remove_replica(self, shard_id: int,
                       replica_index: int | None = None) -> ShardReplica:
        """Drop one replica (default: the newest) from a shard."""
        group = self.engine.groups[shard_id]
        if replica_index is None:
            replica_index = len(group.replicas) - 1
        replica = group.remove_replica(replica_index)
        self.telemetry.metrics.counter(
            "controlplane_replicas_removed_total").inc()
        self.telemetry.events.emit(
            "replica.removed", shard=shard_id,
            replica=replica.replica_id, replicas=len(group.replicas),
        )
        return replica

    # -- migrations -----------------------------------------------------------

    def begin_split(self, shard_id: int) -> Migration:
        """Start splitting ``shard_id``'s widest range onto a new shard.

        The new shard's replica group is built empty (same redundancy
        as the donor, one index state), registered unrouted, and only
        receives traffic at cutover — after the copy stream has filled it.
        """
        self._require_idle()
        self._require_routed(shard_id)
        engine = self.engine
        donor = engine.groups[shard_id]
        new_id = len(engine.groups)
        route, moved = engine.router.snapshot().split(shard_id, new_id)
        state = IndexState.empty(engine.authority)
        group_cls = type(donor)
        group = group_cls(
            new_id,
            [ShardReplica(new_id, index, state)
             for index in range(len(donor.replicas))],
            failure_threshold=donor.failure_threshold,
        )
        engine.register_shard(group)
        return self._begin("split", shard_id, new_id, route, (moved,))

    def begin_merge(self, source_id: int, target_id: int) -> Migration:
        """Start folding ``source_id``'s ranges into ``target_id``.

        The source group goes dormant at cutover (it stays in
        ``engine.groups`` but no route points at it).
        """
        self._require_idle()
        self._require_routed(source_id, target_id)
        route, moved = self.engine.router.snapshot().merge(
            source_id, target_id)
        return self._begin("merge", source_id, target_id, route, moved)

    def step(self) -> str | None:
        """Advance the migration by one bounded batch; returns the state
        reached (``None`` when no migration is active)."""
        migration = self._migration
        if migration is None:
            return None
        if migration.state == COPY:
            self._step_copy(migration)
        elif migration.state == CUTOVER:
            self._step_cutover(migration)
        elif migration.state == CLEANUP:
            self._step_cleanup(migration)
        return migration.state

    # -- internals ------------------------------------------------------------

    def _require_idle(self) -> None:
        if self._migration is not None:
            raise ControlPlaneError(
                f"migration already in progress: "
                f"{self._migration.status()}"
            )

    def _require_routed(self, *shard_ids: int) -> None:
        """Raise :class:`ConfigurationError`, before any state changes,
        unless each id is a distinct shard of the current route map."""
        routed = self.engine.router.snapshot().shard_ids
        for shard_id in shard_ids:
            if shard_id not in routed:
                raise ConfigurationError(
                    f"no routed shard {shard_id}; "
                    f"the shards are {list(routed)}")
        if len(set(shard_ids)) < len(shard_ids):
            raise ConfigurationError(
                f"cannot merge shard {shard_ids[0]} into itself")

    def _begin(self, kind: str, source_id: int, target_id: int,
               route: RouteMap, moved_ranges: tuple) -> Migration:
        migration = Migration(kind=kind, source_id=source_id,
                              target_id=target_id, route=route,
                              moved_ranges=moved_ranges)
        migration.pending = self._moving_docs(migration)
        self._migration = migration
        self.engine.write_fanout = (
            lambda doc_id: (source_id, target_id)
            if migration.owns(doc_id) else ()
        )
        self.telemetry.metrics.counter(
            "controlplane_reshards_total", kind=kind).inc()
        self.telemetry.events.emit(
            "reshard.start", op=kind, source=source_id,
            target=target_id, docs=len(migration.pending),
            next_version=route.version,
        )
        return migration

    def _moving_docs(self, migration: Migration) -> list:
        """Snapshot the donor documents in the moved ranges (sorted, so
        handoff batches replay identically)."""
        primary = self.engine.groups[migration.source_id].primary()
        moving = []
        for vertical, vindex in sorted(primary.verticals.items(),
                                       key=lambda kv: kv[0].value):
            for doc_id in sorted(vindex.index.all_doc_ids()):
                if migration.owns(doc_id):
                    moving.append((vertical, doc_id))
        return moving

    def _step_copy(self, migration: Migration) -> None:
        donor = self.engine.groups[migration.source_id].primary()
        batch = migration.pending[:self.batch_size]
        del migration.pending[:self.batch_size]
        copied = 0
        for vertical, doc_id in batch:
            index = donor.vertical(vertical).index
            if doc_id not in index:      # removed while queued
                continue
            document = index.document(doc_id)
            # Handoff batches flow through the replicated write path, so
            # they are WAL-logged on the target shard and a target
            # replica that crashes mid-handoff can be caught back up.
            self.engine.replicated_write(
                migration.target_id, "add", vertical,
                document=document, tolerant=True,
            )
            copied += 1
        migration.generation += 1
        migration.docs_moved += copied
        metrics = self.telemetry.metrics
        metrics.counter("controlplane_handoff_batches_total").inc()
        metrics.counter("controlplane_docs_moved_total").inc(copied)
        self.telemetry.events.emit(
            "reshard.handoff", op=migration.kind,
            generation=migration.generation, docs=copied,
            remaining=len(migration.pending),
        )
        if not migration.pending:
            migration.state = CUTOVER

    def _step_cutover(self, migration: Migration) -> None:
        self.engine.apply_route(migration.route)
        if self.generations is not None:
            self.generations.bump(TOPOLOGY_KEY)
        self.telemetry.events.emit(
            "reshard.cutover", op=migration.kind,
            source=migration.source_id, target=migration.target_id,
            topology_version=migration.route.version,
        )
        migration.state = CLEANUP

    def _step_cleanup(self, migration: Migration) -> None:
        """Delete moved documents from the donor, one batch per step.

        The remaining set is recomputed from the donor's live indexes
        rather than replayed from the copy snapshot: dual-writes that
        landed on the donor after the snapshot get swept too, so
        COMPLETE really means the donor holds nothing from the moved
        ranges.
        """
        remaining = self._moving_docs(migration)
        if not remaining:
            self.engine.write_fanout = None
            migration.state = COMPLETE
            self._migration = None
            self.telemetry.events.emit(
                "reshard.complete", op=migration.kind,
                source=migration.source_id, target=migration.target_id,
                docs_moved=migration.docs_moved,
                generations=migration.generation,
            )
            return
        for vertical, doc_id in remaining[:self.batch_size]:
            self.engine.replicated_write(
                migration.source_id, "remove", vertical,
                doc_id=doc_id, tolerant=True,
            )
