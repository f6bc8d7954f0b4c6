"""Catch-up repair: bring a crashed replica back into rotation.

The :class:`RecoveryManager` drives the full repair of one crashed
replica:

1. **restore** — load the shard's newest checkpoint (or start empty for
   a shard that never checkpointed, e.g. one born mid-split);
2. **replay** — apply the WAL tail past the checkpoint's LSN, looping
   until the replica's ``applied_lsn`` reaches the shard log's head
   (replay is idempotent, see :func:`repro.durability.wal.replay`);
3. **verify** — compare the replica's per-vertical content digest with
   a healthy peer's; a mismatch keeps the replica out of rotation and
   raises :class:`~repro.errors.DurabilityError`; a match re-attaches
   the replica to the peer's index state (with no peer it keeps its own);
4. **rejoin** — only now does the replica re-enter read rotation (the
   group also resets its failure streak and hedge-latency learning).

Throughout recovery the replica stays ``crashed`` and unhealthy: the
read path never serves from it, and writes broadcast meanwhile are
picked up by the replay loop. Recovery cost is charged to SimClock —
a base plus per-document restore and per-record replay costs — which is
what experiment X14 measures against the WAL backlog.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.durability.checkpoint import (
    content_digest,
    restore_checkpoint,
)
from repro.durability.wal import replay
from repro.errors import DurabilityError
from repro.telemetry import Telemetry
from repro.util import SimClock

__all__ = ["RecoveryReport", "RecoveryManager",
           "RECOVERY_BASE_MS", "RESTORE_PER_DOC_US",
           "REPLAY_PER_RECORD_US"]

# Simulated repair cost model: fixed coordination overhead, plus a
# per-document checkpoint-load cost and a per-record replay cost — so
# catch-up time is linear in the WAL backlog at a fixed checkpoint.
RECOVERY_BASE_MS = 8.0
RESTORE_PER_DOC_US = 50.0
REPLAY_PER_RECORD_US = 200.0


@dataclass
class RecoveryReport:
    """What one repair did, and whether it provably converged."""

    shard_id: int
    replica_id: str
    lag_records: int = 0            # WAL head - applied LSN at start
    checkpoint_lsn: int = 0
    docs_restored: int = 0
    records_replayed: int = 0
    writes_missed: int = 0          # broadcasts skipped while crashed
    digest: dict = field(default_factory=dict)
    digest_match: bool | None = None   # None: no healthy peer to check
    catch_up_ms: float = 0.0        # simulated repair duration
    converged: bool = False

    def as_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "replica_id": self.replica_id,
            "lag_records": self.lag_records,
            "checkpoint_lsn": self.checkpoint_lsn,
            "docs_restored": self.docs_restored,
            "records_replayed": self.records_replayed,
            "writes_missed": self.writes_missed,
            "digest_match": self.digest_match,
            "catch_up_ms": round(self.catch_up_ms, 3),
            "converged": self.converged,
        }


class RecoveryManager:
    """Repairs crashed replicas from checkpoint + WAL replay."""

    def __init__(self, engine, wal, checkpoints,
                 clock: SimClock | None = None,
                 telemetry: Telemetry | None = None) -> None:
        self.engine = engine
        self.wal = wal
        self.checkpoints = checkpoints
        self.clock = clock or SimClock()
        self.telemetry = telemetry or Telemetry.disabled()

    def _emit(self, kind: str, **fields) -> None:
        self.telemetry.events.emit(kind, **fields)

    def recover(self, shard_id: int,
                replica_index: int) -> RecoveryReport:
        """Fully repair one crashed replica; returns the report.

        Raises :class:`DurabilityError` when the replica has not
        crashed (nothing to repair) or when, after replay, its content
        digest disagrees with a healthy peer — in which case it stays
        out of rotation.
        """
        group = self.engine.groups[shard_id]
        replica = group.replicas[replica_index]
        if not replica.crashed:
            raise DurabilityError(
                f"{replica.replica_id} has not crashed; "
                f"nothing to recover"
            )
        replica.begin_recovery()
        report = RecoveryReport(
            shard_id=shard_id,
            replica_id=replica.replica_id,
            lag_records=self.wal.last_lsn(shard_id),
            writes_missed=replica.writes_missed,
        )
        self._emit("recovery.started", shard=shard_id,
                   replica=replica.replica_id,
                   wal_head=self.wal.last_lsn(shard_id),
                   writes_missed=replica.writes_missed)

        checkpoint = self.checkpoints.latest(shard_id)
        if checkpoint is not None:
            report.checkpoint_lsn = checkpoint.applied_lsn
            report.docs_restored = restore_checkpoint(replica,
                                                      checkpoint)
        report.lag_records = max(
            0, self.wal.last_lsn(shard_id) - replica.applied_lsn
        )
        # Replay until the replica reaches the log head; a concurrent
        # write that lands mid-replay just extends the tail one loop.
        while replica.applied_lsn < self.wal.last_lsn(shard_id):
            report.records_replayed += replay(
                self.wal.tail(shard_id, after_lsn=replica.applied_lsn),
                replica,
            )
        report.catch_up_ms = (
            RECOVERY_BASE_MS
            + report.docs_restored * RESTORE_PER_DOC_US / 1000.0
            + report.records_replayed * REPLAY_PER_RECORD_US / 1000.0
        )
        self.clock.advance(report.catch_up_ms)
        self._emit("recovery.replayed", shard=shard_id,
                   replica=replica.replica_id,
                   checkpoint_lsn=report.checkpoint_lsn,
                   docs_restored=report.docs_restored,
                   records=report.records_replayed,
                   applied_lsn=replica.applied_lsn)

        report.digest = content_digest(replica)
        report.digest_match = self._verify(group, replica, report)
        replica.writes_missed = 0
        replica.rejoin()
        group.revive(replica_index)   # failure streak + hedge learning
        report.converged = True
        metrics = self.telemetry.metrics
        metrics.counter("durability_recoveries_total").inc()
        metrics.histogram("recovery_catch_up_ms").observe(
            report.catch_up_ms)
        metrics.histogram("recovery_replayed_records").observe(
            report.records_replayed)
        self._emit("recovery.completed", shard=shard_id,
                   replica=replica.replica_id,
                   records=report.records_replayed,
                   catch_up_ms=round(report.catch_up_ms, 3),
                   digest_match=report.digest_match)
        return report

    def _verify(self, group, replica, report: RecoveryReport) -> bool | None:
        """Digest-compare against a healthy peer, re-attaching to its
        state on a match; ``None`` if no peer."""
        peer = next(
            (candidate for candidate in group.replicas
             if candidate is not replica and candidate.healthy
             and not candidate.crashed),
            None,
        )
        if peer is None:
            # Single-replica shard (or every peer down): convergence is
            # asserted structurally — the replica reached the log head.
            return None
        if content_digest(peer) != report.digest:
            self._emit("recovery.diverged", shard=group.shard_id,
                       replica=replica.replica_id,
                       peer=peer.replica_id)
            self.telemetry.metrics.counter(
                "durability_recovery_divergence_total").inc()
            raise DurabilityError(
                f"{replica.replica_id} diverged from peer "
                f"{peer.replica_id} after replay; kept out of rotation"
            )
        replica.state = peer.state
        return True
