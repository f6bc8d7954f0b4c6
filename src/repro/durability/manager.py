"""The durability subsystem's front door.

:class:`DurabilityManager` ties the pieces together for one clustered
engine: it owns the per-shard :class:`~repro.durability.wal.WriteAheadLog`,
the :class:`~repro.durability.checkpoint.CheckpointStore`, and a
:class:`~repro.durability.repair.RecoveryManager`, and installs itself
as ``engine.durability`` so every mutation flowing through
``ClusteredSearchEngine.replicated_write`` is logged *before* it is
applied.

Attachment takes a **baseline checkpoint of every shard**: the initial
corpus is bulk-indexed before durability exists (it never hits the
WAL), so the baseline snapshot is what anchors recovery — restore =
baseline (or any newer checkpoint) + the WAL tail past its LSN.

The platform default is :data:`NULL_DURABILITY`, a null object that
keeps the write hot path free of logging work; pass
``Symphony(cluster=..., durability=True)`` (or a
:class:`DurabilityConfig`) to opt in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.durability.checkpoint import CheckpointStore, take_checkpoint
from repro.durability.repair import RecoveryManager, RecoveryReport
from repro.durability.wal import (
    BlobWalStorage,
    MemoryWalStorage,
    WalRecord,
    WriteAheadLog,
)
from repro.errors import ConfigurationError
from repro.telemetry import Telemetry
from repro.util import SimClock

__all__ = ["DurabilityConfig", "DurabilityManager", "NULL_DURABILITY"]


@dataclass(frozen=True)
class DurabilityConfig:
    """Tuning for :class:`DurabilityManager`.

    ``storage`` selects the WAL backend: ``"memory"`` (default),
    ``"blob"`` (JSON records in a fresh BlobStore), or a ready storage
    object implementing append/records/last_lsn/record_count.
    ``checkpoint_every`` is the auto-checkpoint cadence in WAL records
    per shard (0 disables automatic checkpoints — recovery then replays
    from the attach-time baseline).
    """

    storage: object = "memory"
    checkpoint_every: int = 64

    def build_storage(self):
        if self.storage == "memory":
            return MemoryWalStorage()
        if self.storage == "blob":
            return BlobWalStorage()
        if isinstance(self.storage, str):
            raise ConfigurationError(
                f"unknown WAL storage {self.storage!r}; "
                f"expected 'memory', 'blob', or a storage object"
            )
        return self.storage


class DurabilityManager:
    """WAL + checkpoints + repair for one clustered engine."""

    enabled = True

    def __init__(self, engine, config: DurabilityConfig | None = None,
                 clock: SimClock | None = None,
                 telemetry: Telemetry | None = None) -> None:
        self.engine = engine
        self.config = config or DurabilityConfig()
        self.clock = clock or getattr(engine, "clock", None) or SimClock()
        self.telemetry = telemetry or Telemetry.disabled()
        self.wal = WriteAheadLog(storage=self.config.build_storage(),
                                 clock=self.clock)
        self.checkpoints = CheckpointStore()
        self.recovery = RecoveryManager(
            engine, self.wal, self.checkpoints,
            clock=self.clock, telemetry=self.telemetry,
        )
        self._since_checkpoint: dict[int, int] = {}
        engine.durability = self
        # The initial corpus is bulk-indexed before durability attaches
        # and never hits the WAL — baseline checkpoints anchor recovery.
        for group in engine.groups:
            self.checkpoint_shard(group.shard_id)
        self.telemetry.metrics.gauge(
            "durability_recovery_lag_records", fn=self._max_lag
        )

    # -- write path (called by ClusteredSearchEngine.replicated_write) ------

    def append(self, shard_id: int, op: str, vertical,
               document=None, doc_id: str | None = None) -> WalRecord:
        record = self.wal.append(shard_id, op, vertical,
                                 document=document, doc_id=doc_id)
        self.telemetry.metrics.counter(
            "wal_appends_total", shard=str(shard_id)).inc()
        return record

    def after_write(self, shard_id: int) -> None:
        """Post-apply hook: advances the auto-checkpoint cadence."""
        every = self.config.checkpoint_every
        if every <= 0:
            return
        count = self._since_checkpoint.get(shard_id, 0) + 1
        if count >= every:
            self.checkpoint_shard(shard_id)
        else:
            self._since_checkpoint[shard_id] = count

    # -- checkpoints --------------------------------------------------------

    def checkpoint_shard(self, shard_id: int):
        """Snapshot the shard from its first intact replica."""
        donor = self._group(shard_id).primary()
        if donor.crashed:
            raise ConfigurationError(
                f"shard {shard_id} has no intact replica to checkpoint"
            )
        checkpoint = take_checkpoint(donor, clock=self.clock)
        self.checkpoints.put(checkpoint)
        self._since_checkpoint[shard_id] = 0
        self.telemetry.metrics.counter(
            "durability_checkpoints_total", shard=str(shard_id)).inc()
        self.telemetry.events.emit(
            "checkpoint.taken", shard=shard_id,
            applied_lsn=checkpoint.applied_lsn,
            docs=checkpoint.doc_count,
        )
        return checkpoint

    # -- crash & repair -----------------------------------------------------

    def crash_replica(self, shard_id: int, replica_index: int) -> None:
        """Crash-faithfully lose one replica (index state wiped)."""
        replica = self.replica(shard_id, replica_index)
        replica.crash()
        self.telemetry.metrics.counter(
            "durability_crashes_total", shard=str(shard_id)).inc()
        self.telemetry.events.emit(
            "replica.crashed", shard=shard_id,
            replica=replica.replica_id,
            wal_head=self.wal.last_lsn(shard_id),
        )

    def recover_replica(self, shard_id: int,
                        replica_index: int) -> RecoveryReport:
        self.replica(shard_id, replica_index)
        return self.recovery.recover(shard_id, replica_index)

    # -- addressing ---------------------------------------------------------

    def _group(self, shard_id: int):
        groups = self.engine.groups
        if shard_id not in range(len(groups)):
            raise ConfigurationError(f"the cluster has no shard {shard_id}")
        return groups[shard_id]

    def replica(self, shard_id: int, replica_index: int):
        """The replica ``shard_id`` and ``replica_index`` name.

        Both come from outside input (``cli durability``, a chaos plan),
        so one this cluster does not have raises
        :class:`ConfigurationError` rather than being read as a list
        index, where ``-1`` would name the last shard while the WAL is
        read for shard ``-1``.
        """
        replicas = self._group(shard_id).replicas
        if replica_index not in range(len(replicas)):
            raise ConfigurationError(
                f"shard {shard_id} has no replica {replica_index}"
            )
        return replicas[replica_index]

    # -- introspection ------------------------------------------------------

    def _max_lag(self) -> int:
        """Largest WAL tail any replica is behind (the gauge's value)."""
        worst = 0
        for group in self.engine.groups:
            head = self.wal.last_lsn(group.shard_id)
            for replica in group.replicas:
                worst = max(worst, head - replica.applied_lsn)
        return worst

    def status(self) -> dict:
        """Per-shard WAL/checkpoint/replica durability state."""
        shards = {}
        for group in self.engine.groups:
            shard_id = group.shard_id
            checkpoint = self.checkpoints.latest(shard_id)
            shards[shard_id] = {
                "wal_head": self.wal.last_lsn(shard_id),
                "wal_records": self.wal.record_count(shard_id),
                "checkpoint_lsn": (checkpoint.applied_lsn
                                   if checkpoint else None),
                "checkpoint_docs": (checkpoint.doc_count
                                    if checkpoint else 0),
                "replicas": [
                    {
                        "replica_id": replica.replica_id,
                        "healthy": replica.healthy,
                        "crashed": replica.crashed,
                        "recovering": replica.recovering,
                        "applied_lsn": replica.applied_lsn,
                        "writes_missed": replica.writes_missed,
                    }
                    for replica in group.replicas
                ],
            }
        return {"max_lag_records": self._max_lag(), "shards": shards}


class _NullDurability:
    """Disabled durability: the engine logs nothing, recovery is an
    explicit configuration error rather than a silent no-op."""

    enabled = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<durability disabled>"

    def _refuse(self, *args, **kwargs):
        raise ConfigurationError(
            "durability is not enabled; construct "
            "Symphony(cluster=..., durability=True)"
        )

    append = after_write = checkpoint_shard = _refuse
    crash_replica = recover_replica = _refuse

    def status(self) -> dict:
        return {"enabled": False}


NULL_DURABILITY = _NullDurability()
