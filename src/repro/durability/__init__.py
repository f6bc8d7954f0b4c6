"""repro.durability — WAL, checkpoint/restore, and catch-up repair.

Crash-faithful durability for the clustered engine: every mutation is
appended to a per-shard write-ahead log before it is applied, shard
checkpoints bound how much log a repair must replay, and a recovery
manager brings a crashed replica back — restore + idempotent replay +
digest verification against a healthy peer — before it may serve reads
again. The log and the checkpoints are the platform's one persistence
format: there is no separate export/import, and a future one would be a
checkpoint plus log replay. See ``docs/API.md`` for the walkthrough.
"""

from repro.durability.checkpoint import (
    Checkpoint,
    CheckpointStore,
    content_digest,
    restore_checkpoint,
    take_checkpoint,
)
from repro.durability.manager import (
    NULL_DURABILITY,
    DurabilityConfig,
    DurabilityManager,
)
from repro.durability.repair import RecoveryManager, RecoveryReport
from repro.durability.wal import (
    BlobWalStorage,
    MemoryWalStorage,
    WalRecord,
    WriteAheadLog,
    replay,
)

__all__ = [
    "WalRecord",
    "MemoryWalStorage",
    "BlobWalStorage",
    "WriteAheadLog",
    "replay",
    "Checkpoint",
    "CheckpointStore",
    "take_checkpoint",
    "restore_checkpoint",
    "content_digest",
    "RecoveryManager",
    "RecoveryReport",
    "DurabilityConfig",
    "DurabilityManager",
    "NULL_DURABILITY",
]
