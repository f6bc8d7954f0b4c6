"""Shard checkpoints: index snapshots that bound WAL replay.

A :class:`Checkpoint` captures one shard's full per-vertical document
set as of an applied LSN, taken from any intact replica (all intact
replicas of a shard are write-identical — they apply the same broadcast
stream). Restoring a crashed replica is then *load snapshot + replay
the WAL tail past the snapshot's LSN*, so the work a recovery performs
is bounded by the checkpoint cadence, not the shard's lifetime write
count.

:func:`content_digest` produces the per-vertical digest the repair path
uses to prove convergence: a sha256 over the sorted document ids and
their canonical-JSON fields, computed over the *live* replicas at
recovery time (never on the checkpoint hot path — digesting a shard is
O(corpus) JSON work). Opaque payloads are excluded — they are not part
of the indexed state and (by design) do not round-trip through
byte-backed storage.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.util import SimClock

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "take_checkpoint",
    "restore_checkpoint",
    "content_digest",
]


def _canonical_fields(fields: dict) -> str:
    return json.dumps(fields, sort_keys=True, default=str)


@dataclass(frozen=True)
class Checkpoint:
    """One shard's index state at one applied LSN."""

    shard_id: int
    applied_lsn: int
    taken_at_ms: int
    # vertical value -> tuple of the filed FieldedDocuments, by doc_id.
    documents: dict = field(default_factory=dict)

    @property
    def doc_count(self) -> int:
        return sum(len(docs) for docs in self.documents.values())


class CheckpointStore:
    """Latest checkpoint per shard (older ones are superseded)."""

    def __init__(self) -> None:
        self._latest: dict[int, Checkpoint] = {}

    def put(self, checkpoint: Checkpoint) -> None:
        self._latest[checkpoint.shard_id] = checkpoint

    def latest(self, shard_id: int) -> Checkpoint | None:
        return self._latest.get(shard_id)


def take_checkpoint(replica, clock: SimClock | None = None) -> Checkpoint:
    """Snapshot ``replica``'s per-vertical state at its applied LSN.

    A tuple per vertical holds the filed documents themselves: they are
    frozen and never mutated (``upsert`` files a new object), so only
    the index's own dicts, which keep changing, must not be aliased. No
    digest is computed here: snapshots sit on the auto-checkpoint hot
    path, and the repair path digests the *live* replicas anyway.
    """
    documents: dict = {}
    for vertical, vindex in sorted(replica.verticals.items(),
                                   key=lambda kv: kv[0].value):
        index = vindex.index
        documents[vertical.value] = tuple(
            index.document(doc_id)
            for doc_id in sorted(index.all_doc_ids()))
    return Checkpoint(
        shard_id=replica.shard_id,
        applied_lsn=replica.applied_lsn,
        taken_at_ms=clock.now_ms if clock is not None else 0,
        documents=documents,
    )


def restore_checkpoint(replica, checkpoint: Checkpoint) -> int:
    """Load ``checkpoint`` into a wiped replica; returns docs loaded.

    The replica's indexes must be empty (a crash wipes them); loading
    upserts anyway so a re-restore after an interrupted recovery is
    harmless. The replica's ``applied_lsn`` jumps to the snapshot's.
    """
    loaded = 0
    for vertical_value, docs in checkpoint.documents.items():
        index = replica.vertical(vertical_value).index
        for doc in docs:
            index.upsert(doc)
            loaded += 1
    replica.applied_lsn = checkpoint.applied_lsn
    return loaded


def content_digest(replica) -> dict:
    """Per-vertical sha256 of ``replica``'s indexed content.

    Deterministic across replicas and restores: documents are folded in
    sorted id order with canonical-JSON fields. Two replicas of one
    shard agree on every digest iff they hold identical indexed state.
    """
    digests: dict = {}
    for vertical, vindex in sorted(replica.verticals.items(),
                                   key=lambda kv: kv[0].value):
        hasher = hashlib.sha256()
        for doc_id in sorted(vindex.index.all_doc_ids()):
            doc = vindex.index.document(doc_id)
            hasher.update(doc_id.encode("utf-8"))
            hasher.update(b"\x1f")
            hasher.update(_canonical_fields(doc.fields).encode("utf-8"))
            hasher.update(b"\x1e")
        digests[vertical.value] = hasher.hexdigest()
    return digests
