"""Per-shard write-ahead log: every cluster mutation, durably ordered.

Each shard of a :class:`~repro.cluster.engine.ClusteredSearchEngine`
owns one log. A mutation (add/remove — including resharding dual-writes
and handoff batches) is appended as a :class:`WalRecord` carrying a
per-shard **monotonic LSN** and a SimClock timestamp *before* it is
applied to any replica; replicas stamp the LSN as they apply, so the
gap between a replica's ``applied_lsn`` and the shard's ``last_lsn`` is
exactly the log tail it missed.

Two storage backends, pluggable via :class:`DurabilityConfig`:

* :class:`MemoryWalStorage` — records kept as live objects (document
  payloads survive by reference); the default.
* :class:`BlobWalStorage` — records JSON-encoded into a
  :class:`~repro.storage.blobs.BlobStore` under ``wal/shard-N/<lsn>``
  keys, proving the log round-trips through byte storage. Opaque
  document payloads do not serialize; restored documents carry their
  fields (which is all query materialization reads).

:func:`replay` applies a log tail to a replica **idempotently**: records
at or below the replica's ``applied_lsn`` are skipped, adds upsert, and
removes tolerate absence — so double-delivery after a crash (replay a
prefix, crash again, replay the whole tail) converges to the same state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.searchengine.documents import FieldedDocument
from repro.util import SimClock

__all__ = [
    "WalRecord",
    "MemoryWalStorage",
    "BlobWalStorage",
    "WriteAheadLog",
    "replay",
]


@dataclass(frozen=True)
class WalRecord:
    """One logged mutation of one shard."""

    lsn: int                    # per-shard, monotonic from 1
    at_ms: int                  # SimClock stamp at append time
    shard_id: int
    op: str                     # "add" | "remove"
    vertical: str
    doc_id: str
    fields: dict | None = None  # document fields (add only)
    payload: object = None      # opaque original (memory storage only)

    def to_dict(self) -> dict:
        """JSON-representable form; the opaque payload is dropped."""
        data = {
            "lsn": self.lsn,
            "at_ms": self.at_ms,
            "shard_id": self.shard_id,
            "op": self.op,
            "vertical": self.vertical,
            "doc_id": self.doc_id,
        }
        if self.fields is not None:
            data["fields"] = self.fields
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "WalRecord":
        return cls(
            lsn=int(data["lsn"]),
            at_ms=int(data["at_ms"]),
            shard_id=int(data["shard_id"]),
            op=str(data["op"]),
            vertical=str(data["vertical"]),
            doc_id=str(data["doc_id"]),
            fields=data.get("fields"),
        )

    def document(self) -> FieldedDocument:
        """Rebuild the indexable document this record carries."""
        return FieldedDocument(self.doc_id, dict(self.fields or {}),
                               self.payload)


class MemoryWalStorage:
    """Per-shard record lists kept in process memory."""

    def __init__(self) -> None:
        self._records: dict[int, list[WalRecord]] = {}

    def append(self, record: WalRecord) -> None:
        self._records.setdefault(record.shard_id, []).append(record)

    def records(self, shard_id: int, after_lsn: int = 0) -> list:
        return [record
                for record in self._records.get(shard_id, [])
                if record.lsn > after_lsn]

    def last_lsn(self, shard_id: int) -> int:
        records = self._records.get(shard_id)
        return records[-1].lsn if records else 0

    def record_count(self, shard_id: int) -> int:
        return len(self._records.get(shard_id, []))


class BlobWalStorage:
    """Records JSON-encoded into a :class:`BlobStore`, one blob each.

    Keys sort lexicographically by LSN (zero-padded), so the log reads
    back in append order straight off ``BlobStore.keys()``.
    """

    def __init__(self, blobs=None) -> None:
        from repro.storage.blobs import BlobStore
        self.blobs = blobs if blobs is not None else BlobStore()
        self._last_lsn: dict[int, int] = {}

    @staticmethod
    def _key(shard_id: int, lsn: int) -> str:
        return f"wal/shard-{shard_id}/{lsn:012d}"

    def _prefix(self, shard_id: int) -> str:
        return f"wal/shard-{shard_id}/"

    def append(self, record: WalRecord) -> None:
        payload = json.dumps(record.to_dict(), sort_keys=True)
        self.blobs.put(self._key(record.shard_id, record.lsn),
                       payload.encode("utf-8"),
                       content_type="application/json",
                       created_ms=record.at_ms)
        self._last_lsn[record.shard_id] = max(
            self._last_lsn.get(record.shard_id, 0), record.lsn
        )

    def _shard_keys(self, shard_id: int) -> list:
        prefix = self._prefix(shard_id)
        return [key for key in self.blobs.keys()
                if key.startswith(prefix)]

    def records(self, shard_id: int, after_lsn: int = 0) -> list:
        records = []
        for key in self._shard_keys(shard_id):
            record = WalRecord.from_dict(
                json.loads(self.blobs.get(key).data.decode("utf-8"))
            )
            if record.lsn > after_lsn:
                records.append(record)
        return records

    def last_lsn(self, shard_id: int) -> int:
        return self._last_lsn.get(shard_id, 0)

    def record_count(self, shard_id: int) -> int:
        return len(self._shard_keys(shard_id))


class WriteAheadLog:
    """All shard logs behind one facade, with LSN allocation.

    LSNs are allocated per shard, monotonically from 1, at append time;
    the record is stamped with the SimClock's current instant. Shards
    appear lazily — a split's new shard gets a fresh log on its first
    write.
    """

    def __init__(self, storage=None,
                 clock: SimClock | None = None) -> None:
        self.storage = storage if storage is not None \
            else MemoryWalStorage()
        self.clock = clock or SimClock()
        self._next_lsn: dict[int, int] = {}

    def append(self, shard_id: int, op: str, vertical,
               document=None, doc_id: str | None = None) -> WalRecord:
        """Log one mutation; returns the stamped record."""
        if op not in ("add", "remove"):
            raise ValueError(f"unknown WAL op {op!r}")
        lsn = self._next_lsn.get(
            shard_id, self.storage.last_lsn(shard_id) + 1
        )
        self._next_lsn[shard_id] = lsn + 1
        vertical_value = getattr(vertical, "value", str(vertical))
        if op == "add":
            record = WalRecord(
                lsn=lsn, at_ms=self.clock.now_ms, shard_id=shard_id,
                op=op, vertical=vertical_value,
                doc_id=document.doc_id,
                fields=dict(document.fields),
                payload=document.payload,
            )
        else:
            record = WalRecord(
                lsn=lsn, at_ms=self.clock.now_ms, shard_id=shard_id,
                op=op, vertical=vertical_value, doc_id=doc_id,
            )
        self.storage.append(record)
        return record

    def tail(self, shard_id: int, after_lsn: int = 0) -> list:
        return self.storage.records(shard_id, after_lsn=after_lsn)

    def last_lsn(self, shard_id: int) -> int:
        return max(self.storage.last_lsn(shard_id),
                   self._next_lsn.get(shard_id, 1) - 1)

    def record_count(self, shard_id: int) -> int:
        return self.storage.record_count(shard_id)


def replay(records, replica) -> int:
    """Apply a WAL tail to ``replica`` idempotently; returns applied
    count.

    Skips records at or below the replica's ``applied_lsn``, upserts on
    add, and tolerates absence on remove, so replaying overlapping tails
    (or the same tail twice) converges to the same index state.
    """
    applied = 0
    for record in sorted(records, key=lambda r: r.lsn):
        if record.lsn <= replica.applied_lsn:
            continue
        index = replica.vertical(record.vertical).index
        if record.op == "add":
            index.upsert(record.document())
        elif record.doc_id in index:
            index.remove(record.doc_id)
        replica.applied_lsn = record.lsn
        applied += 1
    return applied
