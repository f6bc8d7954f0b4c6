"""Per-table quarantine store for contract-violating rows.

Rows that break a contract under the ``quarantine``/``coerce`` policies
are *not loaded* and *not lost*: the raw row plus its violation records
land here, inspectable (``repro contracts``) and replayable once the
producer fixes their feed or the designer relaxes the contract.
Capacity is bounded per table — oldest rows are evicted first and the
eviction is counted, because an unbounded buffer fed by a broken
producer is just a slower out-of-memory crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["QuarantinedRow", "QuarantineStore"]


@dataclass(frozen=True)
class QuarantinedRow:
    """One rejected raw row, with the reasons it was rejected."""

    seq: int
    row: dict
    violations: tuple
    quarantined_ms: int
    source: str = ""


@dataclass
class _TableQuarantine:
    """Bounded FIFO of quarantined rows for one table."""

    capacity: int
    rows: list = field(default_factory=list)
    next_seq: int = 1
    evicted: int = 0
    total: int = 0


class QuarantineStore:
    """Bounded per-(tenant, table) holding pen for violating rows."""

    def __init__(self, capacity: int = 1000) -> None:
        self.capacity = capacity
        self._tables: dict[tuple, _TableQuarantine] = {}

    def _bucket(self, tenant_id: str, table: str) -> _TableQuarantine:
        key = (tenant_id, table)
        if key not in self._tables:
            self._tables[key] = _TableQuarantine(self.capacity)
        return self._tables[key]

    def add(self, tenant_id: str, table: str, row: dict, violations,
            now_ms: int, source: str = "") -> QuarantinedRow:
        bucket = self._bucket(tenant_id, table)
        entry = QuarantinedRow(bucket.next_seq, dict(row),
                               tuple(violations), now_ms, source)
        bucket.next_seq += 1
        bucket.total += 1
        bucket.rows.append(entry)
        while len(bucket.rows) > bucket.capacity:
            bucket.rows.pop(0)
            bucket.evicted += 1
        return entry

    def rows(self, tenant_id: str, table: str) -> list:
        return list(self._bucket(tenant_id, table).rows)

    def depth(self, tenant_id: str, table: str) -> int:
        return len(self._bucket(tenant_id, table).rows)

    def evicted(self, tenant_id: str, table: str) -> int:
        return self._bucket(tenant_id, table).evicted

    def drain(self, tenant_id: str, table: str) -> list:
        """Remove and return every quarantined row for one table.

        Replay drains first so that rows which *still* violate the
        current contract re-enter quarantine exactly once — draining
        makes replay idempotent.
        """
        bucket = self._bucket(tenant_id, table)
        drained = bucket.rows
        bucket.rows = []
        return drained

    def tables(self, tenant_id: str | None = None) -> list:
        """(tenant_id, table) pairs with a non-empty quarantine."""
        return sorted(
            key for key, bucket in self._tables.items()
            if bucket.rows and (tenant_id is None or key[0] == tenant_id)
        )
