"""Multi-tenant catalog: tenants own tables and blobs under a quota."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    DuplicateError,
    NotFoundError,
    QuotaExceededError,
)
from repro.storage.blobs import BlobStore
from repro.storage.records import RecordTable, Schema
from repro.storage.tokens import Scope, TokenAuthority
from repro.util import IdGenerator

__all__ = ["Quota", "Tenant", "StorageCatalog"]


@dataclass(frozen=True)
class Quota:
    """Per-tenant resource ceilings."""

    max_tables: int = 20
    max_records_per_table: int = 100_000
    max_blob_bytes: int = 64 * 1024 * 1024

    def check_tables(self, count: int) -> None:
        if count > self.max_tables:
            raise QuotaExceededError(
                f"tenant table quota exceeded ({count} > {self.max_tables})"
            )

    def check_records(self, count: int) -> None:
        if count > self.max_records_per_table:
            raise QuotaExceededError(
                f"table record quota exceeded "
                f"({count} > {self.max_records_per_table})"
            )

    def check_blob_bytes(self, total: int) -> None:
        if total > self.max_blob_bytes:
            raise QuotaExceededError(
                f"blob quota exceeded ({total} > {self.max_blob_bytes})"
            )


class Tenant:
    """One designer's private space: tables + blobs + quota."""

    def __init__(self, tenant_id: str, display_name: str,
                 quota: Quota | None = None) -> None:
        self.tenant_id = tenant_id
        self.display_name = display_name
        self.quota = quota or Quota()
        self.blobs = BlobStore()
        self._tables: dict[str, RecordTable] = {}

    def create_table(self, name: str, schema: Schema,
                     indexed_fields: tuple = ()) -> RecordTable:
        if name in self._tables:
            raise DuplicateError(
                f"tenant {self.tenant_id} already has table {name!r}"
            )
        self.quota.check_tables(len(self._tables) + 1)
        table = RecordTable(name, schema, indexed_fields)
        self._tables[name] = table
        return table

    def table(self, name: str) -> RecordTable:
        try:
            return self._tables[name]
        except KeyError:
            raise NotFoundError(
                f"tenant {self.tenant_id} has no table {name!r}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def insert_rows(self, table_name: str, rows,
                    validated: bool = False) -> int:
        """Bulk insert with quota enforcement; returns the inserted count.

        ``validated`` marks rows already coerced to the table's schema
        (a contract enforcer's output), skipping re-coercion per row.
        """
        table = self.table(table_name)
        insert = table.insert_validated if validated else table.insert
        inserted = 0
        count = len(table)
        limit = self.quota.max_records_per_table
        for row in rows:
            if count >= limit:
                # Partial inserts up to the quota are kept; this raises
                # with the canonical quota message.
                self.quota.check_records(count + 1)
            insert(row)
            inserted += 1
            count += 1
        return inserted

    def put_blob(self, key: str, data: bytes, content_type: str,
                 created_ms: int = 0):
        self.quota.check_blob_bytes(self.blobs.total_bytes() + len(data))
        return self.blobs.put(key, data, content_type, created_ms)


class StorageCatalog:
    """The platform-wide registry of tenants, guarded by tokens."""

    def __init__(self, authority: TokenAuthority | None = None,
                 ids: IdGenerator | None = None) -> None:
        self._ids = ids or IdGenerator()
        self.authority = authority or TokenAuthority(self._ids)
        self._tenants: dict[str, Tenant] = {}

    def create_tenant(self, display_name: str,
                      quota: Quota | None = None) -> Tenant:
        tenant_id = self._ids.next_id("tenant")
        tenant = Tenant(tenant_id, display_name, quota)
        self._tenants[tenant_id] = tenant
        return tenant

    def tenant(self, tenant_id: str) -> Tenant:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise NotFoundError(f"no tenant {tenant_id!r}") from None

    def open(self, token_value: str, tenant_id: str,
             scope: Scope = Scope.READ, now_ms: int = 0) -> Tenant:
        """Resolve ``tenant_id`` after authorizing the caller's token."""
        self.authority.authorize(token_value, tenant_id, scope,
                                 now_ms=now_ms)
        return self.tenant(tenant_id)
