"""Tenant storage substrate.

The paper: "Symphony provides private and secure space to store and index
proprietary data belonging to the application designer." This package
implements that space: a multi-tenant catalog (:mod:`tenant`), typed record
tables with schema inference and versioned rows (:mod:`records`), a
blob store for raw uploads (:mod:`blobs`), and scoped access tokens
(:mod:`tokens`). Quotas bound each tenant's footprint.
"""

from repro.storage.blobs import Blob, BlobStore
from repro.storage.records import (
    FieldSpec,
    FieldType,
    Record,
    RecordTable,
    Schema,
    infer_schema,
)
from repro.storage.tenant import Quota, StorageCatalog, Tenant
from repro.storage.tokens import AccessToken, Scope, TokenAuthority

__all__ = [
    "Blob",
    "BlobStore",
    "FieldSpec",
    "FieldType",
    "Record",
    "RecordTable",
    "Schema",
    "infer_schema",
    "Quota",
    "StorageCatalog",
    "Tenant",
    "AccessToken",
    "Scope",
    "TokenAuthority",
]
