"""Blob storage for raw uploads.

Raw payloads (the bytes of a delimited file, an XML document, a crawled
page) are retained alongside the parsed tables so refreshes can detect
unchanged content cheaply via content hashes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import NotFoundError

__all__ = ["Blob", "BlobStore"]


@dataclass(frozen=True)
class Blob:
    key: str
    data: bytes
    content_type: str
    created_ms: int

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.data).hexdigest()

    @property
    def size(self) -> int:
        return len(self.data)


class BlobStore:
    """A flat keyed store of immutable blobs; put-overwrite semantics."""

    def __init__(self) -> None:
        self._blobs: dict[str, Blob] = {}

    def put(self, key: str, data: bytes,
            content_type: str = "application/octet-stream",
            created_ms: int = 0) -> Blob:
        blob = Blob(key, bytes(data), content_type, created_ms)
        self._blobs[key] = blob
        return blob

    def get(self, key: str) -> Blob:
        try:
            return self._blobs[key]
        except KeyError:
            raise NotFoundError(f"no blob under key {key!r}") from None

    def exists(self, key: str) -> bool:
        return key in self._blobs

    def keys(self) -> list[str]:
        return sorted(self._blobs)

    def total_bytes(self) -> int:
        return sum(blob.size for blob in self._blobs.values())

    def unchanged(self, key: str, data: bytes) -> bool:
        """True when a blob exists under ``key`` with identical content."""
        if key not in self._blobs:
            return False
        return self._blobs[key].sha256 == hashlib.sha256(data).hexdigest()
