"""Simulated upload transports: HTTP file upload and an FTP drop folder.

The platform code downstream only sees an :class:`UploadPayload`; these
channels exist so the transport leg is a real, fault-injectable code path
(timeouts, resets, truncation) rather than an assumed success.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NotFoundError, TransportError
from repro.util import SimClock, deterministic_rng

__all__ = ["UploadPayload", "FaultPolicy", "HttpUploadChannel", "FtpServer"]


@dataclass(frozen=True)
class UploadPayload:
    """What a transport delivers to the ingestion pipeline."""

    filename: str
    data: bytes
    content_type: str
    received_ms: int
    transport: str


@dataclass
class FaultPolicy:
    """Deterministic fault injection for transports.

    ``fail_probability`` draws from a seeded RNG, so a given (seed,
    sequence) always fails the same operations — tests can assert on
    specific failures.
    """

    fail_probability: float = 0.0
    truncate_probability: float = 0.0
    seed: object = 0
    _sequence: int = field(default=0, repr=False)

    def _draw(self) -> float:
        self._sequence += 1
        return deterministic_rng((self.seed, self._sequence)).random()

    def apply(self, data: bytes, operation: str) -> bytes:
        if self.fail_probability and self._draw() < self.fail_probability:
            raise TransportError(
                f"simulated transport failure during {operation}"
            )
        if self.truncate_probability \
                and self._draw() < self.truncate_probability:
            return data[: max(1, len(data) // 2)]
        return data


class HttpUploadChannel:
    """A multipart-POST-shaped upload endpoint.

    Latency model: a per-request overhead plus bandwidth-proportional
    transfer time, charged to the simulated clock.
    """

    _OVERHEAD_MS = 20.0
    _BYTES_PER_MS = 128 * 1024 / 1000.0  # ~128 KB/s up

    def __init__(self, clock: SimClock | None = None,
                 faults: FaultPolicy | None = None) -> None:
        self.clock = clock or SimClock()
        self.faults = faults or FaultPolicy()

    def post_file(self, filename: str, data: bytes,
                  content_type: str = "text/plain") -> UploadPayload:
        if not data:
            raise TransportError("refusing empty HTTP upload")
        delivered = self.faults.apply(bytes(data), f"POST {filename}")
        self.clock.advance(
            self._OVERHEAD_MS + len(delivered) / self._BYTES_PER_MS
        )
        return UploadPayload(
            filename=filename,
            data=delivered,
            content_type=content_type,
            received_ms=self.clock.now_ms,
            transport="http",
        )


class FtpServer:
    """An FTP-like drop folder: put files, then collect them for ingestion."""

    _OVERHEAD_MS = 35.0
    _BYTES_PER_MS = 256 * 1024 / 1000.0

    def __init__(self, clock: SimClock | None = None,
                 faults: FaultPolicy | None = None) -> None:
        self.clock = clock or SimClock()
        self.faults = faults or FaultPolicy()
        self._files: dict[str, bytes] = {}

    def put(self, path: str, data: bytes) -> None:
        if not data:
            raise TransportError("refusing empty FTP upload")
        stored = self.faults.apply(bytes(data), f"STOR {path}")
        self.clock.advance(
            self._OVERHEAD_MS + len(stored) / self._BYTES_PER_MS
        )
        self._files[path] = stored

    def retrieve(self, path: str,
                 content_type: str = "text/plain") -> UploadPayload:
        if path not in self._files:
            raise NotFoundError(f"no file on FTP server at {path!r}")
        data = self.faults.apply(self._files[path], f"RETR {path}")
        self.clock.advance(
            self._OVERHEAD_MS + len(data) / self._BYTES_PER_MS
        )
        return UploadPayload(
            filename=path.rsplit("/", 1)[-1],
            data=data,
            content_type=content_type,
            received_ms=self.clock.now_ms,
            transport="ftp",
        )
