"""The structured event log: discrete facts, not samples.

Where metrics aggregate and spans time, events record *that something
happened*: a circuit opened, the gateway shed a request, a replica
fell out of rotation, an ingest completed. Each event is a timestamped
kind plus a flat field dict, cheap enough to keep for a whole benchmark
run and structured enough to export as JSONL.

When built with a registry, the log also bumps an ``events_total{kind=}``
counter per emit, so dashboards get rates for free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.util import SimClock

__all__ = ["TelemetryEvent", "EventLog", "NullEventLog", "NULL_EVENTS"]


@dataclass(frozen=True)
class TelemetryEvent:
    timestamp_ms: int
    kind: str
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "timestamp_ms": self.timestamp_ms,
            "kind": self.kind,
            "fields": dict(self.fields),
        }


class EventLog:
    """Bounded event sink timed off the simulated clock."""

    enabled = True

    def __init__(self, clock: SimClock | None = None, metrics=None,
                 max_events: int = 50_000) -> None:
        self._clock = clock or SimClock()
        self._metrics = metrics
        self._events: deque = deque(maxlen=max_events)
        self._dropped = 0

    def emit(self, kind: str, **fields) -> TelemetryEvent:
        event = TelemetryEvent(self._clock.now_ms, kind, fields)
        # A full deque(maxlen=...) silently evicts its oldest entry on
        # append; count that so a saturated run is visibly lossy
        # instead of quietly truncated.
        wrapped = len(self._events) == self._events.maxlen
        if wrapped:
            self._dropped += 1
        self._events.append(event)
        if self._metrics is not None:
            self._metrics.counter("events_total", kind=kind).inc()
            if wrapped:
                self._metrics.counter("events_dropped_total").inc()
        return event

    @property
    def dropped(self) -> int:
        """Events evicted by the bounded deque since construction."""
        return self._dropped

    @property
    def events(self) -> list:
        return list(self._events)

    def by_kind(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self._events)


class NullEventLog:
    """No-op sink for uninstrumented deployments."""

    enabled = False
    events: tuple = ()
    dropped = 0

    def emit(self, kind: str, **fields) -> None:
        return None

    def by_kind(self, kind: str) -> tuple:
        return ()

    def __len__(self) -> int:
        return 0


NULL_EVENTS = NullEventLog()
