"""Shared serving primitive: the circuit breaker.

It grew up inside :mod:`repro.core.runtime`; the gateway, the cluster,
and the runtime all use it, so it lives here now. The runtime re-exports
it under its historical name (``repro.core.runtime.CircuitBreaker``).

Everything is judged against :class:`repro.util.SimClock`. Like the
rest of the platform below the gateway, it has one caller at a time
(see ``docs/API.md``).
"""

from __future__ import annotations

from repro.telemetry import NULL_EVENTS

__all__ = ["CircuitBreaker"]


class CircuitBreaker:
    """Per-source circuit breaker for the supplemental fan-out.

    A source that keeps failing should stop being called on every
    query — each attempt costs latency the end user feels. After
    ``failure_threshold`` consecutive failures the circuit opens and
    calls are skipped (with a trace warning) until ``cooldown_ms`` of
    simulated time has passed; the next call then probes the source
    (half-open) and either closes the circuit or re-opens it.
    """

    def __init__(self, clock, failure_threshold: int = 3,
                 cooldown_ms: int = 60_000, events=NULL_EVENTS) -> None:
        if failure_threshold <= 0 or cooldown_ms <= 0:
            raise ValueError(
                "circuit breaker parameters must be positive"
            )
        self._clock = clock
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self._events = events
        self._consecutive_failures: dict[str, int] = {}
        self._opened_at_ms: dict[str, int] = {}
        self._half_open: set[str] = set()

    def _emit(self, kind: str, source_id: str, **fields) -> None:
        self._events.emit(kind, source=source_id, **fields)

    def is_open(self, source_id: str) -> bool:
        opened_at = self._opened_at_ms.get(source_id)
        if opened_at is None:
            return False
        if self._clock.now_ms - opened_at < self.cooldown_ms:
            return True
        # Half-open: admit exactly one probe; everyone else stays
        # blocked until the probe reports success or failure.
        if source_id in self._half_open:
            return True
        self._half_open.add(source_id)
        self._emit("circuit.half_open", source_id)
        return False

    def record_failure(self, source_id: str) -> None:
        probing = source_id in self._half_open
        self._half_open.discard(source_id)
        if probing:
            # Failed probe: re-open immediately with a fresh cooldown.
            self._consecutive_failures[source_id] = \
                self.failure_threshold
            self._opened_at_ms[source_id] = self._clock.now_ms
            self._emit("circuit.reopen", source_id)
            return
        count = self._consecutive_failures.get(source_id, 0) + 1
        self._consecutive_failures[source_id] = count
        if count >= self.failure_threshold:
            was_open = source_id in self._opened_at_ms
            self._opened_at_ms[source_id] = self._clock.now_ms
            if not was_open:
                self._emit("circuit.open", source_id,
                           failures=count)

    def record_success(self, source_id: str) -> None:
        was_tripped = (source_id in self._half_open
                       or source_id in self._opened_at_ms)
        self._half_open.discard(source_id)
        self._consecutive_failures.pop(source_id, None)
        self._opened_at_ms.pop(source_id, None)
        if was_tripped:
            self._emit("circuit.closed", source_id)
