"""Shared serving primitives: circuit breaker and rate limiter.

These classes grew up inside :mod:`repro.core.runtime`; the gateway, the
cluster, and the runtime all use them, so they live here now.  The
runtime re-exports them under their historical names
(``repro.core.runtime.CircuitBreaker`` etc.) for backward compatibility.

Everything is judged against :class:`repro.util.SimClock`. Like the
rest of the platform below the gateway, these objects have one caller
at a time (see ``docs/API.md``).
"""

from __future__ import annotations

from collections import deque

from repro.errors import QuotaExceededError
from repro.telemetry import NULL_EVENTS

__all__ = ["CircuitBreaker", "RateLimiter"]


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

    def state(self, source_id: str) -> str:
        if source_id in self._half_open:
            return "half_open"
        if source_id in self._opened_at_ms:
            return "open"
        if self._consecutive_failures.get(source_id, 0) > 0:
            return "degraded"
        return "closed"


class RateLimiter:
    """Sliding-window per-application request limiter.

    Hosting shoulders every application's execution cost (§II-A
    Hosting), so a runaway embed must not starve the platform. Judged
    against the simulated clock; disabled unless attached to a runtime.
    """

    def __init__(self, clock, max_requests: int = 600,
                 window_ms: int = 60_000, events=NULL_EVENTS) -> None:
        if max_requests <= 0 or window_ms <= 0:
            raise ValueError("rate limit parameters must be positive")
        self._clock = clock
        self.max_requests = max_requests
        self.window_ms = window_ms
        self._sink = events
        # Timestamps are appended in clock order, so eviction is always
        # from the left: a deque makes that O(1) per expired event where
        # list.pop(0) was O(n) at exactly the traffic the limiter exists
        # to police.
        self._events: dict[str, deque] = {}

    def _evict(self, events: deque, horizon: int) -> None:
        while events and events[0] <= horizon:
            events.popleft()

    def check(self, app_id: str) -> None:
        """Record one request; raise when the app exceeds its window."""
        now = self._clock.now_ms
        horizon = now - self.window_ms
        events = self._events.setdefault(app_id, deque())
        self._evict(events, horizon)
        if len(events) >= self.max_requests:
            self._sink.emit(
                "ratelimit.rejected", app_id=app_id,
                limit=self.max_requests, window_ms=self.window_ms,
            )
            raise QuotaExceededError(
                f"application {app_id} exceeded "
                f"{self.max_requests} requests per "
                f"{self.window_ms} ms"
            )
        events.append(now)

    def remaining(self, app_id: str) -> int:
        events = self._events.get(app_id)
        if events is None:
            return self.max_requests
        self._evict(events, self._clock.now_ms - self.window_ms)
        return max(0, self.max_requests - len(events))
