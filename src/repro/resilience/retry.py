"""Deterministic retry with seeded jittered exponential backoff.

Backoff schedules derive from :func:`repro.util.deterministic_rng`, keyed
by ``(seed, key, attempt)`` — the same seed always yields bit-for-bit the
same schedule, and distinct keys (source ids, query texts) decorrelate so
concurrent callers don't retry in lockstep.  Backoff time is charged to
the :class:`~repro.util.SimClock`, never slept.

:class:`Retrier` composes with the existing circuit breaker through two
hooks rather than owning it: ``on_error`` fires once per failed attempt
(the runtime records a breaker failure there), and a retry is never
started once the query's :class:`~repro.resilience.Deadline` cannot
afford the backoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError, RetryExhaustedError, retryable
from repro.telemetry import NULL_EVENTS, NULL_METRICS

__all__ = ["RetryPolicy", "Retrier"]


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded jittered exponential backoff parameters."""

    max_attempts: int = 3
    base_backoff_ms: float = 50.0
    multiplier: float = 2.0
    max_backoff_ms: float = 2000.0
    jitter: float = 0.5          # backoff scaled by [1-jitter, 1+jitter]
    seed: int = 0

    def backoff_ms(self, key: object, attempt: int) -> float:
        """Backoff charged after failed ``attempt`` (1-based) of ``key``."""
        from repro.util import deterministic_rng

        raw = min(self.max_backoff_ms,
                  self.base_backoff_ms * self.multiplier ** (attempt - 1))
        if self.jitter <= 0:
            return raw
        rng = deterministic_rng((self.seed, "retry", key, attempt))
        scale = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return raw * scale


class Retrier:
    """Run callables under a :class:`RetryPolicy` against the sim clock."""

    def __init__(self, clock, policy: RetryPolicy | None = None,
                 events=NULL_EVENTS, metrics=NULL_METRICS) -> None:
        self.clock = clock
        self.policy = policy or RetryPolicy()
        self.events = events
        self.metrics = metrics

    def call(self, fn: Callable[[], object], key: object,
             deadline=None,
             classify: Callable[[BaseException], bool] = retryable,
             on_error: Callable[[BaseException, int], None] | None = None):
        """Invoke ``fn``, retrying retryable :class:`ReproError` failures.

        Raises the original error when it is not retryable, and
        :class:`RetryExhaustedError` (carrying the attempt count and last
        cause) when attempts or the deadline run out.
        """
        policy = self.policy
        attempt = 1
        while True:
            try:
                return fn()
            except ReproError as exc:
                if on_error is not None:
                    on_error(exc, attempt)
                if not classify(exc):
                    raise
                if attempt >= policy.max_attempts:
                    self.events.emit("retry.exhausted", key=str(key),
                                     attempts=attempt, error=str(exc))
                    self.metrics.counter("retry_exhausted_total").inc()
                    raise RetryExhaustedError(attempt, exc) from exc
                backoff = policy.backoff_ms(key, attempt)
                if deadline is not None \
                        and deadline.remaining_ms() <= backoff:
                    self.events.emit(
                        "retry.deadline_abort", key=str(key),
                        attempts=attempt, backoff_ms=backoff)
                    self.metrics.counter("retry_exhausted_total").inc()
                    raise RetryExhaustedError(attempt, exc) from exc
                self.events.emit(
                    "retry.backoff", key=str(key), attempt=attempt,
                    backoff_ms=backoff, error=str(exc))
                self.metrics.counter("retries_total").inc()
                self.clock.advance(backoff)
                attempt += 1
