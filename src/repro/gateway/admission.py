"""Admission control: per-tenant token buckets and serving policies.

The gateway's first gate.  Each principal (hosted application) draws
from a deterministic token bucket refilled against the simulated clock;
a principal that has burned its burst and its refill rate is shed with
``reason="throttle"`` before it can occupy queue space.  Policies also
carry the principal's fair-queueing weight and queue bound, so one
:class:`TenantPolicy` describes everything the front door knows about a
tenant.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TenantPolicy", "TokenBucket", "AdmissionController"]


@dataclass(frozen=True)
class TenantPolicy:
    """Per-principal serving policy.

    ``rate_per_s == 0`` disables throttling for the principal (the
    fair queue and queue bound still apply).  ``burst`` defaults to one
    second's worth of tokens when left at 0.
    """

    #: Deficit-round-robin weight — 2.0 gets twice the service of 1.0.
    weight: float = 1.0
    #: Sustained admission rate, tokens (requests) per simulated second.
    rate_per_s: float = 0.0
    #: Bucket capacity; bounds how large a burst is admitted at once.
    burst: float = 0.0
    #: Maximum queued (not yet dispatched) requests for this principal.
    max_queue_depth: int = 64

    def effective_burst(self) -> float:
        if self.burst > 0:
            return self.burst
        return max(self.rate_per_s, 1.0)


class TokenBucket:
    """A token bucket refilled continuously against the sim clock."""

    __slots__ = ("_clock", "rate_per_s", "capacity", "_tokens",
                 "_refilled_ms")

    def __init__(self, clock, rate_per_s: float, capacity: float) -> None:
        if rate_per_s <= 0 or capacity <= 0:
            raise ValueError("token bucket parameters must be positive")
        self._clock = clock
        self.rate_per_s = rate_per_s
        self.capacity = capacity
        self._tokens = capacity
        self._refilled_ms = clock.now_ms

    def _refill(self) -> None:
        now = self._clock.now_ms
        elapsed_ms = now - self._refilled_ms
        if elapsed_ms > 0:
            self._tokens = min(
                self.capacity,
                self._tokens + elapsed_ms * self.rate_per_s / 1000.0,
            )
            self._refilled_ms = now

    def try_acquire(self, cost: float = 1.0) -> bool:
        self._refill()
        if self._tokens >= cost:
            self._tokens -= cost
            return True
        return False

    def available(self) -> float:
        self._refill()
        return self._tokens


class AdmissionController:
    """Per-principal token buckets, built lazily from policies."""

    def __init__(self, clock, default_policy: TenantPolicy,
                 policies=None) -> None:
        self._clock = clock
        self._default = default_policy
        self._policies = dict(policies or {})
        self._buckets: dict[str, TokenBucket] = {}

    def policy(self, principal: str) -> TenantPolicy:
        return self._policies.get(principal, self._default)

    def admit(self, principal: str, cost: float = 1.0) -> bool:
        """Charge one request against the principal's bucket."""
        policy = self.policy(principal)
        if policy.rate_per_s <= 0:
            return True
        bucket = self._buckets.get(principal)
        if bucket is None:
            bucket = TokenBucket(
                self._clock, policy.rate_per_s,
                policy.effective_burst(),
            )
            self._buckets[principal] = bucket
        return bucket.try_acquire(cost)
