"""In-process service bus.

Services register under a name; callers invoke operations through the bus,
which charges simulated latency, injects faults per policy, and keeps
per-service call statistics. REST and SOAP bindings both sit on top of this
single dispatch point so "keep data in-house and reach it as a service"
(the paper's real-time freshness story) is one code path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    NotFoundError,
    ServiceError,
    TransportError,
)
from repro.util import SimClock, deterministic_rng

__all__ = ["ServiceDescriptor", "CallStats", "ServiceBus"]


@dataclass(frozen=True)
class ServiceDescriptor:
    """Registry metadata for one service."""

    name: str
    protocol: str          # "rest" | "soap"
    operations: tuple      # operation names
    description: str = ""


@dataclass
class CallStats:
    calls: int = 0
    failures: int = 0
    total_latency_ms: float = 0.0


class ServiceBus:
    """Routes invocations to registered services."""

    def __init__(self, clock: SimClock | None = None,
                 base_latency_ms: float = 18.0,
                 failure_probability: float = 0.0,
                 latency_spike_ms: float = 0.0,
                 latency_spike_probability: float = 0.0,
                 seed: object = 0) -> None:
        self.clock = clock or SimClock()
        self.base_latency_ms = base_latency_ms
        self.failure_probability = failure_probability
        self.latency_spike_ms = latency_spike_ms
        self.latency_spike_probability = latency_spike_probability
        self._seed = seed
        self._sequence = 0
        self._services: dict[str, object] = {}
        self._stats: dict[str, CallStats] = {}
        self._fault_profiles: dict[str, dict] = {}

    def set_fault_profile(self, name: str,
                          failure_probability: float | None = None,
                          latency_spike_ms: float | None = None,
                          latency_spike_probability: float | None = None
                          ) -> None:
        """Override the bus-wide fault knobs for one service.

        ``None`` keeps the bus default for that knob. The chaos harness
        uses this for per-source error rates and latency spikes.
        """
        self._fault_profiles[name] = {
            "failure_probability": failure_probability,
            "latency_spike_ms": latency_spike_ms,
            "latency_spike_probability": latency_spike_probability,
        }

    def _knob(self, name: str, knob: str) -> float:
        profile = self._fault_profiles.get(name)
        if profile is not None and profile[knob] is not None:
            return profile[knob]
        return getattr(self, knob)

    def register(self, service) -> ServiceDescriptor:
        descriptor = service.describe()
        self._services[descriptor.name] = service
        self._stats.setdefault(descriptor.name, CallStats())
        return descriptor

    def service(self, name: str):
        try:
            return self._services[name]
        except KeyError:
            raise NotFoundError(
                f"no service registered as {name!r}"
            ) from None

    def stats(self, name: str) -> CallStats:
        return self._stats.setdefault(name, CallStats())

    def invoke(self, name: str, operation: str, params: dict,
               deadline=None):
        """Dispatch ``operation`` on service ``name`` with fault injection.

        When a :class:`~repro.resilience.Deadline` is passed, the call
        is refused before dispatch if the budget already ran out, and
        abandoned (a client-side timeout — the handler never runs) if
        charging the transport latency exhausts it mid-flight.

        Transport-level failures raised by handlers are normalized to
        :class:`ServiceError`, so REST and SOAP callers see one uniform
        provider-failure class.
        """
        if deadline is not None:
            deadline.check(f"bus:{name}.{operation}")
        service = self.service(name)
        stats = self.stats(name)
        latency = self.base_latency_ms
        self._sequence += 1
        spike_probability = self._knob(name, "latency_spike_probability")
        if spike_probability:
            draw = deterministic_rng(
                (self._seed, "bus-latency", self._sequence)
            ).random()
            if draw < spike_probability:
                latency += self._knob(name, "latency_spike_ms")
        self.clock.advance(latency)
        stats.calls += 1
        stats.total_latency_ms += latency
        if deadline is not None and deadline.expired:
            stats.failures += 1
            deadline.check(f"bus:{name}.{operation}")
        failure_probability = self._knob(name, "failure_probability")
        if failure_probability:
            draw = deterministic_rng(
                (self._seed, "bus", self._sequence)
            ).random()
            if draw < failure_probability:
                stats.failures += 1
                raise ServiceError(
                    f"simulated outage calling {name}.{operation}"
                )
        try:
            return service.invoke(operation, params)
        except TransportError as exc:
            stats.failures += 1
            raise ServiceError(
                f"transport failure calling {name}.{operation}: {exc}"
            ) from exc
        except ServiceError:
            stats.failures += 1
            raise
