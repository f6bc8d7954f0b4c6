"""repro.gateway — the multi-tenant serving front door.

Symphony is a hosted platform: many designer applications share one
runtime, and end-user traffic arrives bursty and unbalanced (embeds on
hot pages, Facebook canvas spikes).  The gateway is the opt-in tier in
front of :class:`~repro.core.runtime.SymphonyRuntime` that makes shared
serving safe:

* :class:`~repro.gateway.admission.AdmissionController` — per-app token
  buckets plus queue bounds; overload is shed with a typed
  :class:`~repro.errors.AdmissionRejectedError` at the door.
* :class:`~repro.gateway.fairqueue.DeficitRoundRobinQueue` — weighted
  fair queueing so one hot tenant cannot starve the rest.
* :class:`~repro.gateway.coalesce.SingleFlightTable` — concurrent
  identical requests collapse onto one execution.
* :class:`~repro.gateway.cache.ResultCache` — the platform's one cache
  class (the runtime keeps per-source results in one instance, the
  gateway whole responses in another); entries are stamped with data
  generations (:class:`~repro.gateway.generations.GenerationRegistry`)
  and re-ingest bumps the generation, so stale hits are impossible.

Enable it with ``Symphony(gateway=True)`` (or a tuned
:class:`GatewayConfig`) and serve through
:meth:`Symphony.query_via_gateway`.

:mod:`repro.gateway.primitives` additionally hosts the serving
primitive :class:`CircuitBreaker` that
historically lived in ``core.runtime`` and are still re-exported there.
"""

from __future__ import annotations

from repro.gateway.admission import (
    AdmissionController,
    TenantPolicy,
    TokenBucket,
)
from repro.gateway.cache import ResultCache, normalize_query
from repro.gateway.coalesce import FlightEntry, SingleFlightTable, Ticket
from repro.gateway.fairqueue import DeficitRoundRobinQueue
from repro.gateway.gateway import Gateway, GatewayConfig
from repro.gateway.generations import GenerationRegistry, table_key
from repro.gateway.primitives import CircuitBreaker

__all__ = [
    "Gateway",
    "GatewayConfig",
    "TenantPolicy",
    "TokenBucket",
    "AdmissionController",
    "DeficitRoundRobinQueue",
    "SingleFlightTable",
    "FlightEntry",
    "Ticket",
    "normalize_query",
    "GenerationRegistry",
    "table_key",
    "ResultCache",
    "CircuitBreaker",
]
