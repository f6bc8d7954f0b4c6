"""The serving front door: admission → fair queue → dispatch → cache.

:class:`Gateway` wraps the runtime's query path end to end for a hosted,
multi-tenant deployment:

1. **Admission** — per-application token buckets
   (:mod:`repro.gateway.admission`) and bounded per-tenant queues; a
   request whose projected queue wait would consume its deadline budget
   is shed *now* with :class:`~repro.errors.AdmissionRejectedError`
   instead of timing out deep inside the pipeline.
2. **Weighted fairness** — deficit round-robin over tenant queues
   (:mod:`repro.gateway.fairqueue`), so a hot application gets its
   weighted share and nothing more.
3. **Coalescing** — identical concurrent requests collapse onto one
   execution (:mod:`repro.gateway.coalesce`).
4. **Caching** — whole responses, stamped with data generations
   (:mod:`repro.gateway.cache`), so re-ingest invalidates immediately.

Dispatch runs in whichever thread asks for work (a synchronous
``query()`` drains the queue until its own ticket resolves; benchmarks
use ``pump()``), which keeps execution deterministic under
:class:`~repro.util.SimClock` while remaining safe under real threads.
Deadlines and telemetry trace context propagate across the queue
boundary: the deadline is minted at submit so queue wait burns budget
(the runtime is handed that same object, and the measured wait), and
each entry carries a ``contextvars`` snapshot from its submitter.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass, field

from repro.errors import AdmissionRejectedError, ReproError
from repro.gateway.admission import AdmissionController, TenantPolicy
from repro.gateway.cache import ResultCache, normalize_query
from repro.gateway.coalesce import FlightEntry, SingleFlightTable, Ticket
from repro.gateway.fairqueue import DeficitRoundRobinQueue
from repro.resilience import Deadline
from repro.telemetry import Telemetry

__all__ = ["GatewayConfig", "Gateway"]

# Values no deployment has needed to tune (all judged on the sim clock).
#: Queue-boundary overhead charged per dispatched request.
DISPATCH_MS = 0.5
#: Seed for the per-request service-time estimate, and the weight a new
#: observation gets in its moving average.
EXPECTED_SERVICE_MS = 40.0
SERVICE_EWMA_ALPHA = 0.2
#: Shed when projected wait exceeds this fraction of the budget.
SHED_HEADROOM = 0.9
#: Whole-response cache bounds.
CACHE_MAX_ENTRIES = 1024
CACHE_TTL_MS = 30_000


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs for the serving gateway (all judged on the sim clock)."""

    #: Modeled dispatch parallelism; scales the projected-wait estimate
    #: used for deadline-aware shedding (execution itself is serialized
    #: on the sim clock, so fairness and latency replay exactly).
    workers: int = 4
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    #: Per-application policy overrides, by app id.
    policies: dict = field(default_factory=dict)
    #: Keep whole responses in a generation-stamped cache.
    cache: bool = True


class Gateway:
    """Multi-tenant serving gateway in front of one runtime."""

    def __init__(self, runtime, apps, sources, clock,
                 generations, telemetry: Telemetry | None = None,
                 config: GatewayConfig | None = None,
                 default_deadline_ms: float = 0.0) -> None:
        self._runtime = runtime
        self._apps = apps
        self._sources = sources
        self._clock = clock
        self.config = config or GatewayConfig()
        if self.config.workers <= 0:
            raise ValueError("gateway worker count must be positive")
        self.telemetry = telemetry or Telemetry.disabled()
        self._tracer = self.telemetry.tracer
        self._metrics = self.telemetry.metrics
        self._events = self.telemetry.events
        self._default_deadline_ms = default_deadline_ms
        self.admission = AdmissionController(
            clock, self.config.default_policy, self.config.policies
        )
        self._queue = DeficitRoundRobinQueue(
            weight_of=lambda p: self.admission.policy(p).weight,
        )
        self._flights = SingleFlightTable()
        self.cache = (ResultCache(
            max_entries=CACHE_MAX_ENTRIES, ttl_ms=CACHE_TTL_MS,
            generations=generations,
        ) if self.config.cache else None)
        self._service_ms = EXPECTED_SERVICE_MS
        self._lock = threading.RLock()
        self._submitted = 0
        self._admitted = 0
        self._coalesced = 0
        self._dispatched = 0
        self._shed: dict[str, int] = {}
        self._completed: dict[str, int] = {}
        if self.telemetry.enabled:
            self._metrics.gauge("gateway_queue_depth",
                                fn=lambda: self._queue.depth())

    # -- submit ----------------------------------------------------------------

    def submit(self, request) -> Ticket:
        """Admit ``request``; returns a ticket (resolved instantly on a
        cache hit) or raises :class:`AdmissionRejectedError`."""
        app = self._apps.get(request.app_id)
        principal = app.app_id
        key = self._request_key(request)
        now = self._clock.now_ms
        budget_ms = request.deadline_ms or self._default_deadline_ms
        with self._lock:
            self._submitted += 1
            if self.cache is not None:
                cached = self.cache.get(key, now)
                if cached is not None:
                    self._metrics.counter("gateway_cache_hits_total").inc()
                    ticket = Ticket(key, principal, now)
                    ticket.resolve(cached)
                    return ticket
                self._metrics.counter("gateway_cache_misses_total").inc()
            entry = self._flights.lookup(key)
            if entry is not None:
                # Ride the in-flight execution; costs no queue slot
                # and no bucket token because it adds no work.
                ticket = Ticket(key, principal, now, coalesced=True)
                entry.attach(ticket)
                self._coalesced += 1
                self._metrics.counter("gateway_coalesced_total").inc()
                return ticket
            policy = self.admission.policy(principal)
            if not self.admission.admit(principal):
                raise self._shed_now(
                    "throttle", principal,
                    f"token bucket empty ({policy.rate_per_s:g}/s)",
                )
            if self._queue.depth(principal) >= policy.max_queue_depth:
                raise self._shed_now(
                    "queue_full", principal,
                    f"{policy.max_queue_depth} requests already queued",
                )
            projected = self._projected_wait_ms()
            if budget_ms > 0 and projected >= SHED_HEADROOM * budget_ms:
                raise self._shed_now(
                    "deadline", principal,
                    f"projected wait {projected:.0f}ms would consume "
                    f"the {budget_ms:.0f}ms budget",
                )
            deadline = (Deadline(self._clock, budget_ms)
                        if budget_ms > 0 else None)
            entry = FlightEntry(
                key, principal, request, deadline,
                contextvars.copy_context(), now,
            )
            ticket = Ticket(key, principal, now)
            entry.attach(ticket)
            self._queue.push(entry)
            self._flights.register(key, entry)
            self._admitted += 1
            self._metrics.counter("gateway_admitted_total").inc()
            return ticket

    def query(self, request):
        """Synchronous front-door query: submit, then dispatch (helping
        to drain whatever is queued ahead) until our ticket resolves."""
        ticket = self.submit(request)
        self._drain_for(ticket)
        return ticket.result()

    # -- dispatch --------------------------------------------------------------

    def pump(self, max_dispatches: int | None = None) -> int:
        """Dispatch queued requests in DRR order; returns how many ran."""
        dispatched = 0
        while max_dispatches is None or dispatched < max_dispatches:
            entry = self._next_entry()
            if entry is None:
                break
            self._execute(entry)
            dispatched += 1
        return dispatched

    def _drain_for(self, ticket: Ticket) -> None:
        while not ticket.done:
            entry = self._next_entry()
            if entry is None:
                # Our key is being executed by another thread.
                ticket.wait(timeout=0.05)
                continue
            self._execute(entry)

    def _next_entry(self):
        with self._lock:
            return self._queue.pop()

    def _execute(self, entry: FlightEntry) -> None:
        entry.context.run(self._execute_in_context, entry)

    def _execute_in_context(self, entry: FlightEntry) -> None:
        self._clock.advance(DISPATCH_MS)
        queue_wait_ms = self._clock.now_ms - entry.enqueued_ms
        self._metrics.histogram("gateway_queue_wait_ms").observe(
            queue_wait_ms
        )
        if entry.deadline is not None and entry.deadline.expired:
            # The budget died in the queue; shed instead of entering the
            # pipeline with nothing left to spend.
            error = AdmissionRejectedError(
                "deadline_lapsed",
                f"budget of {entry.deadline.budget_ms:.0f}ms consumed "
                f"by {queue_wait_ms:.0f}ms of queueing",
            )
            self._record_shed("deadline_lapsed", entry.principal,
                              str(error))
            self._finish(entry, error=error)
            return
        request = entry.request
        with self._tracer.span("gateway") as span:
            if span:
                span.set("principal", entry.principal)
                span.set("queue_wait_ms", queue_wait_ms)
                span.set("waiters", len(entry.tickets))
            started_ms = self._clock.now_ms
            try:
                # Stamped before the pipeline reads anything: a re-ingest
                # that lands mid-query must leave the response stale.
                stamp = (self.cache.stamp(
                    self._generation_keys(request.app_id))
                    if self.cache is not None else None)
                response = self._runtime.handle_query(
                    request, deadline=entry.deadline,
                    queue_wait_ms=queue_wait_ms,
                )
            except ReproError as exc:
                if span:
                    span.set("error", str(exc))
                self._finish(entry, error=exc)
                return
        service_ms = self._clock.now_ms - started_ms
        self._service_ms = ((1 - SERVICE_EWMA_ALPHA) * self._service_ms
                            + SERVICE_EWMA_ALPHA * service_ms)
        if self.cache is not None and not response.degraded:
            # Degraded responses must not satisfy repeat queries for a
            # whole TTL after the incident clears.
            self.cache.put(entry.key, response, self._clock.now_ms,
                           stamp)
        self._finish(entry, response=response)

    def _finish(self, entry: FlightEntry, response=None,
                error=None) -> None:
        with self._lock:
            # Snapshot + unregister under the admission lock so a
            # concurrent submit either attached before this point (and
            # resolves below) or misses the flight table entirely.
            self._flights.complete(entry.key)
            waiters = list(entry.tickets)
            self._dispatched += 1
            if error is None:
                self._completed[entry.principal] = \
                    self._completed.get(entry.principal, 0) + 1
        self._metrics.counter("gateway_dispatch_total").inc()
        if len(waiters) > 1:
            self._metrics.counter("gateway_fanout_total").inc(
                len(waiters) - 1
            )
        for ticket in waiters:
            if error is not None:
                ticket.fail(error)
            else:
                ticket.resolve(response)

    # -- internals -------------------------------------------------------------

    def _request_key(self, request):
        # The app version folds designer re-publishes into the key, so a
        # redeployed application never serves its predecessor's cache.
        return (
            request.app_id,
            self._apps.version(request.app_id),
            normalize_query(request.query_text),
            request.page,
            request.customer_id,
        )

    def _projected_wait_ms(self) -> float:
        """Expected queueing delay for a new arrival, from the live
        backlog and the EWMA of observed service time."""
        backlog = self._queue.depth()
        return DISPATCH_MS + backlog * self._service_ms / self.config.workers

    def _generation_keys(self, app_id: str) -> list:
        """The generation stamps a cached response for ``app_id``
        depends on: the union over every source bound to the app."""
        keys = set()
        for binding in self._apps.get(app_id).bindings:
            keys.update(
                self._sources.get(binding.source_id).generation_keys())
        return sorted(keys)

    def _shed_now(self, reason: str, principal: str,
                  detail: str) -> AdmissionRejectedError:
        self._record_shed(reason, principal, detail)
        return AdmissionRejectedError(reason, detail)

    def _record_shed(self, reason: str, principal: str,
                     detail: str) -> None:
        self._shed[reason] = self._shed.get(reason, 0) + 1
        self._metrics.counter("gateway_shed_total",
                              reason=reason).inc()
        self._events.emit("gateway.shed", reason=reason,
                          principal=principal, detail=detail)

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        """Lifetime gateway statistics (the ``repro gateway`` report)."""
        with self._lock:
            stats = {
                "submitted": self._submitted,
                "admitted": self._admitted,
                "coalesced": self._coalesced,
                "dispatched": self._dispatched,
                "shed": dict(sorted(self._shed.items())),
                "shed_total": sum(self._shed.values()),
                "queue_depth": self._queue.depth(),
                "queue_depths": self._queue.depths(),
                "completed": dict(sorted(self._completed.items())),
                "service_estimate_ms": round(self._service_ms, 3),
            }
        if self.cache is not None:
            stats["cache"] = self.cache.stats()
        return stats

    def describe(self) -> str:
        stats = self.stats()
        lines = ["Gateway:"]
        for label in ("submitted", "admitted", "coalesced",
                      "dispatched", "shed_total", "queue_depth"):
            lines.append(f"  {label:<22} {stats[label]}")
        for reason, count in stats["shed"].items():
            lines.append(f"  shed[{reason}]{'':<{max(0, 16 - len(reason))}} "
                         f"{count}")
        if "cache" in stats:
            cache = stats["cache"]
            lines.append(
                f"  cache                  {cache['hits']} hits / "
                f"{cache['misses']} misses "
                f"(ratio {cache['hit_ratio']:.2f}, "
                f"{cache['stale_invalidations']} generation-invalidated)"
            )
        for principal, count in stats["completed"].items():
            lines.append(f"  completed[{principal}] {count}")
        return "\n".join(lines)
