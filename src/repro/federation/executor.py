"""Federation executor: scatter-gather with budgets and partial fusion.

The executor fans one query across selected backends, phrasing it per
backend through a query-generator strategy, bounding each call with a
slice of the query's :class:`~repro.resilience.Deadline`, and retrying
transient failures under the resilience layer's deterministic
:class:`~repro.resilience.Retrier`. A backend that fails or runs out of
budget is recorded in the ``degraded`` set and fusion proceeds over the
survivors — a federated query degrades, it does not throw. Only a
:class:`~repro.errors.ReproError` (every backend fault is one) degrades;
any other exception is a bug and propagates.

Telemetry: one ``federation`` span per query with a ``backend:<id>``
child span per fan-out leg, plus ``federation_*`` counters/histograms.
All of it rides the session's :class:`~repro.telemetry.Telemetry`
bundle, so the disabled default costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.federation.fusion import DEFAULT_RRF_K, fuse
from repro.federation.querygen import QueryGeneratorLab, get_generator
from repro.federation.registry import BackendRegistry, EngineBackend
from repro.resilience.deadline import Deadline
from repro.resilience.retry import Retrier, RetryPolicy
from repro.telemetry import Telemetry

__all__ = [
    "FederationPolicy",
    "BackendOutcome",
    "FederationResult",
    "FederationExecutor",
]


@dataclass(frozen=True)
class FederationPolicy:
    """Knobs for one executor (overridable per query)."""

    fusion: str = "rrf"
    rrf_k: int = DEFAULT_RRF_K
    #: Results requested from each backend before fusion.
    per_backend_count: int = 10
    query_strategy: str = "keyword"
    #: Fraction of the remaining query deadline one backend call may
    #: consume; the rest stays banked for the backends after it.
    per_backend_budget_frac: float = 0.5
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        max_attempts=2,
    ))


@dataclass(frozen=True)
class BackendOutcome:
    """What one fan-out leg did."""

    backend_id: str
    query: str              # the strategy-rewritten query actually sent
    ok: bool
    item_count: int = 0
    cost: float = 0.0
    error: str = ""


@dataclass(frozen=True)
class FederationResult:
    """Fused ranking plus the per-backend audit trail."""

    text: str
    items: tuple            # FusedItem, best first
    outcomes: tuple         # BackendOutcome per selected backend
    degraded: tuple         # backend ids that failed or ran out of budget
    fusion: str
    strategy: str
    total_cost: float
    total_matches: int


class FederationExecutor:
    """Scatter-gather across a :class:`BackendRegistry` with fusion."""

    def __init__(self, registry, clock=None, telemetry=None,
                 policy: FederationPolicy | None = None,
                 lab: QueryGeneratorLab | None = None) -> None:
        self.registry = registry
        self.clock = clock
        self.policy = policy or FederationPolicy()
        self.telemetry = telemetry or Telemetry.disabled()
        self.lab = lab
        self._retrier = (
            Retrier(
                clock, self.policy.retry,
                events=self.telemetry.events,
                metrics=self.telemetry.metrics,
            )
            if clock is not None else None
        )

    @classmethod
    def for_platform(cls, platform) -> "FederationExecutor":
        """An executor over ``platform``'s own engine (backend id
        ``"local"``), sharing its clock, telemetry and resilience retry
        policy, with a :class:`QueryGeneratorLab` ledger. The platform
        does not hold it: the caller registers further backends on
        ``registry`` and searches through the executor."""
        registry = BackendRegistry()
        registry.add(EngineBackend("local", platform.engine))
        resilience = platform.resilience
        return cls(
            registry,
            clock=platform.clock,
            telemetry=platform.telemetry,
            policy=(FederationPolicy(retry=resilience.retry)
                    if resilience is not None else None),
            lab=QueryGeneratorLab(),
        )

    def search(self, text: str, backend_ids=None, count: int = 10,
               deadline=None, context: dict | None = None,
               strategy: str = "", fusion: str = "") -> FederationResult:
        """Fan ``text`` out, fuse what survives, never raise per-backend."""
        policy = self.policy
        strategy = strategy or policy.query_strategy
        fusion = fusion or policy.fusion
        generator = get_generator(strategy)
        backends = self.registry.backends(backend_ids)
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics

        lists_by_backend: dict = {}
        outcomes = []
        degraded = []
        total_cost = 0.0
        with tracer.span("federation") as span:
            if span:
                span.set("strategy", strategy)
                span.set("fusion", fusion)
                span.set("backends", len(backends))
            for backend in backends:
                outcome = self._query_backend(
                    backend, text, generator, deadline, context,
                    policy, tracer, lists_by_backend,
                )
                outcomes.append(outcome)
                total_cost += outcome.cost
                if not outcome.ok:
                    degraded.append(backend.backend_id)
            fused = fuse(lists_by_backend, method=fusion,
                         rrf_k=policy.rrf_k)
            if span:
                span.set("degraded", len(degraded))
                span.set("fused", len(fused))

        if self.telemetry.enabled:
            metrics.counter("federation_queries_total").inc()
            metrics.histogram("federation_fanout").observe(len(backends))
            metrics.histogram("federation_fused_results").observe(
                len(fused)
            )
            metrics.histogram("federation_cost").observe(total_cost)
            if degraded:
                metrics.counter("federation_degraded_total").inc()

        return FederationResult(
            text=text,
            items=tuple(fused[:count]),
            outcomes=tuple(outcomes),
            degraded=tuple(degraded),
            fusion=fusion,
            strategy=strategy,
            total_cost=round(total_cost, 6),
            total_matches=len(fused),
        )

    def _query_backend(self, backend, text, generator, deadline,
                       context, policy, tracer,
                       lists_by_backend) -> BackendOutcome:
        backend_id = backend.backend_id
        descriptor = backend.descriptor
        rewritten = generator.generate(text, descriptor, context)
        with tracer.span(f"backend:{backend_id}") as span:
            if span:
                span.set("query", rewritten)
                span.set("cost", descriptor.cost_per_query)
            if deadline is not None and deadline.expired:
                if span:
                    span.set("skipped", "deadline")
                self._count_error(backend_id, "deadline")
                return BackendOutcome(backend_id, rewritten, ok=False,
                                      error="deadline exhausted")
            child = self._child_deadline(deadline, policy)
            fn = lambda: backend.search(
                text=rewritten, count=policy.per_backend_count,
                deadline=child,
            )
            try:
                if self._retrier is not None:
                    items = self._retrier.call(fn, key=backend_id,
                                               deadline=child)
                else:
                    items = fn()
            except ReproError as exc:  # degrade; anything else is a bug
                if span:
                    span.status = "error"
                    span.set("error", str(exc))
                self._count_error(backend_id, type(exc).__name__)
                if self.telemetry.enabled:
                    self.telemetry.events.emit(
                        "federation.backend_failed",
                        backend=backend_id, error=str(exc),
                    )
                return BackendOutcome(
                    backend_id, rewritten, ok=False,
                    cost=descriptor.cost_per_query, error=str(exc),
                )
            if self.lab is not None:
                self.lab.charge(generator.name,
                                descriptor.cost_per_query)
            if span:
                span.set("items", len(items))
            lists_by_backend[backend_id] = items
            return BackendOutcome(
                backend_id, rewritten, ok=True, item_count=len(items),
                cost=descriptor.cost_per_query,
            )

    def _child_deadline(self, deadline, policy):
        """Slice the query budget so one slow backend cannot eat it all."""
        if deadline is None:
            return None
        remaining = deadline.remaining_ms()
        if remaining <= 0:
            return deadline
        budget = max(1.0, remaining * policy.per_backend_budget_frac)
        return Deadline(deadline.clock, budget)

    def _count_error(self, backend_id: str, kind: str) -> None:
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "federation_backend_errors_total", backend=backend_id,
            ).inc()
