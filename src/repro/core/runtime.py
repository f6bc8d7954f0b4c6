"""Query execution: Fig. 2 as code.

A customer query arrives from the embedded JavaScript shim, is processed by
the primary content source(s) (optionally rewritten using customer data),
fans out to supplemental sources driven by fields of each primary result,
merges with ads, renders to HTML per the configured layout, and returns to
the shim for injection into the host page. Every stage is timed into a
:class:`PipelineTrace`, supplemental failures are isolated into warnings,
and a per-(source, query) cache with TTL flattens repeat-query cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclass_replace

from repro.core.application import SourceRole
from repro.core.datasources import (
    CustomerProfileSource,
    SourceQuery,
    SourceResult,
)
from repro.core.presentation import HtmlRenderer
from repro.errors import (
    DeadlineExceededError,
    NotFoundError,
    ReproError,
)
# ResultCache, CircuitBreaker, and RateLimiter grew up in this module;
# they now live with the serving tier but keep their historical import
# path (``repro.core.runtime.ResultCache`` etc.) through this re-export.
from repro.gateway.cache import ResultCache
from repro.gateway.primitives import CircuitBreaker, RateLimiter
from repro.resilience import Deadline, Retrier
from repro.searchengine.logs import QueryEvent
from repro.slo import NULL_SLO
from repro.telemetry import Telemetry, render_span_tree
from repro.util import SimClock

__all__ = [
    "QueryRequest",
    "StageTiming",
    "PipelineTrace",
    "PrimaryResultView",
    "ApplicationResponse",
    "ResultCache",
    "CircuitBreaker",
    "RateLimiter",
    "ApplicationRegistry",
    "SymphonyRuntime",
]


@dataclass(frozen=True)
class QueryRequest:
    """What the JS shim forwards to Symphony."""

    app_id: str
    query_text: str
    session_id: str = ""
    customer_id: str = ""
    page: int = 0
    #: Per-request deadline budget in simulated ms; 0 means "use the
    #: runtime's configured default" (or no deadline at all when the
    #: resilience layer is off).
    deadline_ms: float = 0.0


@dataclass(frozen=True)
class StageTiming:
    name: str
    elapsed_ms: float
    detail: str = ""


class PipelineTrace:
    """Per-stage timings and warnings for one executed query.

    With telemetry enabled this is a thin view over the query's span
    tree: ``span`` is the root :class:`~repro.telemetry.trace.Span`
    and ``describe(tree=True)`` renders the full hierarchy (stages,
    per-source calls, shard and replica attempts). Without telemetry
    it is exactly the flat stage list it always was.
    """

    __slots__ = ("stages", "warnings", "span", "cache_hits",
                 "cache_misses", "degraded", "sources_ok",
                 "sources_failed")

    def __init__(self, span=None) -> None:
        self.stages: list = []
        self.warnings: list = []
        self.span = span
        self.cache_hits = 0
        self.cache_misses = 0
        # True when this query served partial results: a source failed
        # or was skipped (circuit open, deadline expired), or a source
        # itself reported degraded results (cluster shard loss).
        self.degraded = False
        # Source-call outcomes: answered (live or cached) vs skipped or
        # failed. Their ratio is the query's result *completeness*,
        # which the SLO layer judges alongside latency and degradation.
        self.sources_ok = 0
        self.sources_failed = 0

    def completeness(self) -> float:
        """Answered fraction of attempted source calls (1.0 when none)."""
        attempted = self.sources_ok + self.sources_failed
        return self.sources_ok / attempted if attempted else 1.0

    def add_stage(self, name: str, elapsed_ms: float,
                  detail: str = "") -> None:
        self.stages.append(StageTiming(name, round(elapsed_ms, 3), detail))

    def record_cache(self, hit: bool) -> None:
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def stage(self, name: str) -> StageTiming:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise NotFoundError(f"no stage {name!r} in trace")

    def total_ms(self) -> float:
        return round(sum(s.elapsed_ms for s in self.stages), 3)

    def describe(self, tree: bool = False) -> str:
        if tree and self.span is not None:
            spans = self.span.tracer.trace_spans(self.span.trace_id)
            lines = ["Pipeline trace (span tree):"]
            lines.extend(
                f"  {line}"
                for line in render_span_tree(spans).splitlines()
            )
            for warning in self.warnings:
                lines.append(f"  warning: {warning}")
            return "\n".join(lines)
        lines = ["Pipeline trace:"]
        for stage in self.stages:
            detail = f"  ({stage.detail})" if stage.detail else ""
            lines.append(
                f"  {stage.name:<22} {stage.elapsed_ms:>9.3f} ms{detail}"
            )
        lines.append(f"  {'TOTAL':<22} {self.total_ms():>9.3f} ms")
        if self.degraded:
            lines.append("  DEGRADED: partial results")
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PrimaryResultView:
    """One primary item plus its per-binding supplemental results."""

    slot_binding_id: str
    item: object                      # SourceItem
    supplemental: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ApplicationResponse:
    """What goes back to the embedded JavaScript."""

    app_id: str
    query_text: str
    html: str
    views: tuple
    ads: tuple
    trace: PipelineTrace
    #: Mirrors ``trace.degraded`` — partial results were served.
    degraded: bool = False


class ApplicationRegistry:
    """Hosted applications by id (the paper's Hosting capability).

    Re-registering an id updates the deployed application in place and
    appends the previous definition to its version history, so a
    designer can inspect (or restore) earlier revisions.
    """

    def __init__(self) -> None:
        self._apps: dict[str, object] = {}
        self._history: dict[str, list] = {}

    def register(self, app) -> None:
        app.validate()
        previous = self._apps.get(app.app_id)
        if previous is not None and previous != app:
            self._history.setdefault(app.app_id, []).append(previous)
        self._apps[app.app_id] = app

    def get(self, app_id: str):
        try:
            return self._apps[app_id]
        except KeyError:
            raise NotFoundError(
                f"no application hosted under id {app_id!r}"
            ) from None

    def version(self, app_id: str) -> int:
        """1-based revision number of the current definition."""
        self.get(app_id)
        return len(self._history.get(app_id, ())) + 1

    def history(self, app_id: str) -> list:
        """Previous definitions, oldest first (excludes the current)."""
        self.get(app_id)
        return list(self._history.get(app_id, ()))

    def rollback(self, app_id: str):
        """Restore the previous revision; returns the now-current app."""
        revisions = self._history.get(app_id)
        if not revisions:
            raise NotFoundError(
                f"application {app_id!r} has no previous revision"
            )
        previous = revisions.pop()
        self._apps[app_id] = previous
        return previous

    def unregister(self, app_id: str) -> None:
        if app_id not in self._apps:
            raise NotFoundError(f"no application {app_id!r}")
        del self._apps[app_id]
        self._history.pop(app_id, None)

    def ids(self) -> list[str]:
        return sorted(self._apps)


class SymphonyRuntime:
    """Executes hosted applications (Fig. 2)."""

    _SHIM_FORWARD_MS = 8.0    # browser -> Symphony
    _RESPOND_MS = 6.0         # Symphony -> browser inject
    _DISPATCH_MS = 2.0        # runtime overhead per live source call

    def __init__(self, registry, apps: ApplicationRegistry,
                 renderer: HtmlRenderer | None = None,
                 clock: SimClock | None = None,
                 log=None,
                 cache: ResultCache | None = None,
                 cache_enabled: bool = True,
                 supplemental_mode: str = "per_result",
                 rate_limiter: "RateLimiter | None" = None,
                 circuit_breaker: "CircuitBreaker | None" = None,
                 community_feedback=None,
                 telemetry: Telemetry | None = None,
                 resilience=None,
                 slo=None) -> None:
        if supplemental_mode not in ("per_result", "batched"):
            raise ValueError(
                f"unknown supplemental mode {supplemental_mode!r}"
            )
        self._registry = registry
        self._apps = apps
        self._renderer = renderer or HtmlRenderer()
        self.clock = clock or SimClock()
        self._log = log
        self.telemetry = telemetry or Telemetry.disabled()
        self._tracer = self.telemetry.tracer
        self._metrics = self.telemetry.metrics
        # Opt-in SLO judgment (see repro.slo): every finished query is
        # reported to the engine; the null object keeps this one
        # attribute read on the unjudged path.
        self._slo = slo or NULL_SLO
        # Identity, not truth: an empty cache has length 0.
        self.cache = cache if cache is not None else ResultCache()
        self.cache_enabled = cache_enabled
        self.telemetry.bind_result_cache(self.cache)
        # DESIGN.md §6 ablation: derive one focused query per primary
        # result (the paper's flow) vs one disjunctive query per
        # supplemental binding, fanned back out to the results.
        self.supplemental_mode = supplemental_mode
        self.rate_limiter = rate_limiter
        self.circuit_breaker = circuit_breaker or CircuitBreaker(
            self.clock, events=self.telemetry.events,
        )
        # Social search (future work item 3): when attached, community
        # votes re-rank each application's primary results.
        self.community_feedback = community_feedback
        # Resilience (opt-in): per-query deadlines plus deterministic
        # retries around every live source call.
        self.resilience = resilience
        self._retrier: Retrier | None = None
        if resilience is not None:
            self._retrier = Retrier(
                self.clock, resilience.retry,
                events=self.telemetry.events, metrics=self._metrics,
            )

    # -- entry point ----------------------------------------------------------

    def handle_query(self, request: QueryRequest) -> ApplicationResponse:
        slo = self._slo
        queue_wait_ms = 0.0
        started_ms = 0
        trace_id = ""
        if slo.enabled:
            # On the gateway path the query span nests under the
            # gateway span, whose queue wait happened *before* it
            # opened — fold it into the tenant-visible latency.
            parent = self._tracer.current()
            if parent is not None \
                    and getattr(parent, "name", "") == "gateway":
                queue_wait_ms = float(
                    parent.attrs.get("queue_wait_ms", 0.0))
            started_ms = self.clock.now_ms
        try:
            with self._tracer.span("query") as root:
                if root:
                    root.set("app_id", request.app_id)
                    root.set("query", request.query_text)
                    trace_id = root.trace_id
                response = self._handle_query_traced(request,
                                                     root or None)
        except ReproError:
            # The query path raised (quota, unknown app, ...): still an
            # observed outcome for the tenant's availability budget.
            if slo.enabled:
                slo.observe(
                    tenant=request.app_id,
                    latency_ms=(self.clock.now_ms - started_ms
                                + queue_wait_ms),
                    degraded=True, errored=True, completeness=0.0,
                    trace_id=trace_id, start_ms=started_ms,
                    end_ms=self.clock.now_ms,
                )
            raise
        if slo.enabled:
            slo.observe(
                tenant=request.app_id,
                latency_ms=(self.clock.now_ms - started_ms
                            + queue_wait_ms),
                degraded=response.degraded,
                errored=False,
                completeness=response.trace.completeness(),
                trace_id=trace_id,
                start_ms=started_ms,
                end_ms=self.clock.now_ms,
            )
        if self._metrics.enabled:
            self._metrics.counter("queries_total").inc()
            for stage in response.trace.stages:
                self._metrics.histogram(
                    "stage_ms", stage=stage.name
                ).observe(stage.elapsed_ms)
            self._metrics.histogram("query_total_ms").observe(
                response.trace.total_ms()
            )
            if response.trace.warnings:
                self._metrics.counter("query_warnings_total").inc(
                    len(response.trace.warnings)
                )
            if response.degraded:
                self._metrics.counter(
                    "degraded_responses_total"
                ).inc()
        return response

    def _make_deadline(self, request: QueryRequest) -> Deadline | None:
        """The per-query budget: request override, else configured
        default, else none (deadlines are opt-in)."""
        budget = request.deadline_ms
        if not budget and self.resilience is not None:
            budget = self.resilience.deadline_ms
        if not budget or budget <= 0:
            return None
        return Deadline(self.clock, budget)

    def _note_deadline(self, trace, deadline, detail: str) -> None:
        """Surface a deadline-driven degradation exactly once per event
        source: warning + degraded flag always, telemetry event and
        counter only for the first note of this query."""
        trace.degraded = True
        trace.warnings.append(
            f"deadline exceeded "
            f"(overshoot {deadline.overshoot_ms():.0f}ms): {detail}"
        )
        if not deadline.reported:
            deadline.reported = True
            self.telemetry.events.emit(
                "deadline.exceeded",
                budget_ms=deadline.budget_ms,
                overshoot_ms=deadline.overshoot_ms(),
            )
            self._metrics.counter("deadline_exceeded_total").inc()

    def _handle_query_traced(self, request: QueryRequest,
                             root) -> ApplicationResponse:
        trace = PipelineTrace(span=root)
        app = self._apps.get(request.app_id)
        if self.rate_limiter is not None:
            self.rate_limiter.check(app.app_id)
        deadline = self._make_deadline(request)
        if root and deadline is not None:
            root.set("deadline_budget_ms", deadline.budget_ms)

        # Stage: JS shim forwards the query to Symphony.
        with self._tracer.span("stage:receive"):
            self.clock.advance(self._SHIM_FORWARD_MS)
        trace.add_stage("receive", self._SHIM_FORWARD_MS,
                        f"query {request.query_text!r} from "
                        f"app {app.app_id}")

        query_text = self._rewrite_with_customer_data(
            app, request, trace
        )

        views, ads = self._execute_sources(app, request, query_text,
                                           trace, deadline)

        # Stage: merge + format to HTML.
        start_ms = self.clock.now_ms
        with self._tracer.span("stage:merge+render") as sp:
            html = self._renderer.render_app(app, views, ads)
            self.clock.advance(1.0 + 0.02 * len(html) / 100.0)
            if sp:
                sp.set("views", len(views))
                sp.set("ads", len(ads))
                sp.set("bytes", len(html))
        trace.add_stage(
            "merge+render", self.clock.now_ms - start_ms,
            f"{len(views)} primary views, {len(ads)} ads, "
            f"{len(html)} bytes",
        )

        # Stage: respond to the shim, which injects into the page.
        with self._tracer.span("stage:respond"):
            self.clock.advance(self._RESPOND_MS)
        trace.add_stage("respond", self._RESPOND_MS, "HTML to JS shim")

        if self._log is not None:
            self._log.log_query(QueryEvent(
                timestamp_ms=self.clock.now_ms,
                query=request.query_text,
                vertical="app",
                app_id=app.app_id,
                session_id=request.session_id or None,
                result_urls=tuple(
                    view.item.url for view in views if view.item.url
                ),
            ))
        if (deadline is not None and deadline.expired
                and not deadline.reported):
            # The budget ran out after the last source call (e.g. during
            # render) — still surface the overrun in the metadata.
            self._note_deadline(trace, deadline, "query overran budget")
        if root and trace.degraded:
            root.set("degraded", True)
        return ApplicationResponse(
            app_id=app.app_id,
            query_text=request.query_text,
            html=html,
            views=tuple(views),
            ads=tuple(ads),
            trace=trace,
            degraded=trace.degraded,
        )

    # -- stages -----------------------------------------------------------------

    def _rewrite_with_customer_data(self, app, request,
                                    trace) -> str:
        query_text = request.query_text
        customer_bindings = app.bindings_by_role(SourceRole.CUSTOMER)
        if not customer_bindings:
            return query_text
        start = self.clock.now_ms
        with self._tracer.span("stage:customer-rewrite") as sp:
            for binding in customer_bindings:
                source = self._registry.get(binding.source_id)
                if isinstance(source, CustomerProfileSource):
                    query_text = source.rewrite(
                        query_text, request.customer_id or None
                    )
            self.clock.advance(0.5)
            if sp:
                sp.set("rewritten", query_text != request.query_text)
        trace.add_stage(
            "customer-rewrite", self.clock.now_ms - start,
            (f"rewritten to {query_text!r}"
             if query_text != request.query_text else "no profile match"),
        )
        return query_text

    def _execute_sources(self, app, request, query_text, trace,
                         deadline=None):
        views: list[PrimaryResultView] = []
        ads: tuple = ()
        context = {
            "app_id": app.app_id,
            "session_id": request.session_id,
            "now_ms": self.clock.now_ms,
        }
        if deadline is not None:
            # Sources pick this up from the query context and propagate
            # it into scatter-gather / bus / auction calls.
            context["deadline"] = deadline

        # Stage: primary content sources.
        primary_start = self.clock.now_ms
        primary_count = 0
        page = max(0, request.page)
        with self._tracer.span("stage:primary") as stage_span:
            for slot in app.slots:
                binding = app.binding(slot.binding_id)
                if binding.role == SourceRole.PRIMARY:
                    result = self._query_source(
                        binding, query_text, context, trace,
                        search_fields=binding.search_fields,
                        offset=page * binding.max_results,
                    )
                    items = list(result.items)
                    if self.community_feedback is not None:
                        items = self.community_feedback.rerank(
                            app.app_id, items
                        )
                    primary_count += len(items)
                    for item in items:
                        views.append(PrimaryResultView(
                            slot_binding_id=slot.binding_id,
                            item=item,
                            supplemental={},
                        ))
            if stage_span:
                stage_span.set("items", primary_count)
        trace.add_stage(
            "primary", self.clock.now_ms - primary_start,
            f"{primary_count} items",
        )

        # Stage: supplemental fan-out, driven by primary-result fields.
        supplemental_start = self.clock.now_ms
        if self.supplemental_mode == "batched":
            with self._tracer.span("stage:supplemental") as stage_span:
                views, supplemental_queries = self._supplemental_batched(
                    app, views, context, trace
                )
                if stage_span:
                    stage_span.set("mode", "batched")
                    stage_span.set("queries", supplemental_queries)
            trace.add_stage(
                "supplemental", self.clock.now_ms - supplemental_start,
                f"{supplemental_queries} batched queries",
            )
            return self._finish_sources(app, request, views, trace,
                                        deadline)
        supplemental_queries = 0
        enriched: list[PrimaryResultView] = []
        with self._tracer.span("stage:supplemental") as stage_span:
            for view_index, view in enumerate(views):
                if deadline is not None and deadline.expired:
                    # Out of budget: ship the remaining primary results
                    # unenriched instead of fanning out further.
                    self._note_deadline(
                        trace, deadline,
                        f"supplemental fan-out stopped, "
                        f"{len(views) - view_index} views unenriched",
                    )
                    enriched.extend(views[view_index:])
                    break
                slot = self._slot_by_binding(app, view.slot_binding_id)
                supplemental: dict[str, SourceResult] = {}
                for child in slot.children:
                    child_binding = app.binding(child.binding_id)
                    derived = self._derive_query(child_binding, view.item)
                    if not derived:
                        trace.warnings.append(
                            f"binding {child.binding_id}: drive fields "
                            f"{child_binding.drive_fields} empty on item "
                            f"{view.item.item_id!r}"
                        )
                        supplemental[child.binding_id] = \
                            SourceResult.empty(child_binding.source_id)
                        continue
                    supplemental_queries += 1
                    result = self._query_source(
                        child_binding, derived, context, trace,
                    )
                    if not result.items and child_binding.query_suffix:
                        # Focused query too narrow: retry on drive
                        # values only.
                        relaxed = self._derive_query(
                            child_binding, view.item, with_suffix=False
                        )
                        supplemental_queries += 1
                        result = self._query_source(
                            child_binding, relaxed, context, trace,
                        )
                    supplemental[child.binding_id] = result
                enriched.append(PrimaryResultView(
                    slot_binding_id=view.slot_binding_id,
                    item=view.item,
                    supplemental=supplemental,
                ))
            if stage_span:
                stage_span.set("mode", "per_result")
                stage_span.set("queries", supplemental_queries)
        views = enriched
        trace.add_stage(
            "supplemental", self.clock.now_ms - supplemental_start,
            f"{supplemental_queries} focused queries",
        )
        return self._finish_sources(app, request, views, trace, deadline)

    def _finish_sources(self, app, request, views, trace, deadline=None):
        """The ads stage (only when the designer opted in — monetization
        is voluntary, per Table I)."""
        context = {
            "app_id": app.app_id,
            "session_id": request.session_id,
            "now_ms": self.clock.now_ms,
        }
        if deadline is not None:
            context["deadline"] = deadline
        ads_start = self.clock.now_ms
        ad_bindings = app.bindings_by_role(SourceRole.ADS)
        ad_items: list = []
        if ad_bindings:
            if deadline is not None and deadline.expired:
                # Ads are best-effort: an overrun query ships its
                # organic results without waiting on monetization.
                self._note_deadline(trace, deadline, "ads stage skipped")
                return views, ()
            with self._tracer.span("stage:ads") as stage_span:
                for binding in ad_bindings:
                    result = self._query_source(
                        binding, request.query_text, context, trace,
                        cacheable=False,
                    )
                    ad_items.extend(result.items)
                if stage_span:
                    stage_span.set("ads", len(ad_items))
            trace.add_stage(
                "ads", self.clock.now_ms - ads_start,
                f"{len(ad_items)} ads",
            )
        return views, tuple(ad_items)

    def _supplemental_batched(self, app, views, context, trace):
        """One disjunctive query per supplemental binding.

        Saves queries when many primary results share a supplemental
        source, at the cost of a fan-back-out assignment step that can
        misattribute results — exactly the trade-off the ablation
        measures.
        """
        derived_by_view: dict[int, dict[str, str]] = {}
        batch: dict[str, list[tuple[int, str]]] = {}
        for i, view in enumerate(views):
            slot = self._slot_by_binding(app, view.slot_binding_id)
            derived_by_view[i] = {}
            for child in slot.children:
                child_binding = app.binding(child.binding_id)
                derived = self._derive_query(child_binding, view.item,
                                             with_suffix=False)
                if not derived:
                    continue
                derived_by_view[i][child.binding_id] = derived
                batch.setdefault(child.binding_id, []).append(
                    (i, derived)
                )

        deadline = context.get("deadline")
        queries_issued = 0
        results_by_binding: dict[str, object] = {}
        for binding_id, pairs in batch.items():
            if deadline is not None and deadline.expired:
                # Remaining bindings fan back out as empty results.
                self._note_deadline(
                    trace, deadline,
                    f"batched supplemental stopped, "
                    f"{len(batch) - len(results_by_binding)} bindings "
                    f"unqueried",
                )
                break
            child_binding = app.binding(binding_id)
            unique_terms = list(dict.fromkeys(q for __, q in pairs))
            disjunction = " OR ".join(f"({q})" for q in unique_terms)
            if child_binding.query_suffix:
                disjunction = (f"({disjunction}) "
                               f"{child_binding.query_suffix}")
            big_binding_count = child_binding.max_results * max(
                1, len(unique_terms)
            )
            request_binding = dataclass_replace(
                child_binding, max_results=big_binding_count
            )
            queries_issued += 1
            results_by_binding[binding_id] = self._query_source(
                request_binding, disjunction, context, trace,
            )

        enriched = []
        for i, view in enumerate(views):
            supplemental: dict[str, SourceResult] = {}
            for binding_id, derived in derived_by_view[i].items():
                child_binding = app.binding(binding_id)
                pooled = results_by_binding.get(binding_id)
                assigned = self._assign_batched(
                    pooled, derived, child_binding.max_results
                ) if pooled is not None else ()
                supplemental[binding_id] = SourceResult(
                    source_id=child_binding.source_id,
                    items=tuple(assigned),
                    total_matches=len(assigned),
                )
            enriched.append(PrimaryResultView(
                slot_binding_id=view.slot_binding_id,
                item=view.item,
                supplemental=supplemental,
            ))
        return enriched, queries_issued

    @staticmethod
    def _assign_batched(pooled, derived_query: str, max_results: int):
        """Fan pooled results back out to the view they belong to.

        A pooled item belongs to a view when the view's drive value
        (the quoted phrase of its derived query) appears in the item's
        title, snippet, or field values.
        """
        needle = derived_query.replace('"', "").strip().lower()
        assigned = []
        for item in pooled.items:
            haystack = " ".join(
                [item.title, item.snippet]
                + [str(v) for v in item.fields.values()]
            ).lower()
            if needle in haystack:
                assigned.append(item)
                if len(assigned) >= max_results:
                    break
        return assigned

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _slot_by_binding(app, binding_id: str):
        for slot in app.all_slots():
            if slot.binding_id == binding_id:
                return slot
        raise NotFoundError(f"no slot for binding {binding_id!r}")

    @staticmethod
    def _derive_query(binding, item, with_suffix: bool = True) -> str:
        """Build the supplemental query from the configured drive fields."""
        parts = []
        raw_values = []
        for field_name in binding.drive_fields:
            value = item.get(field_name)
            if value:
                raw_values.append(value)
                parts.append(f'"{value}"' if " " in value else value)
        if not parts:
            return ""
        if binding.query_strategy:
            # Lazy import: bindings without a strategy (the default)
            # never pay for loading the federation lab.
            from repro.federation.querygen import get_generator
            suffix_terms = tuple(binding.query_suffix.split()) \
                if with_suffix and binding.query_suffix else ()
            return get_generator(binding.query_strategy).generate(
                " ".join(raw_values),
                context={"entity": raw_values[0],
                         "context_terms": suffix_terms},
            )
        query = " ".join(parts)
        if with_suffix and binding.query_suffix:
            query = f"{query} {binding.query_suffix}"
        return query

    def _query_source(self, binding, query_text, context, trace,
                      search_fields=(), cacheable: bool = True,
                      offset: int = 0):
        source = self._registry.get(binding.source_id)
        query_context = dict(context)
        if search_fields:
            query_context["search_fields"] = list(search_fields)
        cache_key = (binding.source_id, query_text, binding.max_results,
                     offset)
        if self.cache_enabled and cacheable:
            cached = self.cache.get(cache_key, self.clock.now_ms)
            if cached is not None:
                trace.record_cache(True)
                trace.sources_ok += 1
                return cached
            trace.record_cache(False)
        deadline = context.get("deadline")
        with self._tracer.span("source") as span:
            if span:
                span.set("source_id", binding.source_id)
                span.set("query", query_text)
            if deadline is not None and deadline.expired:
                if span:
                    span.set("skipped", "deadline")
                self._note_deadline(
                    trace, deadline,
                    f"source {binding.source_id} skipped",
                )
                trace.sources_failed += 1
                return SourceResult.empty(binding.source_id)
            if self.circuit_breaker.is_open(binding.source_id):
                if span:
                    span.set("skipped", "circuit_open")
                trace.degraded = True
                trace.warnings.append(
                    f"source {binding.source_id} skipped: circuit open "
                    "after repeated failures"
                )
                trace.sources_failed += 1
                return SourceResult.empty(binding.source_id)
            self.clock.advance(self._DISPATCH_MS)
            source_query = SourceQuery(
                text=query_text,
                count=binding.max_results,
                offset=offset,
                context=query_context,
            )
            try:
                if self._retrier is not None:
                    result = self._retrier.call(
                        lambda: source.search(source_query),
                        key=(binding.source_id, query_text),
                        deadline=deadline,
                        on_error=self._attempt_failed(binding.source_id),
                    )
                else:
                    result = source.search(source_query)
            except ReproError as exc:
                # Error isolation: a failing source must not take down
                # the app.
                if self._retrier is None:
                    # With a retrier, the per-attempt hook already
                    # recorded the breaker failures.
                    self._attempt_failed(binding.source_id)(exc, 1)
                trace.degraded = True
                if (isinstance(exc, DeadlineExceededError)
                        and deadline is not None):
                    self._note_deadline(
                        trace, deadline,
                        f"source {binding.source_id} abandoned "
                        f"mid-flight",
                    )
                else:
                    trace.warnings.append(
                        f"source {binding.source_id} failed: {exc}"
                    )
                if span:
                    span.set("error", str(exc))
                self._metrics.counter("source_failures_total").inc()
                trace.sources_failed += 1
                return SourceResult.empty(binding.source_id)
            self.circuit_breaker.record_success(binding.source_id)
            trace.sources_ok += 1
            if result.degraded:
                trace.degraded = True
                trace.warnings.append(
                    f"source {binding.source_id} returned degraded "
                    f"(partial) results"
                )
            if span:
                span.set("items", len(result.items))
        if self.cache_enabled and cacheable and not result.degraded:
            # Partial results must not satisfy repeat queries for a
            # whole TTL after the incident clears.
            self.cache.put(cache_key, result, self.clock.now_ms,
                           source.generation_keys())
        return result

    def _attempt_failed(self, source_id: str):
        """Per-attempt failure hook: feed the circuit breaker, except
        for deadline expiry — running out of *our* budget says nothing
        about the provider's health."""
        def hook(exc, attempt):
            if not isinstance(exc, DeadlineExceededError):
                self.circuit_breaker.record_failure(source_id)
        return hook
