"""Query execution: Fig. 2 as code.

A customer query arrives from the embedded JavaScript shim, is processed by
the primary content source(s) (optionally rewritten using customer data),
fans out to supplemental sources driven by fields of each primary result,
merges with ads, renders to HTML per the configured layout, and returns to
the shim for injection into the host page. That sequence is an ordered
tuple of stage methods, each handed the query's one :class:`QueryContext`.
Every stage is timed into a :class:`PipelineTrace`, supplemental failures
are isolated into warnings, and a per-(source, query) cache with TTL
flattens repeat-query cost. The supplemental look-ups of a query are
known before the first is sent, so they go out as one planned call:
cache hits served, each engine vertical's misses in one ``search_many``.
"""

from __future__ import annotations

from contextlib import contextmanager
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
# ResultCache and CircuitBreaker grew up in this module; they now live
# with the serving tier but keep their historical import path
# (``repro.core.runtime.ResultCache`` etc.) through this re-export.
from repro.gateway.cache import ResultCache
from repro.gateway.primitives import CircuitBreaker
from repro.resilience import Deadline, Retrier
from repro.searchengine.logs import QueryEvent
from repro.telemetry import Telemetry, render_span_tree
from repro.util import SimClock

__all__ = [
    "QueryRequest",
    "StageTiming",
    "PipelineTrace",
    "PrimaryResultView",
    "ApplicationResponse",
    "QueryContext",
    "ResultCache",
    "CircuitBreaker",
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


@dataclass
class QueryContext:
    """The one record every stage of a query takes, created once by
    :meth:`SymphonyRuntime.handle_query`: first the query's constraints
    (on the gateway path ``deadline`` and ``queue_wait_ms`` are the
    gateway's own, never re-derived), then what earlier stages leave
    for later ones."""

    request: QueryRequest
    deadline: Deadline | None
    queue_wait_ms: float
    started_ms: int
    trace: PipelineTrace = field(default_factory=PipelineTrace)
    app: object = None           # resolved by the receive stage
    query_text: str = ""         # the primary query, after customer rewrite
    now_ms: int = 0              # ``now_ms`` of the source-facing context
    views: list = field(default_factory=list)
    ads: tuple = ()
    html: str = ""
    response: ApplicationResponse | None = None


class ApplicationRegistry:
    """Hosted applications by id (the paper's Hosting capability).

    Re-registering an id updates the deployed application in place and
    bumps its revision number.
    """

    def __init__(self) -> None:
        self._apps: dict[str, object] = {}
        self._revisions: dict[str, int] = {}

    def register(self, app) -> None:
        app.validate()
        previous = self._apps.get(app.app_id)
        if previous is not None and previous != app:
            self._revisions[app.app_id] = self.version(app.app_id) + 1
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
        return self._revisions.get(app_id, 1)

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
                 circuit_breaker: "CircuitBreaker | None" = None,
                 community_feedback=None,
                 telemetry: Telemetry | None = None,
                 resilience=None,
                 slo=None) -> None:
        #: Fig. 2 as data: every query runs these in order, each taking
        #: the query's :class:`QueryContext`.
        self._stages = (
            self._receive,
            self._customer_rewrite,
            self._primary,
            self._supplemental_per_result,
            self._ads,
            self._merge_render,
            self._respond,
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
        # reported to the engine.
        self._slo = slo
        # Identity, not truth: an empty cache has length 0.
        self.cache = cache if cache is not None else ResultCache()
        self.cache_enabled = cache_enabled
        self.telemetry.bind_result_cache(self.cache)
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

    def handle_query(self, request: QueryRequest, *, deadline=None,
                     queue_wait_ms: float = 0.0) -> ApplicationResponse:
        """Run ``request`` through the Fig. 2 stages. The keywords are
        the gateway's hand-off: the ``deadline`` it minted at submit
        (else the runtime mints its own here) and the queue wait it
        measured, which counts toward the latency the SLO layer judges."""
        ctx = QueryContext(request,
                           deadline or self._make_deadline(request),
                           queue_wait_ms, self.clock.now_ms)
        try:
            with self._tracer.span("query") as root:
                if root:
                    root.set("app_id", request.app_id)
                    root.set("query", request.query_text)
                    ctx.trace.span = root
                for stage in self._stages:
                    stage(ctx)
        except ReproError:
            # The query path raised (quota, unknown app, ...): still an
            # observed outcome for the tenant's availability budget.
            self._observe(ctx)
            raise
        self._observe(ctx)
        response = ctx.response
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

    def _observe(self, ctx: QueryContext) -> None:
        """Report the finished query — or, with no response, the failed
        one — to the SLO layer."""
        if self._slo is None:
            return
        response, now_ms = ctx.response, self.clock.now_ms
        self._slo.observe(
            tenant=ctx.request.app_id,
            latency_ms=now_ms - ctx.started_ms + ctx.queue_wait_ms,
            degraded=response is None or response.degraded,
            errored=response is None,
            completeness=(response.trace.completeness()
                          if response is not None else 0.0),
            trace_id=ctx.trace.span.trace_id if ctx.trace.span else "",
            start_ms=ctx.started_ms,
            end_ms=now_ms,
        )

    def _make_deadline(self, request: QueryRequest) -> Deadline | None:
        """The per-query budget: request override, else configured
        default, else none (deadlines are opt-in)."""
        budget = request.deadline_ms
        if not budget and self.resilience is not None:
            budget = self.resilience.deadline_ms
        if not budget or budget <= 0:
            return None
        return Deadline(self.clock, budget)

    def _note_deadline(self, ctx: QueryContext, detail: str) -> None:
        """Surface a deadline-driven degradation exactly once per event
        source: warning + degraded flag always, telemetry event and
        counter only for the first note of this query."""
        trace, deadline = ctx.trace, ctx.deadline
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

    @contextmanager
    def _stage(self, ctx: QueryContext, name: str):
        """The bookkeeping every stage shares: a ``stage:<name>`` span
        around the body and, once it closes, a :class:`StageTiming` row
        for the simulated time the body charged. The body calls the
        yielded ``note`` with that row's detail and the span's attrs."""
        start_ms = self.clock.now_ms
        detail = []
        with self._tracer.span(f"stage:{name}") as span:
            def note(text: str, **attrs) -> None:
                detail.append(text)
                for key, value in attrs.items():
                    span.set(key, value)
            yield note
        ctx.trace.add_stage(name, self.clock.now_ms - start_ms, *detail)

    def _source_context(self, ctx: QueryContext, search_fields=()) -> dict:
        """The ``SourceQuery.context`` of one source call."""
        context = {
            "app_id": ctx.app.app_id,
            "session_id": ctx.request.session_id,
            "now_ms": ctx.now_ms,
        }
        if ctx.deadline is not None:
            # Sources pick this up from the query context and propagate
            # it into scatter-gather / bus / auction calls.
            context["deadline"] = ctx.deadline
        if search_fields:
            context["search_fields"] = list(search_fields)
        return context

    # -- stages -----------------------------------------------------------------

    def _receive(self, ctx: QueryContext) -> None:
        """The JS shim forwards the query to Symphony."""
        request = ctx.request
        ctx.app = app = self._apps.get(request.app_id)
        ctx.query_text = request.query_text
        if ctx.trace.span and ctx.deadline is not None:
            # What is left now: gateway queueing is already charged.
            ctx.trace.span.set("deadline_budget_ms",
                               ctx.deadline.remaining_ms())
        with self._stage(ctx, "receive") as note:
            self.clock.advance(self._SHIM_FORWARD_MS)
            note(f"query {request.query_text!r} from app {app.app_id}")

    def _customer_rewrite(self, ctx: QueryContext) -> None:
        """Customer data alters the primary query, when attached."""
        bindings = ctx.app.bindings_by_role(SourceRole.CUSTOMER)
        if not bindings:
            return
        request = ctx.request
        query_text = request.query_text
        with self._stage(ctx, "customer-rewrite") as note:
            for binding in bindings:
                source = self._registry.get(binding.source_id)
                if isinstance(source, CustomerProfileSource):
                    query_text = source.rewrite(
                        query_text, request.customer_id or None
                    )
            self.clock.advance(0.5)
            rewritten = query_text != request.query_text
            note(f"rewritten to {query_text!r}" if rewritten
                 else "no profile match", rewritten=rewritten)
        ctx.query_text = query_text

    def _primary(self, ctx: QueryContext) -> None:
        """Primary content sources, one per top-level slot."""
        app = ctx.app
        page = max(0, ctx.request.page)
        ctx.now_ms = self.clock.now_ms
        with self._stage(ctx, "primary") as note:
            for slot in app.slots:
                binding = app.binding(slot.binding_id)
                if binding.role != SourceRole.PRIMARY:
                    continue
                items = list(self._query_source(
                    ctx, binding, ctx.query_text,
                    search_fields=binding.search_fields,
                    offset=page * binding.max_results,
                ).items)
                if self.community_feedback is not None:
                    items = self.community_feedback.rerank(
                        app.app_id, items
                    )
                ctx.views.extend(
                    PrimaryResultView(slot.binding_id, item, {})
                    for item in items
                )
            note(f"{len(ctx.views)} items", items=len(ctx.views))

    def _supplemental_per_result(self, ctx: QueryContext) -> None:
        """Supplemental fan-out driven by primary-result fields: one
        focused look-up per (primary result, supplemental binding), all
        of them one planned call, and the relaxed retries a second."""
        app, deadline, views = ctx.app, ctx.deadline, ctx.views
        with self._stage(ctx, "supplemental") as note:
            if views and deadline is not None and deadline.expired:
                # Out of budget: ship the primary results unenriched
                # instead of fanning out.
                self._note_deadline(
                    ctx,
                    f"supplemental fan-out stopped, "
                    f"{len(views)} views unenriched",
                )
                note("0 focused queries", mode="per_result", queries=0)
                return
            # (view, child binding id, binding, index of its look-up or
            # None when its drive fields are empty), in slot order.
            plan, lookups, items = [], [], []
            for view in views:
                for child in app.slot(view.slot_binding_id).children:
                    child_binding = app.binding(child.binding_id)
                    derived = child_binding.derive_query(view.item)
                    if not derived:
                        ctx.trace.warnings.append(
                            f"binding {child.binding_id}: drive fields "
                            f"{child_binding.drive_fields} empty on item "
                            f"{view.item.item_id!r}"
                        )
                        plan.append((view, child.binding_id,
                                     child_binding, None))
                        continue
                    plan.append((view, child.binding_id, child_binding,
                                 len(lookups)))
                    lookups.append((child_binding, derived))
                    items.append(view.item)
            results = self._query_sources(ctx, lookups)
            # Focused queries too narrow: retry on drive values only.
            retries = [i for i, (binding, __) in enumerate(lookups)
                       if not results[i].items and binding.query_suffix]
            if retries:
                relaxed = self._query_sources(ctx, [
                    (lookups[i][0], lookups[i][0].derive_query(
                        items[i], with_suffix=False))
                    for i in retries
                ])
                for i, result in zip(retries, relaxed):
                    results[i] = result
            for view, binding_id, binding, index in plan:
                view.supplemental[binding_id] = (
                    SourceResult.empty(binding.source_id) if index is None
                    else results[index])
            queries = len(lookups) + len(retries)
            note(f"{queries} focused queries", mode="per_result",
                 queries=queries)

    def _ads(self, ctx: QueryContext) -> None:
        """Ads, when the designer opted in (voluntary, per Table I)."""
        bindings = ctx.app.bindings_by_role(SourceRole.ADS)
        if not bindings:
            return
        if ctx.deadline is not None and ctx.deadline.expired:
            # Ads are best-effort: an overrun query ships its
            # organic results without waiting on monetization.
            self._note_deadline(ctx, "ads stage skipped")
            return
        ctx.now_ms = self.clock.now_ms
        with self._stage(ctx, "ads") as note:
            items: list = []
            for binding in bindings:
                items.extend(self._query_source(
                    ctx, binding, ctx.request.query_text,
                    cacheable=False,
                ).items)
            ctx.ads = tuple(items)
            note(f"{len(items)} ads", ads=len(items))

    def _merge_render(self, ctx: QueryContext) -> None:
        """Merge + format to HTML."""
        views, ads = ctx.views, ctx.ads
        with self._stage(ctx, "merge+render") as note:
            html = self._renderer.render_app(ctx.app, views, ads)
            self.clock.advance(1.0 + 0.02 * len(html) / 100.0)
            note(f"{len(views)} primary views, {len(ads)} ads, "
                 f"{len(html)} bytes",
                 views=len(views), ads=len(ads), bytes=len(html))
        ctx.html = html

    def _respond(self, ctx: QueryContext) -> None:
        """Respond to the shim, which injects into the page."""
        request, trace, deadline = ctx.request, ctx.trace, ctx.deadline
        with self._stage(ctx, "respond") as note:
            self.clock.advance(self._RESPOND_MS)
            note("HTML to JS shim")
        if self._log is not None:
            self._log.log_query(QueryEvent(
                timestamp_ms=self.clock.now_ms,
                query=request.query_text,
                vertical="app",
                app_id=ctx.app.app_id,
                session_id=request.session_id or None,
                result_urls=tuple(
                    view.item.url for view in ctx.views if view.item.url
                ),
            ))
        if (deadline is not None and deadline.expired
                and not deadline.reported):
            # The budget ran out after the last source call (e.g. during
            # render) — still surface the overrun in the metadata.
            self._note_deadline(ctx, "query overran budget")
        if trace.span and trace.degraded:
            trace.span.set("degraded", True)
        ctx.response = ApplicationResponse(
            app_id=ctx.app.app_id,
            query_text=request.query_text,
            html=ctx.html,
            views=tuple(ctx.views),
            ads=ctx.ads,
            trace=trace,
            degraded=trace.degraded,
        )

    # -- helpers ------------------------------------------------------------------

    def _query_source(self, ctx: QueryContext, binding, query_text,
                      search_fields=(), cacheable: bool = True,
                      offset: int = 0):
        """One look-up (a primary slot, the ads): a call of one, sent
        through the source's ``search``."""
        return self._query_sources(ctx, [(binding, query_text)],
                                   search_fields, cacheable, offset,
                                   planned=False)[0]

    def _query_sources(self, ctx: QueryContext, lookups, search_fields=(),
                       cacheable: bool = True, offset: int = 0,
                       planned: bool = True) -> list:
        """One :class:`SourceResult` per ``(binding, query_text)`` of
        ``lookups``, answered as one planned call: cache hits first,
        then the misses, those of sources sharing a ``batch_identity``
        (one engine vertical) sent together, then the repeats — a
        look-up already searched in this call reads the entry its first
        copy put, as a later look-up in a sequence would."""
        trace = ctx.trace
        cacheable = cacheable and self.cache_enabled
        search_fields = tuple(search_fields)
        results = [None] * len(lookups)
        # batch identity -> [(index, source, binding, query_text, key)]
        batches: dict = {}
        repeats, keys = [], set()
        for i, (binding, query_text) in enumerate(lookups):
            source = self._registry.get(binding.source_id)
            key = (source.cache_identity, query_text, binding.max_results,
                   offset, search_fields)
            if cacheable:
                if key in keys:
                    repeats.append(i)
                    continue
                keys.add(key)
                cached = self.cache.get(key, self.clock.now_ms)
                if cached is not None:
                    trace.record_cache(True)
                    trace.sources_ok += 1
                    if cached.source_id != binding.source_id:
                        # Stored by a source that searches alike.
                        cached = dataclass_replace(
                            cached, source_id=binding.source_id)
                    results[i] = cached
                    continue
                trace.record_cache(False)
            # A source without a batch identity is sent alone.
            identity = source.batch_identity
            batches.setdefault(i if identity is None else identity, []) \
                .append((i, source, binding, query_text, key))
        for batch in batches.values():
            self._send(ctx, batch, results, search_fields, cacheable,
                       offset, planned)
        if repeats:
            for i, result in zip(repeats, self._query_sources(
                    ctx, [lookups[i] for i in repeats], search_fields,
                    cacheable, offset, planned)):
                results[i] = result
        return results

    def _send(self, ctx: QueryContext, batch, results, search_fields,
              cacheable: bool, offset: int, planned: bool) -> None:
        """Send ``batch`` — ``(index, source, binding, query_text, cache
        key)`` misses whose sources share a batch identity — as one
        source call under one ``source`` span, and file each answer in
        ``results`` at its index: ``search_many`` when ``planned``, else
        the one look-up's ``search``. Each look-up keeps its own
        dispatch charge, breaker and cache bookkeeping; the deadline and
        the retrier see the call."""
        trace, deadline = ctx.trace, ctx.deadline
        with self._tracer.span("source") as span:
            span.set("source_id", batch[0][2].source_id)
            if len(batch) == 1:
                span.set("query", batch[0][3])
            else:
                span.set("lookups", len(batch))
            expired = deadline is not None and deadline.expired
            live = []
            for entry in batch:
                source_id = entry[2].source_id
                if expired:
                    skipped = "deadline"
                    self._note_deadline(ctx, f"source {source_id} skipped")
                elif self.circuit_breaker.is_open(source_id):
                    skipped = "circuit_open"
                    trace.degraded = True
                    trace.warnings.append(
                        f"source {source_id} skipped: circuit open after "
                        "repeated failures"
                    )
                else:
                    live.append(entry)
                    continue
                span.set("skipped", skipped)
                trace.sources_failed += 1
                results[entry[0]] = SourceResult.empty(source_id)
            if not live:
                return
            self.clock.advance(self._DISPATCH_MS * len(live))
            context = self._source_context(ctx, search_fields)
            pairs = [(source, SourceQuery(text=query_text,
                                          count=binding.max_results,
                                          offset=offset, context=context))
                     for __, source, binding, query_text, ___ in live]
            # Stamped before the source reads its data: a re-ingest
            # landing while it computes must leave the entry stale.
            stamps = [self.cache.stamp(source.generation_keys())
                      if cacheable else None for source, __ in pairs]
            source_ids = [entry[2].source_id for entry in live]
            head, query = pairs[0]
            if planned:
                def call():
                    return head.search_many(pairs)
            else:
                def call():
                    return [head.search(query)]
            try:
                if self._retrier is not None:
                    answers = self._retrier.call(
                        call,
                        key=(source_ids[0], query.text),
                        deadline=deadline,
                        on_error=self._attempt_failed(source_ids),
                    )
                else:
                    answers = call()
            except ReproError as exc:
                # Error isolation: a failing source must not take down
                # the app.
                if self._retrier is None:
                    # With a retrier, the per-attempt hook already
                    # recorded the breaker failures.
                    self._attempt_failed(source_ids)(exc, 1)
                for entry, source_id in zip(live, source_ids):
                    trace.degraded = True
                    if (isinstance(exc, DeadlineExceededError)
                            and deadline is not None):
                        self._note_deadline(
                            ctx,
                            f"source {source_id} abandoned mid-flight",
                        )
                    else:
                        trace.warnings.append(
                            f"source {source_id} failed: {exc}"
                        )
                    self._metrics.counter("source_failures_total").inc()
                    trace.sources_failed += 1
                    results[entry[0]] = SourceResult.empty(source_id)
                span.set("error", str(exc))
                return
            items = 0
            for entry, source_id, result in zip(live, source_ids, answers):
                self.circuit_breaker.record_success(source_id)
                trace.sources_ok += 1
                if result.degraded:
                    trace.degraded = True
                    trace.warnings.append(
                        f"source {source_id} returned degraded "
                        f"(partial) results"
                    )
                results[entry[0]] = result
                items += len(result.items)
            span.set("items", items)
        if cacheable:
            for entry, stamp, result in zip(live, stamps, answers):
                # Partial results must not satisfy repeat queries for a
                # whole TTL after the incident clears.
                if not result.degraded:
                    self.cache.put(entry[4], result, self.clock.now_ms,
                                   stamp)

    def _attempt_failed(self, source_ids):
        """Per-attempt failure hook: feed the circuit breaker of each
        source the call was for, except for deadline expiry — running
        out of *our* budget says nothing about the provider's health."""
        def hook(exc, attempt):
            if not isinstance(exc, DeadlineExceededError):
                for source_id in source_ids:
                    self.circuit_breaker.record_failure(source_id)
        return hook
