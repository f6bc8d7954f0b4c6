"""The Symphony facade: everything §II describes, behind one object.

:class:`Symphony` wires the substrates together — synthetic web, search
engine, tenant storage, ingestion, service bus, ads — and exposes the
designer-facing workflow: register, upload proprietary data, create data
sources, design an application, host it, publish it, execute queries, and
pull monetization reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import ClusterConfig, build_clustered_engine
from repro.contracts import ContractManager
from repro.controlplane import (
    Autoscaler,
    AutoscalerPolicy,
    ShardLifecycleManager,
)
from repro.core.capability import CapabilityProfile
from repro.errors import ConfigurationError, ContractViolationError
from repro.core.datasources import (
    AdSource,
    CustomerProfileSource,
    ProprietaryTableSource,
    ServiceSource,
    SourceRegistry,
    WebSearchSource,
)
from repro.core.designer import Designer, DesignSession
from repro.core.distribution import (
    HostingRouter,
    Publisher,
    SocialPlatform,
)
from repro.core.monetization import (
    InteractionRecorder,
    ReferralReport,
    TrafficSummary,
)
from repro.core.presentation import HtmlRenderer, ThemeRegistry
from repro.core.runtime import (
    ApplicationRegistry,
    ApplicationResponse,
    QueryRequest,
    ResultCache,
    SymphonyRuntime,
)
from repro.durability import (
    NULL_DURABILITY,
    DurabilityConfig,
    DurabilityManager,
)
from repro.gateway import Gateway, GatewayConfig
from repro.gateway.generations import GenerationRegistry
from repro.ingest.crawler import Crawler, CrawlPolicy
from repro.ingest.pipeline import DatasetIngestor, IngestReport
from repro.ingest.refresh import RefreshScheduler
from repro.ingest.rss import FeedPublisher
from repro.ingest.transports import FtpServer, HttpUploadChannel
from repro.resilience import ResilienceConfig
from repro.searchengine.engine import build_engine
from repro.services.ads import AdService
from repro.services.bus import ServiceBus
from repro.simweb.generator import WebGenerator, WebSpec
from repro.sitesuggest import SiteCooccurrenceGraph, SiteSuggest
from repro.slo import SLOConfig, SLOEngine
from repro.storage.tenant import StorageCatalog, Tenant
from repro.storage.tokens import Scope
from repro.telemetry import Telemetry
from repro.util import IdGenerator, SimClock

__all__ = ["DesignerAccount", "Symphony"]


def _layer(value, default):
    """The one rule of a layer keyword: a falsy value is off (``None``),
    ``True`` is the layer's defaults (``default()``), and any other
    value is the layer's own config."""
    if not value:
        return None
    return default() if value is True else value


@dataclass(frozen=True)
class DesignerAccount:
    """A registered application designer: identity + private space."""

    designer_id: str
    display_name: str
    tenant: Tenant
    token: str


class Symphony:
    """The platform. One instance is one deployment.

    Constructing a Symphony builds (or accepts) a synthetic web, indexes it
    into the search-engine substrate, and stands up storage, services,
    ads, data contracts, designer tooling, runtime, distribution, and
    monetization.

    Each layer keyword follows one rule: a falsy value is off, ``True``
    is the layer's defaults, and a config object is that config
    (``cluster`` also takes a shard count). ``slo`` turns ``telemetry``
    on; ``controlplane`` and ``durability`` need a ``cluster``. A layer
    that is off is ``None`` (``durability`` is ``NULL_DURABILITY``).
    Every platform governs its uploads (:mod:`repro.contracts`), so
    ``contracts`` is accepted for older callers and ignored.
    """

    def __init__(self, web=None, web_spec: WebSpec | None = None,
                 clock: SimClock | None = None,
                 cache_enabled: bool = True,
                 use_authority: bool = True,
                 cluster=None,
                 telemetry: Telemetry | bool | None = None,
                 resilience=None,
                 gateway=None,
                 controlplane=None,
                 slo=None,
                 durability=None,
                 contracts=None) -> None:
        self.clock = clock or SimClock()
        # Every layer keyword follows _layer's one rule; cluster may also
        # be a shard count.
        telemetry = _layer(telemetry, lambda: Telemetry(clock=self.clock))
        resilience = _layer(resilience, ResilienceConfig)
        slo = _layer(slo, SLOConfig)
        cluster = _layer(cluster, ClusterConfig)
        if isinstance(cluster, int):
            cluster = ClusterConfig(num_shards=cluster)
        gateway = _layer(gateway, GatewayConfig)
        controlplane = _layer(controlplane, AutoscalerPolicy)
        durability = _layer(durability, DurabilityConfig)
        for name, layer in (("controlplane", controlplane),
                            ("durability", durability)):
            if layer and not cluster:
                raise ConfigurationError(
                    f"{name} requires a clustered engine; "
                    f"construct Symphony(cluster=..., {name}=True)"
                )
        # SLO judges what telemetry records, so it turns telemetry on.
        if slo and not (telemetry and telemetry.enabled):
            telemetry = Telemetry(clock=self.clock)
        self.telemetry = telemetry or Telemetry.disabled()
        # Resilience: per-query deadlines, deterministic retries, and
        # (with a cluster) hedged replica reads.
        self.resilience = resilience
        # SLO: error budgets, multi-window burn-rate alerting, a
        # tail-sampled flight recorder, per-query explain.
        self.slo = SLOEngine(self.telemetry, config=slo) if slo else None
        # Data contracts: governed ingest with typed validation, drift
        # detection, quarantine, and freshness SLAs.
        self.contracts = ContractManager(self.clock,
                                         telemetry=self.telemetry)
        if self.slo is not None:
            self.contracts.attach_slo(self.slo)
        # Data generations: ingest/refresh bump a table's generation,
        # an engine write its vertical's and reshard cutover the
        # topology's; the runtime's per-source cache and the gateway's
        # response cache both stamp entries with them and miss on the
        # next read after a bump.
        self.generations = GenerationRegistry(self.telemetry.events)
        self.web = web if web is not None else WebGenerator(
            web_spec or WebSpec()
        ).build()
        if cluster:
            # Horizontal scaling: the same search contract served by a
            # sharded, replicated cluster (see repro.cluster).
            self.engine = build_clustered_engine(
                self.web, config=cluster, clock=self.clock,
                use_authority=use_authority,
                telemetry=self.telemetry,
                hedge=(self.resilience.hedge
                       if self.resilience is not None else None),
                generations=self.generations,
            )
        else:
            self.engine = build_engine(
                self.web, clock=self.clock, use_authority=use_authority
            )
        self.ids = IdGenerator()
        self.catalog = StorageCatalog(ids=self.ids)
        self.bus = ServiceBus(clock=self.clock)
        self.ads = AdService(ids=self.ids)
        self.ads.attach_telemetry(self.telemetry)
        self.bus.register(self.ads)
        self.themes = ThemeRegistry()
        self.sources = SourceRegistry()
        self.apps = ApplicationRegistry()
        self.renderer = HtmlRenderer(self.themes)
        self.runtime = SymphonyRuntime(
            registry=self.sources,
            apps=self.apps,
            renderer=self.renderer,
            clock=self.clock,
            log=self.engine.log,
            cache=ResultCache(generations=self.generations),
            cache_enabled=cache_enabled,
            telemetry=self.telemetry,
            resilience=self.resilience,
            slo=self.slo,
        )
        self.publisher = Publisher()
        self.publisher.register_platform(SocialPlatform("facebook"))
        self.router = HostingRouter()
        self.recorder = InteractionRecorder(
            self.engine.log, self.clock, ad_service=self.ads
        )
        self.http_uploads = HttpUploadChannel(clock=self.clock)
        self.ftp = FtpServer(clock=self.clock)
        self.feeds = FeedPublisher(self.web)
        from repro.core.frontend import HostingFrontend
        self.frontend = HostingFrontend(self.router, self.runtime)
        # The platform-owned refresh calendar: feeds registered here
        # bump generations on change, emit refresh events, and keep
        # contracted tables' freshness SLAs judged every pass.
        self.refresh = RefreshScheduler(
            self.clock,
            generations=self.generations,
            telemetry=self.telemetry,
            contracts=self.contracts,
        )
        # Serving gateway: admission control, weighted fair queueing,
        # request coalescing, and a generation-stamped response cache.
        self.gateway = Gateway(
            runtime=self.runtime,
            apps=self.apps,
            sources=self.sources,
            clock=self.clock,
            generations=self.generations,
            telemetry=self.telemetry,
            config=gateway,
            default_deadline_ms=(
                self.resilience.deadline_ms
                if self.resilience is not None else 0.0
            ),
        ) if gateway else None
        # Control plane: online resharding and telemetry-driven
        # autoscaling over the clustered engine.
        self.controlplane = self.autoscaler = None
        if controlplane:
            self.controlplane = ShardLifecycleManager(
                self.engine,
                generations=self.generations,
                telemetry=self.telemetry,
            )
            self.autoscaler = Autoscaler(
                self.engine, self.controlplane,
                telemetry=self.telemetry, policy=controlplane,
                slo=self.slo,
            )
        # Durability: per-shard write-ahead log, checkpoints, and
        # crash/recovery for the clustered engine.
        self.durability = DurabilityManager(
            self.engine, config=durability, clock=self.clock,
            telemetry=self.telemetry,
        ) if durability else NULL_DURABILITY

    # -- accounts ------------------------------------------------------------

    def register_designer(self, display_name: str) -> DesignerAccount:
        tenant = self.catalog.create_tenant(display_name)
        token = self.catalog.authority.mint(
            tenant.tenant_id, scopes=(Scope.ADMIN,)
        )
        return DesignerAccount(
            designer_id=self.ids.next_id("designer"),
            display_name=display_name,
            tenant=tenant,
            token=token.value,
        )

    # -- proprietary data (§II-A Proprietary Data) ------------------------------

    def _authorized_tenant(self, account: DesignerAccount) -> Tenant:
        return self.catalog.open(
            account.token, account.tenant.tenant_id, Scope.WRITE
        )

    def _ingestor(self, tenant: Tenant) -> DatasetIngestor:
        return DatasetIngestor(
            tenant,
            telemetry=self.telemetry,
            generations=self.generations,
            contracts=self.contracts,
        )

    def upload_http(self, account: DesignerAccount, filename: str,
                    data: bytes, table_name: str,
                    content_type: str = "text/plain",
                    **ingest_options) -> IngestReport:
        tenant = self._authorized_tenant(account)
        payload = self.http_uploads.post_file(filename, data, content_type)
        return self._ingestor(tenant).ingest(
            payload, table_name, **ingest_options
        )

    def upload_ftp(self, account: DesignerAccount, path: str,
                   table_name: str, content_type: str = "text/plain",
                   **ingest_options) -> IngestReport:
        tenant = self._authorized_tenant(account)
        payload = self.ftp.retrieve(path, content_type)
        return self._ingestor(tenant).ingest(
            payload, table_name, **ingest_options
        )

    def ingest_rss_feed(self, account: DesignerAccount, domain: str,
                        table_name: str, **ingest_options) -> IngestReport:
        tenant = self._authorized_tenant(account)
        payload = self.http_uploads.post_file(
            f"{domain}.rss", self.feeds.feed_xml(domain),
            "application/rss+xml",
        )
        return self._ingestor(tenant).ingest(
            payload, table_name, **ingest_options
        )

    def crawl_into(self, account: DesignerAccount, seeds, table_name: str,
                   policy: CrawlPolicy | None = None) -> IngestReport:
        tenant = self._authorized_tenant(account)
        result = Crawler(self.web, clock=self.clock).crawl(seeds, policy)
        return self._ingestor(tenant).ingest_rows(
            result.rows(), table_name
        )

    # -- data contracts (repro.contracts) -----------------------------------------

    def register_contract(self, account: DesignerAccount, contract):
        """Declare the :class:`~repro.contracts.DataContract` governing
        one of this designer's tables; every later load is enforced
        against it.

        Re-declaring over an existing table may *add* columns (the
        table's schema evolves additively on the next load) but not
        retype ones already stored — that fails here, upfront, rather
        than mid-batch against the storage layer.
        """
        tenant = self._authorized_tenant(account)
        if tenant.has_table(contract.table):
            stored = tenant.table(contract.table).schema
            for spec in contract.schema().fields:
                if stored.has_field(spec.name) \
                        and stored.spec(spec.name).type is not spec.type:
                    raise ConfigurationError(
                        f"contract v{contract.version} retypes column "
                        f"{spec.name!r} of existing table "
                        f"{contract.table!r} "
                        f"({stored.spec(spec.name).type.value} -> "
                        f"{spec.type.value}); schema evolution is "
                        f"additive only"
                    )
        return self.contracts.register(tenant.tenant_id, contract)

    def contract_report(self, tenant_id: str | None = None) -> str:
        """Human-readable contract status (violations, drift,
        quarantine depth, freshness), optionally for one tenant."""
        return self.contracts.report(tenant_id)

    def contract_status(self, tenant_id: str | None = None) -> dict:
        """Structured contract status, optionally for one tenant."""
        return self.contracts.status(tenant_id)

    def replay_quarantine(self, account: DesignerAccount,
                          table_name: str) -> IngestReport | None:
        """Re-ingest a table's quarantined rows under its *current*
        contract (typically after the designer updated it).

        The quarantine is drained first, then rows flow through the
        normal enforced ingest path — rows that still violate land
        back in quarantine exactly once, making replay idempotent.
        Returns ``None`` when the quarantine was empty.
        """
        tenant = self._authorized_tenant(account)
        entries = self.contracts.drain_quarantine(
            tenant.tenant_id, table_name)
        if not entries:
            return None
        rows = [dict(entry.row) for entry in entries]
        try:
            report = self._ingestor(tenant).ingest_rows(
                rows, table_name)
        except ContractViolationError:
            # A reject-policy contract failed the whole batch: put the
            # drained rows back so nothing is lost.
            now = self.clock.now_ms
            for entry in entries:
                self.contracts.quarantine.add(
                    tenant.tenant_id, table_name, entry.row,
                    entry.violations, now, source="replay",
                )
            raise
        self.telemetry.events.emit(
            "contract.replay", tenant=tenant.tenant_id,
            table=table_name, replayed=len(rows),
            loaded=report.inserted + report.updated,
            requarantined=report.quarantined,
        )
        return report

    # -- data sources (§II-A Built-in Services / Data Integration) ----------------

    def add_proprietary_source(self, account: DesignerAccount,
                               table_name: str, search_fields,
                               name: str = "") -> ProprietaryTableSource:
        tenant = self.catalog.open(
            account.token, account.tenant.tenant_id, Scope.READ
        )
        source = ProprietaryTableSource(
            source_id=self.ids.next_id("source"),
            name=name or f"{account.display_name}'s {table_name}",
            table=tenant.table(table_name),
            search_fields=tuple(search_fields),
            tenant_id=tenant.tenant_id,
        )
        source.contract_status = (
            lambda tid=tenant.tenant_id, tbl=table_name:
            self.contracts.source_status(tid, tbl)
        )
        return self.sources.add(source)

    def add_web_source(self, name: str, vertical: str = "web",
                       sites=(), augment_terms=(),
                       freshness_days: int | None = None
                       ) -> WebSearchSource:
        source = WebSearchSource(
            source_id=self.ids.next_id("source"),
            name=name,
            engine=self.engine,
            vertical=vertical,
            sites=tuple(sites),
            augment_terms=tuple(augment_terms),
            freshness_days=freshness_days,
        )
        return self.sources.add(source)

    def add_service_source(self, name: str, service_name: str,
                           operation: str, query_param: str,
                           item_fields=(), title_field: str = "",
                           extra_params: dict | None = None
                           ) -> ServiceSource:
        source = ServiceSource(
            source_id=self.ids.next_id("source"),
            name=name,
            bus=self.bus,
            service_name=service_name,
            operation=operation,
            query_param=query_param,
            item_fields=tuple(item_fields),
            title_field=title_field,
            extra_params=extra_params,
        )
        return self.sources.add(source)

    def add_ad_source(self, name: str = "Ads",
                      max_ads: int = 2) -> AdSource:
        source = AdSource(
            source_id=self.ids.next_id("source"),
            name=name,
            ad_service=self.ads,
            max_ads=max_ads,
        )
        return self.sources.add(source)

    def add_customer_source(self, name: str = "Customer data"
                            ) -> CustomerProfileSource:
        source = CustomerProfileSource(
            source_id=self.ids.next_id("source"),
            name=name,
        )
        return self.sources.add(source)

    # -- design & hosting ------------------------------------------------------------

    def designer(self) -> Designer:
        return Designer(self.sources, self.themes, self.ids)

    def preview(self, session, query_text: str):
        """Live WYSIWYG preview of an unhosted design session."""
        from repro.core.preview import preview_session
        return preview_session(
            session, self.sources, self.renderer, self.clock,
            query_text,
        )

    def host(self, session_or_app) -> str:
        """Build (if needed) and host an application; returns its id."""
        app = (session_or_app.build()
               if isinstance(session_or_app, DesignSession)
               else session_or_app)
        self.apps.register(app)
        self.router.mount(app)
        return app.app_id

    def publish_embed(self, app_id: str):
        app = self.apps.get(app_id)
        snippet = self.publisher.embed_on_site(app)
        self.router.mount(app, embed_key=snippet.embed_key)
        return snippet

    def publish_social(self, app_id: str, platform_name: str = "facebook"):
        app = self.apps.get(app_id)
        return self.publisher.publish_to_platform(app, platform_name)

    # -- execution (§II-C) ----------------------------------------------------------

    def query(self, app_id: str, query_text: str, session_id: str = "",
              customer_id: str = "", page: int = 0,
              deadline_ms: float = 0.0) -> ApplicationResponse:
        return self.runtime.handle_query(QueryRequest(
            app_id=app_id,
            query_text=query_text,
            session_id=session_id,
            customer_id=customer_id,
            page=page,
            deadline_ms=deadline_ms,
        ))

    def query_via_gateway(self, app_id: str, query_text: str,
                          session_id: str = "", customer_id: str = "",
                          page: int = 0,
                          deadline_ms: float = 0.0
                          ) -> ApplicationResponse:
        """Serve a query through the multi-tenant gateway (admission,
        fair queueing, coalescing, generation-stamped caching).

        Requires ``Symphony(gateway=...)``; raises
        :class:`~repro.errors.AdmissionRejectedError` when the request
        is shed at the front door.
        """
        if self.gateway is None:
            raise ConfigurationError(
                "gateway not enabled; construct "
                "Symphony(gateway=True) or pass a GatewayConfig"
            )
        return self.gateway.query(QueryRequest(
            app_id=app_id,
            query_text=query_text,
            session_id=session_id,
            customer_id=customer_id,
            page=page,
            deadline_ms=deadline_ms,
        ))

    # -- observability (repro.telemetry) ----------------------------------------------

    def telemetry_report(self) -> str:
        """Human-readable span/event/metric report for this deployment."""
        return self.telemetry.report()

    def export_telemetry(self, path) -> int:
        """Write collected telemetry as JSONL; returns the line count."""
        return self.telemetry.export_jsonl(path)

    def slo_report(self) -> str:
        """Error budgets, burn alerts, and flight-recorder state."""
        if self.slo is None:
            return "SLO layer disabled (construct Symphony(slo=True))"
        return self.slo.report()

    def explain_query(self, query_id: str):
        """Latency attribution for one query id (see ``repro.slo``);
        returns ``None`` when no spans were retained for it, or when
        the SLO layer is off."""
        if self.slo is None:
            return None
        return self.slo.explain(query_id)

    # -- monetization (§II-A Monetization) --------------------------------------------

    def record_click(self, app_id: str, query: str, url: str,
                     session_id: str = "", ad_id: str = "") -> dict:
        return self.recorder.record_click(
            app_id, query, url, session_id=session_id, ad_id=ad_id
        )

    def traffic_summary(self, app_id: str) -> TrafficSummary:
        return self.recorder.summarize(app_id)

    def referral_report(self, app_id: str,
                        rate_per_click: float = 0.05) -> ReferralReport:
        return ReferralReport(
            self.traffic_summary(app_id), rate_per_click
        )

    def designer_ad_earnings(self, app_id: str) -> float:
        return self.ads.designer_earnings(app_id)

    def enable_social_search(self, vote_weight: float = 0.5):
        """Attach community voting to the runtime (§IV future work 3).

        Returns the :class:`~repro.analytics.social.CommunityFeedback`
        store; use :meth:`vote` to record end-user feedback.
        """
        from repro.analytics.social import CommunityFeedback
        feedback = CommunityFeedback(vote_weight=vote_weight)
        self.runtime.community_feedback = feedback
        return feedback

    def vote(self, app_id: str, url: str, up: bool = True):
        """Record a community vote on a result URL of an application."""
        feedback = self.runtime.community_feedback
        if feedback is None:
            feedback = self.enable_social_search()
        if up:
            return feedback.vote_up(app_id, url)
        return feedback.vote_down(app_id, url)

    # -- Site Suggest (§II-A Built-in Services) ------------------------------------------

    def site_suggest(self, seeds, count: int = 5,
                     method: str = "random_walk",
                     blend_links: bool = True) -> list:
        graph = SiteCooccurrenceGraph.from_query_log(self.engine.log)
        if blend_links:
            graph.blend_link_graph(self.web.domain_link_graph())
        return SiteSuggest(graph).suggest(seeds, count=count, method=method)

    # -- Table I capability probes -------------------------------------------------------

    def search_api_name(self) -> str:
        return "Bing (local substrate)"

    def upload_structured_data(self, account: DesignerAccount,
                               rows: list[dict],
                               table_name: str) -> IngestReport:
        """Structured-data probe: Symphony supports various uploads."""
        tenant = self._authorized_tenant(account)
        return self._ingestor(tenant).ingest_rows(rows, table_name)

    def monetization_policy(self) -> dict:
        return {
            "ads_mandatory": False,
            "revenue_share": self.ads.designer_share,
            "own_ads_allowed": True,
        }

    def ui_customization(self) -> dict:
        return {
            "mode": "drag-n-drop",
            "coding_required": False,
            "templates": self.themes.names(),
        }

    def deployment_options(self) -> list[str]:
        return ["hosted", "third-party-embed", "facebook"]

    def capability_profile(self) -> CapabilityProfile:
        return CapabilityProfile(
            system="Symphony",
            search_api=self.search_api_name(),
            custom_sites="Supported",
            proprietary_structured_data=(
                "Supports various uploads (HTTP or FTP, RSS, workbook, "
                "txt, xml)"
            ),
            monetization="Ads voluntary (revenue-sharing)",
            custom_ui="Drag'n'drop",
            deployment=(
                "Hosted at server, published to 3rd-party sites, or "
                "Facebook"
            ),
        )
