"""Chaos fault-plan harness: prove the resilience invariants hold.

A declarative :class:`FaultPlan` (typically a committed JSON file, see
``examples/chaos_fault_plan.json``) describes a deployment shape and a
storm of injected faults — service outages, transport latency spikes,
replica faults, slow replicas, and flapping replica health. The harness
stands up a full Symphony deployment with resilience enabled, runs a
demo-style workload under that storm, and asserts the contract the
resilience layer promises:

1. every query returns within ``deadline_ms + grace_ms`` simulated ms
   (the grace covers fixed pipeline stages plus one worst-case
   non-preemptible in-flight call — deadline expiry means "no new
   work", not preemption);
2. every query that overran its deadline is surfaced as degraded
   (``ApplicationResponse.degraded`` with a warning in the trace); and
3. no fault escapes the query path — faults degrade, never crash. A
   :class:`~repro.errors.ReproError` that reaches the harness is
   recorded as escaped; any other exception is a bug in our own code
   and propagates.

All injection draws are seeded off the plan, so a given plan replays
the exact same storm every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

from repro.errors import ConfigurationError, DurabilityError, ReproError
from repro.resilience import ResilienceConfig
from repro.resilience.hedging import HedgePolicy
from repro.resilience.retry import RetryPolicy
from repro.util import deterministic_rng

__all__ = ["FaultPlan", "ChaosReport", "load_fault_plan", "run_chaos"]


@dataclass(frozen=True)
class FaultPlan:
    """A declarative chaos scenario: deployment shape + fault storm."""

    name: str = "default"
    seed: int = 2027
    queries: int = 36
    deadline_ms: float = 600.0
    grace_ms: float = 400.0            # fixed stages + one in-flight call
    # Deployment shape.
    num_shards: int = 2
    replicas_per_shard: int = 2
    web: dict = field(default_factory=dict)   # WebSpec overrides
    # Per-service bus fault profiles:
    # name -> {failure_probability, latency_spike_ms,
    #          latency_spike_probability}.
    services: dict = field(default_factory=dict)
    # Replica-level faults, drawn per query per replica.
    replica_fault_rate: float = 0.0
    replica_latency_spike_ms: float = 0.0
    replica_latency_spike_rate: float = 0.0
    replica_flap_period: int = 0       # every N queries, flip one down
    # Targeted, deterministic degradation: every query, every replica of
    # this shard serves ``slow_shard_ms`` slow (no RNG — the fault the
    # SLO layer is expected to detect and attribute).
    slow_shard: int = -1
    slow_shard_ms: float = 0.0
    # SLO layer under test: SLOConfig overrides plus ``expect_*``
    # assertions the harness checks after the storm —
    #   {"fast_window_ms": 5000, ..., "expect_burn": true,
    #    "expect_dominant": "shard:1"}.
    slo: dict = field(default_factory=dict)
    # Resilience configuration under test.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    hedge: HedgePolicy | None = field(default_factory=HedgePolicy)
    # Online-resharding storm (see ``_ReshardStorm``): topology changes
    # driven mid-workload, with per-iteration result/ownership probes.
    #   {"steps": [{"at": 4, "op": "split", "shard": 0},
    #              {"at": 20, "op": "merge", "source": 2, "target": 0}],
    #    "batch_size": 24, "probe_docs": 8,
    #    "probe_queries": ["news", "game"]}
    reshard: dict = field(default_factory=dict)
    # Crash/recovery storm (see ``_DurabilityStorm``): replicas crashed
    # mid-workload — index state wiped, not merely unhealthy — while a
    # document stream keeps writing, then repaired via checkpoint + WAL
    # replay. ``"during_reshard": true`` on a crash asserts a migration
    # is in flight when it lands (the crash-mid-handoff scenario).
    #   {"checkpoint_every": 24, "storage": "memory",
    #    "ingest_per_query": 2,
    #    "crashes": [{"at": 6, "shard": 0, "replica": 1,
    #                 "recover_at": 18, "during_reshard": false}],
    #    "expect_recovered": true, "expect_digest_match": true,
    #    "expect_missed_writes": true}
    durability: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Build a plan from its JSON form; raises
        :class:`ConfigurationError` naming the key path of any key the
        harness would not read, or of a missing one it needs."""
        _check_plan(data)
        _missing = object()
        data = dict(data)
        retry = data.pop("retry", None)
        # An explicit ``"hedge": null`` disables hedging; an absent key
        # keeps the default policy.
        hedge = data.pop("hedge", _missing)
        replicas = data.pop("replicas", None)
        if replicas:
            data.setdefault("replica_fault_rate",
                            replicas.get("fault_rate", 0.0))
            data.setdefault("replica_latency_spike_ms",
                            replicas.get("latency_spike_ms", 0.0))
            data.setdefault("replica_latency_spike_rate",
                            replicas.get("latency_spike_rate", 0.0))
            data.setdefault("replica_flap_period",
                            replicas.get("flap_period", 0))
        cluster = data.pop("cluster", None)
        if cluster:
            data.setdefault("num_shards", cluster.get("num_shards", 2))
            data.setdefault("replicas_per_shard",
                            cluster.get("replicas_per_shard", 1))
        plan = cls(**data)
        if retry is not None:
            plan = replace(plan, retry=RetryPolicy(**retry))
        if hedge is not _missing:
            plan = replace(
                plan, hedge=HedgePolicy(**hedge) if hedge else None
            )
        return plan

    def resilience(self) -> ResilienceConfig:
        return ResilienceConfig(
            deadline_ms=self.deadline_ms,
            retry=self.retry,
            hedge=self.hedge,
        )


#: reshard step op -> the keys it needs.
_RESHARD_OPS = {"split": {"shard"}, "merge": {"source", "target"}}


def _check_keys(block, allowed, path: str, required=()) -> None:
    if not isinstance(block, dict):
        raise ConfigurationError(
            f"fault plan: {path or 'the plan'} is not an object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"fault plan: unknown key {path + '.' if path else ''}"
            f"{unknown[0]}")
    missing = sorted(set(required) - set(block))
    if missing:
        raise ConfigurationError(f"fault plan: {path} has no {missing[0]}")


def _check_plan(data) -> None:
    """Check every key of a plan's JSON form against the keys the
    harness reads (see :class:`FaultPlan`)."""
    from repro.simweb.generator import WebSpec
    from repro.slo import SLOConfig, SLODefinition

    def names(cls) -> set:
        return {item.name for item in fields(cls)}

    _check_keys(data, names(FaultPlan) | {"replicas", "cluster"}, "")
    blocks = {
        "replicas": {"fault_rate", "latency_spike_ms",
                     "latency_spike_rate", "flap_period"},
        "cluster": {"num_shards", "replicas_per_shard"},
        "retry": names(RetryPolicy),
        "hedge": names(HedgePolicy),
        "web": names(WebSpec) - {"seed"},
        "slo": names(SLOConfig) | {"expect_burn", "expect_dominant"},
        "reshard": {"steps", "batch_size", "probe_docs", "probe_queries",
                    "cache_probe_query"},
        "durability": {"storage", "checkpoint_every", "ingest_per_query",
                       "crashes", "expect_recovered",
                       "expect_digest_match", "expect_missed_writes"},
    }
    for name, allowed in blocks.items():
        if data.get(name) is not None:
            _check_keys(data[name], allowed, name)
    for name, profile in (data.get("services") or {}).items():
        _check_keys(profile, {"failure_probability", "latency_spike_ms",
                              "latency_spike_probability"},
                    f"services.{name}")
    for index, slo in enumerate((data.get("slo") or {}).get("slos", ())):
        _check_keys(slo, names(SLODefinition), f"slo.slos[{index}]")
    reshard = data.get("reshard") or {}
    for index, step in enumerate(reshard.get("steps", ())):
        path = f"reshard.steps[{index}]"
        _check_keys(step, {"at", "op", "shard", "source", "target"}, path,
                    required={"op"})
        needs = _RESHARD_OPS.get(step["op"])
        if needs is None:
            raise ConfigurationError(
                f"fault plan: {path}.op is {step['op']!r}, "
                f"not split or merge")
        _check_keys(step, {"at", "op", *needs}, path, required=needs)
    durability = data.get("durability") or {}
    for index, crash in enumerate(durability.get("crashes", ())):
        _check_keys(crash, {"at", "shard", "replica", "recover_at",
                            "during_reshard"},
                    f"durability.crashes[{index}]", required={"shard"})


def load_fault_plan(path) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file."""
    with open(path, "r", encoding="utf-8") as fileobj:
        return FaultPlan.from_dict(json.load(fileobj))


@dataclass
class ChaosReport:
    """What one chaos run observed, with the invariant verdict."""

    plan_name: str
    queries_run: int = 0
    degraded: int = 0
    retries: int = 0
    retry_exhaustions: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    deadline_events: int = 0
    max_elapsed_ms: float = 0.0
    # Reshard-storm accounting (zero when the plan has no storm).
    reshards_completed: int = 0
    handoff_batches: int = 0
    docs_moved: int = 0
    topology_version: int = 0
    reshard_probes: int = 0
    cache_cutover_probes: int = 0
    # Durability-storm accounting (zero when the plan has no
    # durability block).
    crashes_injected: int = 0
    crashes_recovered: int = 0
    writes_missed: int = 0
    records_replayed: int = 0
    digest_matches: int = 0
    reads_while_down: int = 0
    # SLO-layer accounting (zero/empty when the plan has no slo block).
    slo_burn_alerts: int = 0
    slo_first_alert_ms: int = 0
    slo_detection_ms: int = 0          # fault start -> first alert (sim)
    slo_breaching_retained: int = 0
    slo_dominant: str = ""
    slo_worst_attribution: dict = field(default_factory=dict)
    slo_recorder: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    escaped: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.escaped

    def render(self) -> str:
        lines = [
            f"chaos plan {self.plan_name!r}: "
            f"{self.queries_run} queries",
            f"  degraded responses   {self.degraded}",
            f"  retries / exhausted  {self.retries} / "
            f"{self.retry_exhaustions}",
            f"  hedges / wins        {self.hedges} / {self.hedge_wins}",
            f"  deadline events      {self.deadline_events}",
            f"  max elapsed (sim)    {self.max_elapsed_ms:.0f}ms",
        ]
        if self.reshards_completed or self.docs_moved:
            lines += [
                f"  reshards completed   {self.reshards_completed} "
                f"(topology v{self.topology_version})",
                f"  handoff batches      {self.handoff_batches} "
                f"({self.docs_moved} docs moved)",
                f"  reshard probes       {self.reshard_probes} "
                f"({self.cache_cutover_probes} cache cutover checks)",
            ]
        if self.crashes_injected:
            lines += [
                f"  crashes / recovered  {self.crashes_injected} / "
                f"{self.crashes_recovered}",
                f"  writes missed        {self.writes_missed} "
                f"({self.records_replayed} WAL records replayed)",
                f"  digest matches       {self.digest_matches} "
                f"({self.reads_while_down} reads served while down)",
            ]
        if self.slo_burn_alerts or self.slo_dominant:
            lines += [
                f"  slo burn alerts      {self.slo_burn_alerts} "
                f"(first at {self.slo_first_alert_ms}ms sim)",
                f"  slo traces retained  {self.slo_breaching_retained} "
                f"breaching",
                f"  slo dominant cause   {self.slo_dominant}",
            ]
        if self.escaped:
            lines.append(f"  ESCAPED EXCEPTIONS   {len(self.escaped)}")
            lines += [f"    - {item}" for item in self.escaped]
        if self.violations:
            lines.append(f"  INVARIANT VIOLATIONS {len(self.violations)}")
            lines += [f"    - {item}" for item in self.violations]
        lines.append("  verdict: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def _slo_config(plan: FaultPlan):
    """The plan's SLO layer, or ``None``. ``expect_*`` keys are harness
    assertions, not :class:`~repro.slo.SLOConfig` fields."""
    if not plan.slo:
        return None
    from repro.slo import SLOConfig
    options = {key: value for key, value in plan.slo.items()
               if not key.startswith("expect_")}
    return SLOConfig.from_dict(options)


def _build_platform(plan: FaultPlan):
    """A clustered, telemetry-on, resilience-on Symphony for the plan."""
    from repro.cluster import ClusterConfig
    from repro.core.platform import Symphony
    from repro.services.bus import ServiceBus
    from repro.simweb.generator import WebSpec

    web = dict(plan.web)
    web.setdefault("extra_sites_per_topic", 1)
    web.setdefault("pages_per_site", 6)
    web.setdefault("images_per_site", 2)
    web.setdefault("videos_per_site", 2)
    web.setdefault("news_per_site", 3)
    durability = None
    if plan.durability:
        from repro.durability import DurabilityConfig
        durability = DurabilityConfig(
            storage=plan.durability.get("storage", "memory"),
            checkpoint_every=int(
                plan.durability.get("checkpoint_every", 64)),
        )
    symphony = Symphony(
        web_spec=WebSpec(seed=plan.seed, **web),
        cluster=ClusterConfig(
            num_shards=plan.num_shards,
            replicas_per_shard=plan.replicas_per_shard,
        ),
        telemetry=True,
        resilience=plan.resilience(),
        # The workload cycles a handful of titles; with the cache on,
        # repeats would short-circuit the live path and the storm would
        # only ever bite the first few queries.
        cache_enabled=False,
        # A reshard storm needs the control plane, and the gateway so
        # the cutover cache-invalidation invariant can be probed.
        controlplane=bool(plan.reshard) or None,
        gateway=bool(plan.reshard) or None,
        slo=_slo_config(plan),
        durability=durability,
    )
    # Swap in a bus seeded by the plan so fault draws replay, then apply
    # the per-service profiles. Must happen before add_service_source:
    # ServiceSource captures the bus at creation time.
    bus = ServiceBus(clock=symphony.clock, seed=plan.seed)
    bus.register(symphony.ads)
    symphony.bus = bus
    for name, profile in plan.services.items():
        bus.set_fault_profile(
            name,
            failure_probability=profile.get("failure_probability"),
            latency_spike_ms=profile.get("latency_spike_ms"),
            latency_spike_probability=profile.get(
                "latency_spike_probability"
            ),
        )
    return symphony


def _build_workload(symphony, plan: FaultPlan):
    """A GamerQueen-style app exercising every source kind.

    Primary proprietary inventory, clustered web reviews, a REST pricing
    service (the bus fault profiles bite here), and an ad slot.
    Returns ``(app_id, queries)``.
    """
    from repro.services.samples import PricingService

    account = symphony.register_designer("Chaos")
    games = symphony.web.entities["video_games"][:5]
    rows = ["title,producer,description"]
    rows += [f'{g},Studio {i},"A classic {g} experience"'
             for i, g in enumerate(games)]
    symphony.upload_http(account, "inventory.csv",
                         "\n".join(rows).encode(), "inventory",
                         content_type="text/csv")
    inventory = symphony.add_proprietary_source(
        account, "inventory",
        search_fields=("title", "producer", "description"),
    )
    reviews = symphony.add_web_source(
        "Game reviews", "web",
        sites=("gamespot.com", "ign.com", "teamxbox.com"),
    )
    symphony.bus.register(PricingService(seed=plan.seed))
    pricing = symphony.add_service_source(
        "Live pricing", "pricing", "GET /prices/{sku}", "sku",
        item_fields=("sku", "price", "stock", "in_stock"),
        title_field="sku",
    )
    ads = symphony.add_ad_source()
    advertiser = symphony.ads.create_advertiser("GameCo", 100.0)
    symphony.ads.create_campaign(
        advertiser.advertiser_id, [games[0], "game"], 0.40,
        "GameCo Megastore", "http://gameco.example",
    )
    session = symphony.designer().new_application(
        "ChaosQueen", account.tenant.tenant_id
    )
    slot = session.drag_source_onto_app(
        inventory.source_id, heading="Games", max_results=3,
        search_fields=("title", "producer", "description"),
    )
    session.add_hyperlink(slot, "title")
    session.add_text(slot, "description")
    session.drag_source_onto_result_layout(
        slot, reviews.source_id, drive_fields=("title",),
        heading="Reviews", max_results=2, query_suffix="review",
    )
    session.drag_source_onto_result_layout(
        slot, pricing.source_id, drive_fields=("title",), max_results=1,
    )
    session.drag_source_onto_app(ads.source_id, heading="Sponsored")
    return symphony.host(session), games


def _inject_replica_chaos(engine, plan: FaultPlan, index: int) -> None:
    """Seeded per-query replica faults, slowness, and flapping."""
    groups = getattr(engine, "groups", None)
    if not groups:
        return
    period = plan.replica_flap_period
    if period and index and index % period == 0:
        # Flap: bring everything back, then take one replica down so
        # failover and (with >1 replica) hedging stay exercised without
        # ever blacking out a whole shard. Runs *before* this
        # iteration's injections — kill/revive disarm a replica's
        # pending faults and delays, so injecting first would waste the
        # storm on flap iterations. (Crashed replicas ignore the
        # revive: only the recovery manager can bring those back.)
        for group in groups:
            for replica_index in range(len(group.replicas)):
                group.revive(replica_index)
        flip = index // period
        group = groups[flip % len(groups)]
        if len(group.replicas) > 1:
            group.kill(flip % len(group.replicas))
    if (plan.slow_shard_ms > 0
            and 0 <= plan.slow_shard < len(groups)):
        # Deterministic hot shard: slow every replica so hedging cannot
        # route around it — the whole shard is degraded, and the SLO
        # layer should both alert on the burn and name this shard.
        for replica in groups[plan.slow_shard].replicas:
            replica.inject_latency(plan.slow_shard_ms, 4)
    rng = deterministic_rng((plan.seed, "chaos", index))
    for group in groups:
        for replica in group.replicas:
            if (plan.replica_fault_rate
                    and rng.random() < plan.replica_fault_rate):
                replica.inject_fault()
            if (plan.replica_latency_spike_rate
                    and rng.random() < plan.replica_latency_spike_rate):
                # Vary the magnitude so the latency distribution has a
                # tail — hedging triggers on the quantile, and a
                # constant spike would sit exactly at it.
                replica.inject_latency(
                    plan.replica_latency_spike_ms * (0.5 + rng.random())
                )


class _ReshardStorm:
    """Drives scheduled topology changes through the workload and
    checks the migration invariants after every step:

    * **no dropped, duplicated, reordered or rescored results** — probe
      queries must return the pre-storm page (urls in order, totals,
      and scores unless a durability storm's ingest moves them) at
      every state;
    * **no wrong-shard documents** — every sampled moving document is
      present on the shard its current route map says owns it;
    * **cache coherence at cutover** — a gateway-cached response primed
      before the route flip must be generation-invalidated by it.
    """

    def __init__(self, symphony, plan: FaultPlan, app_id: str,
                 report: ChaosReport) -> None:
        self.symphony = symphony
        self.plan = plan
        self.app_id = app_id
        self.report = report
        self.controlplane = symphony.controlplane
        reshard = plan.reshard
        if reshard.get("batch_size"):
            self.controlplane.batch_size = int(reshard["batch_size"])
        self.ops = sorted(reshard.get("steps", []),
                          key=lambda op: op.get("at", 0))
        self.probe_limit = int(reshard.get("probe_docs", 8))
        self.probe_queries = list(
            reshard.get("probe_queries", ("news", "game"))
        )
        self.cache_query = str(
            reshard.get("cache_probe_query", "storm cache probe")
        )
        self.baselines: dict = {}    # query -> ((url, score)s, total)
        self.pin_scores = not plan.durability.get("ingest_per_query")
        self.doc_probes: list = []   # (vertical, doc_id) samples
        self.started = 0

    def capture_baseline(self) -> None:
        """Record the pre-storm truth the probes are checked against."""
        for query in self.probe_queries:
            response = self.symphony.engine.search("web", query)
            self.baselines[query] = (
                tuple((r.url, r.score) for r in response.results),
                response.total_matches,
            )

    def on_query(self, index: int) -> None:
        """One storm iteration: start/advance the migration, then probe."""
        controlplane = self.controlplane
        if (not controlplane.active and self.ops
                and index >= self.ops[0].get("at", 0)):
            self._start(self.ops.pop(0), index)
        elif controlplane.active:
            from repro.controlplane import CUTOVER
            if controlplane.migration.state == CUTOVER:
                self._cutover_with_cache_probe()
            else:
                controlplane.step()
        self._verify(index)

    def finish(self) -> None:
        """Drive any still-open migration to completion, probing each
        step, so the run never ends with a half-moved shard."""
        extra = 0
        while (self.controlplane.active or self.ops) and extra < 1000:
            self.on_query(self.plan.queries + extra)
            extra += 1
        if self.controlplane.active or self.ops:
            self.report.violations.append(
                "reshard storm did not run to completion"
            )

    # -- internals ------------------------------------------------------------

    def _start(self, op: dict, index: int) -> None:
        try:
            if op["op"] == "split":
                migration = self.controlplane.begin_split(op["shard"])
            else:
                migration = self.controlplane.begin_merge(
                    op["source"], op["target"])
        except ConfigurationError as exc:
            self.report.violations.append(
                f"reshard: {op['op']} at {index}: {exc}")
            return
        self.doc_probes.extend(migration.pending[:self.probe_limit])
        self.started += 1

    def _cutover_with_cache_probe(self) -> None:
        """Flip the route with a primed gateway cache entry in place and
        insist the flip invalidates it."""
        from repro.errors import AdmissionRejectedError
        gateway = self.symphony.gateway
        stepped = False
        try:
            query = self.cache_query
            self.symphony.query_via_gateway(self.app_id, query)
            before = gateway.cache.stats()
            self.symphony.query_via_gateway(self.app_id, query)
            primed = gateway.cache.stats()
            served_cached = primed["hits"] == before["hits"] + 1
            self.controlplane.step()
            stepped = True
            self.symphony.query_via_gateway(self.app_id, query)
            after = gateway.cache.stats()
            if served_cached:
                self.report.cache_cutover_probes += 1
                if (after["stale_invalidations"]
                        != primed["stale_invalidations"] + 1):
                    self.report.violations.append(
                        "reshard cutover left a stale gateway cache "
                        "entry serving the old topology"
                    )
        except AdmissionRejectedError:
            pass
        finally:
            if not stepped:
                self.controlplane.step()

    def _verify(self, index: int) -> None:
        engine = self.symphony.engine
        state = (self.controlplane.migration.state
                 if self.controlplane.active else "idle")
        where = f"iteration {index} ({state})"
        for query in self.probe_queries:
            response = engine.search("web", query)
            hits = tuple((r.url, r.score) for r in response.results)
            base_hits, base_total = self.baselines[query]
            urls = tuple(url for url, __ in hits)
            base_urls = tuple(url for url, __ in base_hits)
            if sorted(urls) != sorted(base_urls):
                self.report.violations.append(
                    f"probe {query!r} diverged at {where}: "
                    f"{len(set(base_urls) - set(urls))} dropped, "
                    f"{len(set(urls) - set(base_urls))} unexpected"
                )
            elif urls != base_urls:
                self.report.violations.append(
                    f"probe {query!r} reordered its results at {where}"
                )
            elif self.pin_scores and hits != base_hits:
                rescored = sum(a != b for a, b in zip(hits, base_hits))
                self.report.violations.append(
                    f"probe {query!r} ranked {rescored} of {len(hits)} "
                    f"results differently at {where}"
                )
            elif response.total_matches != base_total:
                self.report.violations.append(
                    f"probe {query!r} total_matches "
                    f"{response.total_matches} != {base_total} at {where}"
                )
            self.report.reshard_probes += 1
        route = engine.router.snapshot()
        for vertical, doc_id in self.doc_probes:
            owner = route.shard_of(doc_id)
            holders = [
                group.shard_id
                for group in engine.active_groups(route)
                if doc_id in group.primary().vertical(vertical).index
            ]
            if owner not in holders:
                self.report.violations.append(
                    f"doc {doc_id} missing from owning shard {owner} "
                    f"at {where} (held by {holders})"
                )
            self.report.reshard_probes += 1


class _DurabilityStorm:
    """Crashes replicas mid-workload and checks the durability contract:

    * a crashed replica **misses** the writes broadcast while it is
      down (its state is gone, not merely unrouted);
    * **zero reads** reach it between crash and rejoin — failover and
      hedging route around it, and recovery never puts a half-rebuilt
      replica in rotation;
    * after checkpoint-restore + WAL replay its per-vertical content
      digest **matches a healthy peer**, and it rejoins read rotation.

    A steady document stream (``ingest_per_query``) runs alongside the
    query storm so there genuinely are writes to miss; the stream uses
    nonsense tokens so it never perturbs the workload or the reshard
    storm's probe baselines.
    """

    def __init__(self, symphony, plan: FaultPlan,
                 report: ChaosReport) -> None:
        self.symphony = symphony
        self.plan = plan
        self.report = report
        self.durability = symphony.durability
        config = plan.durability
        self.crashes = sorted(config.get("crashes", []),
                              key=lambda step: step.get("at", 0))
        self.scheduled = len(self.crashes)
        self.ingest_per_query = int(config.get("ingest_per_query", 0))
        self._down: dict = {}     # (shard, replica_idx) -> crash info
        self._ingested = 0

    def on_query(self, index: int) -> None:
        """One storm iteration: ingest, crash what is due, recover what
        is due. Runs before the query so the read path sees the crash."""
        self._ingest()
        while self.crashes and index >= self.crashes[0].get("at", 0):
            self._crash(self.crashes.pop(0), index)
        for key, info in list(self._down.items()):
            if index >= info["recover_at"]:
                self._recover(key, info)

    def finish(self) -> None:
        """Recover anything still down, then check the plan's
        ``expect_*`` assertions."""
        for step in self.crashes:      # scheduled past the last query
            self._crash(step, self.plan.queries)
        for key, info in list(self._down.items()):
            self._recover(key, info)
        report, config = self.report, self.plan.durability
        if (config.get("expect_recovered")
                and report.crashes_recovered < self.scheduled):
            report.violations.append(
                f"durability: only {report.crashes_recovered} of "
                f"{self.scheduled} crashed replicas recovered"
            )
        if (config.get("expect_digest_match")
                and report.digest_matches < report.crashes_recovered):
            report.violations.append(
                f"durability: {report.digest_matches} digest matches "
                f"for {report.crashes_recovered} recoveries"
            )
        if config.get("expect_missed_writes") and not report.writes_missed:
            report.violations.append(
                "durability: expected crashed replicas to miss writes; "
                "none were missed"
            )

    # -- internals ------------------------------------------------------------

    def _ingest(self) -> None:
        """Stream documents through the replicated write path."""
        from repro.searchengine.documents import FieldedDocument
        from repro.searchengine.engine import Vertical
        for _ in range(self.ingest_per_query):
            number = self._ingested
            self._ingested += 1
            self.symphony.engine.add_document(
                Vertical.WEB,
                FieldedDocument(
                    f"zz-durability-{number}",
                    {"title": f"zzdurability chunk{number}",
                     "url": f"http://durability.example/{number}"},
                    None,
                ),
            )

    def _crash(self, step: dict, index: int) -> None:
        shard = int(step["shard"])
        replica_index = int(step.get("replica", 1))
        if step.get("during_reshard"):
            controlplane = self.symphony.controlplane
            if controlplane is None or not controlplane.active:
                self.report.violations.append(
                    f"durability: crash at {index} expected a reshard "
                    f"in flight; none was"
                )
        try:
            self.durability.crash_replica(shard, replica_index)
        except ConfigurationError as exc:
            self.report.violations.append(
                f"durability: crash at {index}: {exc}")
            return
        replica = self.durability.replica(shard, replica_index)
        self.report.crashes_injected += 1
        self._down[(shard, replica_index)] = {
            "recover_at": int(step.get("recover_at", index + 6)),
            "reads_before": replica.reads_served,
        }

    def _recover(self, key, info: dict) -> None:
        shard, replica_index = key
        replica = self.symphony.engine.groups[shard] \
            .replicas[replica_index]
        reads_while_down = replica.reads_served - info["reads_before"]
        self.report.reads_while_down += reads_while_down
        if reads_while_down:
            self.report.violations.append(
                f"durability: {replica.replica_id} served "
                f"{reads_while_down} reads while crashed/recovering"
            )
        try:
            recovery = self.durability.recover_replica(
                shard, replica_index)
        except DurabilityError as exc:
            self.report.violations.append(
                f"durability: recovery of {replica.replica_id} "
                f"failed: {exc}"
            )
            del self._down[key]
            return
        self.report.crashes_recovered += 1
        self.report.writes_missed += recovery.writes_missed
        self.report.records_replayed += recovery.records_replayed
        if recovery.digest_match is not False:
            # True, or None on a single-replica shard (no peer to
            # compare — convergence is reaching the WAL head).
            self.report.digest_matches += 1
        del self._down[key]


def _check_slo(symphony, plan: FaultPlan, report: ChaosReport,
               workload_started_ms: int = 0) -> None:
    """Fill the report's SLO fields and check the plan's ``expect_*``
    assertions: did the burn alert fire, and does the explain()
    attribution name the fault the plan injected?"""
    slo = symphony.slo
    fired = [a for a in slo.alerts() if a.get("kind") == "fire"]
    report.slo_burn_alerts = len(fired)
    report.slo_first_alert_ms = (slo.first_burn_ms() or 0)
    if fired and workload_started_ms:
        report.slo_detection_ms = (report.slo_first_alert_ms
                                   - workload_started_ms)
    report.slo_breaching_retained = len(slo.recorder.breaching())
    report.slo_recorder = slo.recorder.stats.as_dict()
    worst = slo.worst_record()
    if worst is not None:
        attribution = slo.explain(worst.query_id)
        if attribution is not None:
            report.slo_dominant = attribution.dominant_label
            report.slo_worst_attribution = attribution.to_dict()
    if plan.slo.get("expect_burn") and not fired:
        report.violations.append(
            "slo: expected a burn-rate alert to fire; none did"
        )
    expected = plan.slo.get("expect_dominant", "")
    if expected and not report.slo_dominant.startswith(expected):
        report.violations.append(
            f"slo: expected dominant cause {expected!r}, "
            f"explain() said {report.slo_dominant!r}"
        )


def run_chaos(plan: FaultPlan) -> ChaosReport:
    """Run the plan's fault storm and check the resilience invariants."""
    symphony = _build_platform(plan)
    app_id, games = _build_workload(symphony, plan)
    report = ChaosReport(plan_name=plan.name)
    storm = (_ReshardStorm(symphony, plan, app_id, report)
             if plan.reshard else None)
    durability_storm = (_DurabilityStorm(symphony, plan, report)
                        if plan.durability else None)
    if storm is not None:
        storm.capture_baseline()
    budget = plan.deadline_ms + plan.grace_ms
    clock = symphony.clock
    workload_started_ms = clock.now_ms
    for index in range(plan.queries):
        _inject_replica_chaos(symphony.engine, plan, index)
        if durability_storm is not None:
            durability_storm.on_query(index)
        query = games[index % len(games)]
        started = clock.now_ms
        try:
            response = symphony.query(
                app_id, query, session_id=f"chaos-{index}",
                deadline_ms=plan.deadline_ms,
            )
        except ReproError as exc:
            report.escaped.append(
                f"query {index} ({query!r}): "
                f"{type(exc).__name__}: {exc}"
            )
            continue
        report.queries_run += 1
        elapsed = clock.now_ms - started
        report.max_elapsed_ms = max(report.max_elapsed_ms, elapsed)
        if response.degraded:
            report.degraded += 1
        if elapsed > budget:
            report.violations.append(
                f"query {index} ({query!r}) took {elapsed:.0f}ms "
                f"(> {plan.deadline_ms:.0f}ms deadline "
                f"+ {plan.grace_ms:.0f}ms grace)"
            )
        elif elapsed > plan.deadline_ms and not response.degraded:
            report.violations.append(
                f"query {index} ({query!r}) overran its deadline "
                f"({elapsed:.0f}ms) without surfacing degradation"
            )
        if storm is not None:
            storm.on_query(index)
    if durability_storm is not None:
        durability_storm.finish()
    if storm is not None:
        storm.finish()
        events = symphony.telemetry.events
        report.reshards_completed = len(events.by_kind(
            "reshard.complete"))
        report.handoff_batches = len(events.by_kind("reshard.handoff"))
        report.topology_version = symphony.engine.topology_version
        report.docs_moved = int(symphony.telemetry.metrics.counter(
            "controlplane_docs_moved_total").value)
        if report.reshards_completed < storm.started:
            report.violations.append(
                f"only {report.reshards_completed} of {storm.started} "
                f"reshards completed"
            )
    if symphony.slo.enabled:
        _check_slo(symphony, plan, report, workload_started_ms)
    metrics = symphony.telemetry.metrics
    report.retries = int(metrics.counter("retries_total").value)
    report.retry_exhaustions = int(
        metrics.counter("retry_exhausted_total").value
    )
    report.hedges = int(metrics.counter("hedges_total").value)
    report.hedge_wins = int(metrics.counter("hedge_wins_total").value)
    report.deadline_events = int(
        metrics.counter("deadline_exceeded_total").value
    )
    return report
