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
from dataclasses import dataclass, field, fields

from repro.controlplane import CUTOVER
from repro.errors import (
    AdmissionRejectedError,
    ConfigurationError,
    DurabilityError,
    ReproError,
)
from repro.resilience import ResilienceConfig
from repro.resilience.hedging import HedgePolicy
from repro.resilience.retry import RetryPolicy
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.engine import Vertical, build_engine
from repro.util import SimClock, deterministic_rng

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
    # Online-resharding storm (see ``_Storm``): topology changes driven
    # mid-workload, with per-iteration result/ownership probes.
    #   {"steps": [{"at": 4, "op": "split", "shard": 0},
    #              {"at": 20, "op": "merge", "source": 2, "target": 0}],
    #    "batch_size": 24, "probe_docs": 8,
    #    "probe_queries": ["news", "game"]}
    reshard: dict = field(default_factory=dict)
    # Crash/recovery storm (see ``_Storm``): replicas crashed
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
        data = dict(data)
        retry = data.pop("retry", None)
        if retry is not None:
            data["retry"] = RetryPolicy(**retry)
        # An explicit ``"hedge": null`` disables hedging; an absent key
        # keeps the default policy.
        if data.get("hedge") is not None:
            data["hedge"] = HedgePolicy(**data["hedge"])
        return cls(**data)

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

    _check_keys(data, names(FaultPlan), "")
    blocks = {
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




def _build_platform(plan: FaultPlan):
    """A clustered, telemetry-on, resilience-on Symphony for the plan."""
    from repro.cluster import ClusterConfig
    from repro.core.platform import Symphony
    from repro.durability import DurabilityConfig
    from repro.services.bus import ServiceBus
    from repro.simweb.generator import WebSpec
    from repro.slo import SLOConfig

    web = dict(plan.web)
    web.setdefault("extra_sites_per_topic", 1)
    web.setdefault("pages_per_site", 6)
    web.setdefault("images_per_site", 2)
    web.setdefault("videos_per_site", 2)
    web.setdefault("news_per_site", 3)
    durability = plan.durability
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
        controlplane=bool(plan.reshard),
        gateway=bool(plan.reshard),
        # ``expect_*`` keys are harness assertions, not SLOConfig fields.
        slo=plan.slo and SLOConfig.from_dict(
            {key: value for key, value in plan.slo.items()
             if not key.startswith("expect_")}),
        durability=durability and DurabilityConfig(
            storage=durability.get("storage", "memory"),
            checkpoint_every=int(durability.get("checkpoint_every", 64)),
        ),
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


def _at(step: dict) -> int:
    return step.get("at", 0)


class _Storm:
    """One chaos run: the plan's storm as one ordered schedule of steps.

    Each iteration runs the schedule once, in this order: the replica
    injections, the durability stream's ingest, the crashes and the
    recoveries that are due, the query, and the reshard step (start or
    advance a migration, then probe). After the last query, the drain
    runs the steps that finish open work — crashes, recoveries and the
    reshard step, with every scheduled crash and recovery due at once —
    until none is open. What it checks:

    * every query returns within ``deadline_ms + grace_ms`` and shows an
      overrun as degraded; a :class:`~repro.errors.ReproError` out of it
      is recorded as escaped;
    * each probe query answers as a single node that takes the same
      writes (urls in order, scores and totals), every sampled moving
      document is on the shard the current route gives it, and a
      cutover invalidates a gateway entry primed before the flip;
    * a crashed replica misses the writes broadcast while it is down,
      serves no read until it rejoins, and after checkpoint-restore and
      WAL replay its content digest matches a healthy peer's.

    The durability stream writes nonsense tokens, so it never moves the
    workload's answers.
    """

    def __init__(self, symphony, plan: FaultPlan, app_id: str,
                 games) -> None:
        self.symphony = symphony
        self.plan = plan
        self.app_id = app_id
        self.games = games
        self.report = ChaosReport(plan_name=plan.name)
        self.controlplane = symphony.controlplane
        durability, reshard = plan.durability, plan.reshard
        self.crashes = sorted(durability.get("crashes", []), key=_at)
        self.scheduled = len(self.crashes)
        self.ingest_per_query = int(durability.get("ingest_per_query", 0))
        self.ingested = 0
        self.down: dict = {}      # (shard, replica_idx) -> crash info
        self.ops = sorted(reshard.get("steps", []), key=_at)
        self.started = 0          # migrations begun
        self.probe_limit = int(reshard.get("probe_docs", 8))
        self.probe_queries = list(
            reshard.get("probe_queries", ("news", "game")))
        self.cache_query = str(
            reshard.get("cache_probe_query", "storm cache probe"))
        self.doc_probes: list = []   # (vertical, doc_id) samples
        self.reference = None
        # (step, runs in the drain)
        self.schedule = [(self._inject, False)]
        if durability:
            self.schedule += [(self._ingest, False), (self._crash, True),
                              (self._recover, True)]
        self.schedule.append((self._query, False))
        if reshard:
            if reshard.get("batch_size"):
                self.controlplane.batch_size = int(reshard["batch_size"])
            self.reference = build_engine(symphony.web, clock=SimClock())
            self.schedule.append((self._reshard, True))

    def run(self) -> ChaosReport:
        if self.reference is not None:
            # A first probe round, before any fault: the platform starts
            # equal to the reference. The report counts the storm's.
            self._compare_pages("the start")
        self.workload_started_ms = self.symphony.clock.now_ms
        queries = self.plan.queries
        for index in range(queries):
            for step, __ in self.schedule:
                step(index)
        drain = [step for step, drains in self.schedule if drains]
        for index in range(queries, queries + 1000):
            if not (self.crashes or self.down or self._resharding()):
                break
            for step in drain:
                step(index)
        self._finish()
        return self.report

    def _due(self, at: int, index: int) -> bool:
        """Is a step scheduled ``at`` due now? In the drain, all are."""
        return index >= min(at, self.plan.queries)

    def _resharding(self) -> bool:
        return bool(self.ops) or (self.controlplane is not None
                                  and self.controlplane.active)

    # -- the steps ------------------------------------------------------------

    def _inject(self, index: int) -> None:
        """Seeded per-query replica faults, slowness, and flapping."""
        plan = self.plan
        groups = self.symphony.engine.groups
        period = plan.replica_flap_period
        if period and index and index % period == 0:
            # Flap: bring everything back, then take one replica down so
            # failover and (with >1 replica) hedging stay exercised
            # without ever blacking out a whole shard. Runs *before* this
            # iteration's injections — kill/revive disarm a replica's
            # pending faults and delays, so injecting first would waste
            # the storm on flap iterations. (Crashed replicas ignore the
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
            # Deterministic hot shard: slow every replica so hedging
            # cannot route around it — the whole shard is degraded, and
            # the SLO layer should both alert on the burn and name it.
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
                    # Vary the magnitude so the latency distribution has
                    # a tail — hedging triggers on the quantile, and a
                    # constant spike would sit exactly at it.
                    replica.inject_latency(
                        plan.replica_latency_spike_ms
                        * (0.5 + rng.random())
                    )

    def _ingest(self, index: int) -> None:
        """Stream documents through the replicated write path, and into
        the reference the probes compare with."""
        for _ in range(self.ingest_per_query):
            number = self.ingested
            self.ingested += 1
            document = FieldedDocument(
                f"zz-durability-{number}",
                {"title": f"zzdurability chunk{number}",
                 "url": f"http://durability.example/{number}"},
                None,
            )
            self.symphony.engine.add_document(Vertical.WEB, document)
            if self.reference is not None:
                self.reference.vertical(Vertical.WEB).add(document)

    def _crash(self, index: int) -> None:
        durability = self.symphony.durability
        while self.crashes and self._due(_at(self.crashes[0]), index):
            step = self.crashes.pop(0)
            shard = int(step["shard"])
            replica_index = int(step.get("replica", 1))
            if step.get("during_reshard") and not (
                    self.controlplane is not None
                    and self.controlplane.active):
                self.report.violations.append(
                    f"durability: crash at {index} expected a reshard "
                    f"in flight; none was"
                )
            try:
                durability.crash_replica(shard, replica_index)
            except ConfigurationError as exc:
                self.report.violations.append(
                    f"durability: crash at {index}: {exc}")
                continue
            replica = durability.replica(shard, replica_index)
            self.report.crashes_injected += 1
            self.down[(shard, replica_index)] = {
                "recover_at": int(step.get("recover_at", index + 6)),
                "reads_before": replica.reads_served,
            }

    def _recover(self, index: int) -> None:
        report = self.report
        for key, info in list(self.down.items()):
            if not self._due(info["recover_at"], index):
                continue
            del self.down[key]
            shard, replica_index = key
            replica = self.symphony.engine.groups[shard] \
                .replicas[replica_index]
            reads_while_down = replica.reads_served - info["reads_before"]
            report.reads_while_down += reads_while_down
            if reads_while_down:
                report.violations.append(
                    f"durability: {replica.replica_id} served "
                    f"{reads_while_down} reads while crashed/recovering"
                )
            try:
                recovery = self.symphony.durability.recover_replica(
                    shard, replica_index)
            except DurabilityError as exc:
                report.violations.append(
                    f"durability: recovery of {replica.replica_id} "
                    f"failed: {exc}"
                )
                continue
            report.crashes_recovered += 1
            report.writes_missed += recovery.writes_missed
            report.records_replayed += recovery.records_replayed
            if recovery.digest_match is not False:
                # True, or None on a single-replica shard (no peer to
                # compare — convergence is reaching the WAL head).
                report.digest_matches += 1

    def _query(self, index: int) -> None:
        plan, report, clock = self.plan, self.report, self.symphony.clock
        query = self.games[index % len(self.games)]
        started = clock.now_ms
        try:
            response = self.symphony.query(
                self.app_id, query, session_id=f"chaos-{index}",
                deadline_ms=plan.deadline_ms,
            )
        except ReproError as exc:
            report.escaped.append(
                f"query {index} ({query!r}): "
                f"{type(exc).__name__}: {exc}"
            )
            return
        report.queries_run += 1
        elapsed = clock.now_ms - started
        report.max_elapsed_ms = max(report.max_elapsed_ms, elapsed)
        if response.degraded:
            report.degraded += 1
        if elapsed > plan.deadline_ms + plan.grace_ms:
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

    def _reshard(self, index: int) -> None:
        """Start the next due migration or advance the open one, then
        probe. The drain runs it only while a migration is open."""
        controlplane = self.controlplane
        if index >= self.plan.queries and not self._resharding():
            return
        if (not controlplane.active and self.ops
                and index >= _at(self.ops[0])):
            self._start(self.ops.pop(0), index)
        elif controlplane.active:
            if controlplane.migration.state == CUTOVER:
                self._cutover_with_cache_probe()
            else:
                controlplane.step()
        self._probe(index)

    # -- reshard internals ----------------------------------------------------

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

    def _probe(self, index: int) -> None:
        controlplane = self.controlplane
        state = (controlplane.migration.state if controlplane.active
                 else "idle")
        where = f"iteration {index} ({state})"
        self._compare_pages(where)
        engine = self.symphony.engine
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
        self.report.reshard_probes += (len(self.probe_queries)
                                       + len(self.doc_probes))

    def _compare_pages(self, where: str) -> None:
        """Each probe query's page must be the reference's: the same
        urls in the same order, the same scores and the same total."""
        for query in self.probe_queries:
            response = self.symphony.engine.search("web", query)
            expected = self.reference.search("web", query)
            hits = [(r.url, r.score) for r in response.results]
            want = [(r.url, r.score) for r in expected.results]
            urls = [url for url, __ in hits]
            want_urls = [url for url, __ in want]
            if sorted(urls) != sorted(want_urls):
                self.report.violations.append(
                    f"probe {query!r} diverged at {where}: "
                    f"{len(set(want_urls) - set(urls))} dropped, "
                    f"{len(set(urls) - set(want_urls))} unexpected"
                )
            elif urls != want_urls:
                self.report.violations.append(
                    f"probe {query!r} reordered its results at {where}"
                )
            elif hits != want:
                rescored = sum(a != b for a, b in zip(hits, want))
                self.report.violations.append(
                    f"probe {query!r} ranked {rescored} of {len(hits)} "
                    f"results differently at {where}"
                )
            elif response.total_matches != expected.total_matches:
                self.report.violations.append(
                    f"probe {query!r} total_matches "
                    f"{response.total_matches} != "
                    f"{expected.total_matches} at {where}"
                )

    # -- after the drain ------------------------------------------------------

    def _finish(self) -> None:
        """Check the plan's expectations and read the counters."""
        report, symphony = self.report, self.symphony
        durability = self.plan.durability
        if (durability.get("expect_recovered")
                and report.crashes_recovered < self.scheduled):
            report.violations.append(
                f"durability: only {report.crashes_recovered} of "
                f"{self.scheduled} crashed replicas recovered"
            )
        if (durability.get("expect_digest_match")
                and report.digest_matches < report.crashes_recovered):
            report.violations.append(
                f"durability: {report.digest_matches} digest matches "
                f"for {report.crashes_recovered} recoveries"
            )
        if (durability.get("expect_missed_writes")
                and not report.writes_missed):
            report.violations.append(
                "durability: expected crashed replicas to miss writes; "
                "none were missed"
            )
        metrics = symphony.telemetry.metrics
        if self.reference is not None:
            if self._resharding():
                report.violations.append(
                    "reshard storm did not run to completion")
            events = symphony.telemetry.events
            report.reshards_completed = len(events.by_kind(
                "reshard.complete"))
            report.handoff_batches = len(events.by_kind(
                "reshard.handoff"))
            report.topology_version = symphony.engine.topology_version
            report.docs_moved = int(metrics.counter(
                "controlplane_docs_moved_total").value)
            if report.reshards_completed < self.started:
                report.violations.append(
                    f"only {report.reshards_completed} of "
                    f"{self.started} reshards completed"
                )
        if symphony.slo is not None:
            self._check_slo()
        report.retries = int(metrics.counter("retries_total").value)
        report.retry_exhaustions = int(
            metrics.counter("retry_exhausted_total").value)
        report.hedges = int(metrics.counter("hedges_total").value)
        report.hedge_wins = int(metrics.counter("hedge_wins_total").value)
        report.deadline_events = int(
            metrics.counter("deadline_exceeded_total").value)

    def _check_slo(self) -> None:
        """Fill the report's SLO fields and check the plan's ``expect_*``
        assertions: did the burn alert fire, and does the explain()
        attribution name the fault the plan injected?"""
        report, slo, plan = self.report, self.symphony.slo, self.plan
        fired = [a for a in slo.alerts() if a.get("kind") == "fire"]
        report.slo_burn_alerts = len(fired)
        report.slo_first_alert_ms = (slo.first_burn_ms() or 0)
        if fired and self.workload_started_ms:
            report.slo_detection_ms = (report.slo_first_alert_ms
                                       - self.workload_started_ms)
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
    return _Storm(symphony, plan, app_id, games).run()
