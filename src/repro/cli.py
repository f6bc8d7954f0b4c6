"""Command-line interface: demo and inspection entry points.

Usage::

    python -m repro.cli demo                 # run the GamerQueen demo
    python -m repro.cli dashboard            # the designer's summaries
    python -m repro.cli table1               # regenerate Table I
    python -m repro.cli search "halo review" # query the web vertical
    python -m repro.cli suggest gamespot.com ign.com
    python -m repro.cli stats                # synthetic web statistics
    python -m repro.cli telemetry            # trace one clustered query
    python -m repro.cli telemetry --input t.jsonl  # report an export
    python -m repro.cli chaos --plan examples/chaos_fault_plan.json
    python -m repro.cli gateway              # saturate the front door
    python -m repro.cli gateway --input t.jsonl  # report an export
    python -m repro.cli controlplane         # autoscale a hot shard
    python -m repro.cli controlplane --split 0   # live shard split
    python -m repro.cli slo                  # burn a latency budget
    python -m repro.cli slo --explain worst  # attribute the worst query
    python -m repro.cli durability           # crash + WAL catch-up
    python -m repro.cli durability --storage blob
    python -m repro.cli contracts            # govern a drifting feed
    python -m repro.cli contracts --events   # include the event log
"""

from __future__ import annotations

import argparse
import sys

from repro.core.platform import Symphony
from repro.searchengine.engine import SearchOptions

__all__ = ["main"]


def _build_platform(seed: int, **kwargs) -> Symphony:
    from repro.simweb.generator import WebSpec
    return Symphony(web_spec=WebSpec(seed=seed), **kwargs)


def _build_demo_app(symphony: Symphony) -> tuple:
    """Stand up the GamerQueen demo application.

    Returns ``(app_id, games, session)``.
    """
    account = symphony.register_designer("Ann")
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
    session = symphony.designer().new_application(
        "GamerQueen", account.tenant.tenant_id
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
    return symphony.host(session), games, session


def _cmd_stats(args) -> int:
    symphony = _build_platform(args.seed)
    stats = symphony.web.stats()
    print("Synthetic web:")
    for key, value in stats.items():
        print(f"  {key:<8} {value}")
    print("Topics:", ", ".join(sorted(symphony.web.entities)))
    return 0


def _cmd_search(args) -> int:
    symphony = _build_platform(args.seed)
    options = SearchOptions(count=args.count,
                            sites=tuple(args.site or ()))
    response = symphony.engine.search(args.vertical, args.query,
                                      options)
    print(f"{response.total_matches} matches "
          f"({response.elapsed_ms:.1f} simulated ms)")
    if response.suggestion:
        print(f"did you mean: {response.suggestion!r}?")
    for i, result in enumerate(response.results, start=1):
        print(f"{i:>2}. [{result.score:8.3f}] {result.title}")
        print(f"      {result.url}")
        print(f"      {result.snippet}")
    return 0


def _cmd_suggest(args) -> int:
    symphony = _build_platform(args.seed)
    suggestions = symphony.site_suggest(args.seeds, count=args.count)
    if not suggestions:
        print("no suggestions (no usage data; try after running apps)")
        return 1
    print(f"Sites related to {{{', '.join(args.seeds)}}}:")
    for suggestion in suggestions:
        print(f"  {suggestion.site:<32} {suggestion.score:.5f}")
    return 0


def _cmd_table1(args) -> int:
    from repro.baselines import (
        EureksterPlatform,
        GoogleBasePlatform,
        GoogleCustomSearchPlatform,
        RollyoPlatform,
        YahooBossPlatform,
        build_table_one,
    )
    from repro.baselines.probe import SymphonyProbeAdapter, format_table

    symphony = _build_platform(args.seed)
    table = build_table_one([
        SymphonyProbeAdapter(symphony),
        YahooBossPlatform(symphony.engine, ad_service=symphony.ads),
        RollyoPlatform(symphony.engine),
        EureksterPlatform(symphony.engine),
        GoogleCustomSearchPlatform(symphony.engine),
        GoogleBasePlatform(symphony.engine),
    ])
    print(format_table(table, cell_width=args.width))
    if table["problems"]:
        print("\nconsistency problems:")
        for problem in table["problems"]:
            print(f"  - {problem}")
        return 1
    print("\nall printed claims verified against live probes")
    return 0


def _cmd_demo(args) -> int:
    symphony = _build_platform(args.seed)
    app_id, games, session = _build_demo_app(symphony)
    print(session.describe_canvas())
    query = args.query or games[0]
    response = symphony.query(app_id, query, session_id="cli-demo")
    print()
    print(response.trace.describe())
    print()
    for view in response.views:
        print(f"* {view.item.title}")
        for result in view.supplemental.values():
            for item in result.items:
                print(f"    review: {item.title} ({item.get('site')})")
    return 0


def _cmd_dashboard(args) -> int:
    from repro.analytics.report import designer_dashboard
    symphony = _build_platform(args.seed)
    app_id, games, _ = _build_demo_app(symphony)
    # Three days of traffic: each day searches one more game and clicks
    # its first review.
    for day in range(3):
        session_id = f"cli-dashboard-{day}"
        for game in games[:day + 2]:
            response = symphony.query(app_id, game, session_id=session_id)
            reviews = [item for view in response.views
                       for result in view.supplemental.values()
                       for item in result.items]
            if reviews:
                symphony.record_click(app_id, game, reviews[0].url,
                                      session_id=session_id)
        symphony.clock.advance(86_400_000)
    print(designer_dashboard(symphony, app_id))
    return 0


def _cmd_telemetry(args) -> int:
    from repro.telemetry import load_jsonl, render_report

    if args.input:
        with open(args.input, "r", encoding="utf-8") as fileobj:
            data = load_jsonl(fileobj)
        print(render_report(data))
        return 0

    # No input file: run one traced demo query against a telemetry-
    # enabled clustered deployment and report what it recorded.
    symphony = _build_platform(args.seed, cluster=args.shards,
                               telemetry=True)
    app_id, games, __ = _build_demo_app(symphony)
    query = args.query or games[0]
    symphony.query(app_id, query, session_id="cli-telemetry")
    if args.output:
        count = symphony.export_telemetry(args.output)
        print(f"wrote {count} JSONL lines to {args.output}")
        print()
    if args.prometheus:
        print(symphony.telemetry.render_prometheus())
        return 0
    print(symphony.telemetry_report())
    return 0


def _cmd_chaos(args) -> int:
    from dataclasses import replace

    from repro.errors import ConfigurationError
    from repro.resilience.chaos import (
        FaultPlan,
        load_fault_plan,
        run_chaos,
    )

    try:
        plan = load_fault_plan(args.plan) if args.plan else FaultPlan()
    except ConfigurationError as exc:
        print(exc)
        return 1
    if args.queries:
        plan = replace(plan, queries=args.queries)
    report = run_chaos(plan)
    print(report.render())
    return 0 if report.ok else 1


def _gateway_report_from_export(data: dict) -> str:
    """Summarize gateway activity out of a telemetry JSONL export."""
    lines = ["Gateway report (from telemetry export):"]
    sheds = [e for e in data.get("events", ())
             if e.get("kind") == "gateway.shed"]
    by_reason: dict[str, int] = {}
    for event in sheds:
        reason = event.get("fields", {}).get("reason", "?")
        by_reason[reason] = by_reason.get(reason, 0) + 1
    lines.append(f"  shed events            {len(sheds)}")
    for reason in sorted(by_reason):
        lines.append(f"    {reason:<20} {by_reason[reason]}")
    bumps = [e for e in data.get("events", ())
             if e.get("kind") == "generation.bump"]
    lines.append(f"  generation bumps       {len(bumps)}")
    metrics = data.get("metrics", {})
    for kind in ("counter", "gauge"):
        for name, value in sorted(metrics.get(kind, {}).items()):
            if name.startswith("gateway_"):
                lines.append(f"  {name:<38} {value}")
    for name, summary in sorted(metrics.get("histogram", {}).items()):
        if name.startswith("gateway_"):
            lines.append(
                f"  {name:<38} count={summary.get('count', 0)} "
                f"p50={summary.get('p50', 0):.1f} "
                f"p99={summary.get('p99', 0):.1f}"
            )
    return "\n".join(lines)


def _cmd_gateway(args) -> int:
    from repro.telemetry import load_jsonl

    if args.input:
        with open(args.input, "r", encoding="utf-8") as fileobj:
            data = load_jsonl(fileobj)
        print(_gateway_report_from_export(data))
        return 0

    # No input: saturate a gateway-fronted deployment with a stampede of
    # duplicate queries plus distinct ones, then report what it did.
    from repro.errors import AdmissionRejectedError
    from repro.gateway import GatewayConfig, TenantPolicy

    config = GatewayConfig(
        workers=args.workers,
        default_policy=TenantPolicy(max_queue_depth=args.queue_depth),
    )
    symphony = _build_platform(args.seed, telemetry=True,
                               gateway=config)
    app_id, games, __ = _build_demo_app(symphony)
    submitted = 0
    for round_no in range(args.rounds):
        for game in games:
            # A stampede: every query arrives twice before dispatch.
            for __ in range(2):
                submitted += 1
                try:
                    symphony.gateway.submit(
                        _gateway_request(app_id, game, round_no)
                    )
                except AdmissionRejectedError:
                    pass
        symphony.gateway.pump()
    print(symphony.gateway.describe())
    if args.output:
        count = symphony.export_telemetry(args.output)
        print(f"\nwrote {count} JSONL lines to {args.output}")
    return 0


def _cmd_controlplane(args) -> int:
    from repro.cluster import ClusterConfig
    from repro.controlplane import AutoscalerPolicy
    from repro.errors import ConfigurationError
    from repro.resilience import ResilienceConfig

    symphony = _build_platform(
        args.seed,
        cluster=ClusterConfig(num_shards=args.shards,
                              replicas_per_shard=args.replicas),
        telemetry=True,
        # Hedging is what lets an added replica absorb latency spikes.
        resilience=ResilienceConfig(),
        controlplane=AutoscalerPolicy(
            latency_high_ms=args.latency_high,
            latency_low_ms=args.latency_low,
            breach_rounds=2, cooldown_ticks=2,
            max_replicas=3, split_min_docs=1, merge_max_docs=0,
        ),
    )
    engine = symphony.engine
    lifecycle = symphony.controlplane

    if args.split is not None or args.merge:
        try:
            if args.split is not None:
                migration = lifecycle.begin_split(args.split)
            else:
                migration = lifecycle.begin_merge(*args.merge)
        except ConfigurationError as exc:
            print(exc)
            return 1
        print(f"{migration.kind}: shard {migration.source_id} -> "
              f"{migration.target_id} "
              f"({len(migration.pending)} docs to move)")
        while lifecycle.active:
            state = lifecycle.step()
            response = engine.search("web", "news")
            status = lifecycle.status() or {"pending": 0}
            print(f"  {state:<9} pending={status['pending']:<5} "
                  f"query: {response.total_matches} matches, "
                  f"topology v{engine.topology_version}")
        print(f"done: shards {list(engine.router.snapshot().shard_ids)}"
              f", topology v{engine.topology_version}")
        return 0

    # Autoscale scenario: one shard runs hot (injected latency spikes);
    # watch the control loop add a replica, then split the shard.
    queries = ("news", "travel", "game review", "wine")
    print(f"cluster: {args.shards} shards x {args.replicas} replicas; "
          f"shard {args.hot_shard} hot "
          f"(+{args.spike_ms:.0f}ms spikes)")
    for __ in range(args.ticks):
        for replica in engine.groups[args.hot_shard].replicas:
            replica.inject_latency(args.spike_ms, 2)
        for query in queries:
            engine.search("web", query)
        decision = symphony.autoscaler.tick()
        marker = "*" if decision.acted else " "
        shard = "" if decision.shard_id is None \
            else f" shard={decision.shard_id}"
        print(f" {marker} tick {decision.tick:>2}: "
              f"{decision.action:<14}{shard}  {decision.reason}")
    while lifecycle.active:     # land any still-open split cleanly
        symphony.autoscaler.tick()
    route = engine.router.snapshot()
    print(f"final topology v{route.version}: shards "
          f"{list(route.shard_ids)}, replicas " + ", ".join(
              f"{sid}:{len(engine.groups[sid].replicas)}"
              for sid in route.shard_ids))
    for event in symphony.telemetry.events.by_kind(
            "autoscale.decision"):
        fields = event.fields
        print(f"  decision @tick {fields['tick']}: {fields['action']} "
              f"(shard {fields['shard']}) — {fields['reason']}")
    return 0


def _cmd_slo(args) -> int:
    """Burn an error budget live: a clustered deployment with the SLO
    layer on, one shard degraded mid-run, then the judgment report —
    and optionally the per-query latency attribution."""
    from repro.cluster import ClusterConfig
    from repro.slo import SLOConfig

    config = SLOConfig(
        latency_threshold_ms=args.latency_threshold,
        fast_window_ms=60_000,
        slow_window_ms=600_000,
        burn_threshold=3.0,
        min_events=6,
    )
    symphony = _build_platform(
        args.seed,
        cluster=ClusterConfig(num_shards=args.shards,
                              replicas_per_shard=2),
        slo=config,     # implies telemetry
        # The workload cycles a handful of titles; with the cache on,
        # post-fault repeats would never reach the degraded shard.
        cache_enabled=False,
    )
    app_id, games, __ = _build_demo_app(symphony)
    engine = symphony.engine
    print(f"cluster: {args.shards} shards x 2 replicas; "
          f"shard {args.hot_shard} slow (+{args.spike_ms:.0f}ms) "
          f"from query {args.fault_at} of {args.queries}")
    for index in range(args.queries):
        if index >= args.fault_at:
            for replica in engine.groups[args.hot_shard].replicas:
                replica.inject_latency(args.spike_ms, 4)
        symphony.query(app_id, games[index % len(games)],
                       session_id=f"cli-slo-{index}")
    print()
    print(symphony.slo_report())
    if args.explain:
        query_id = args.explain
        if query_id == "worst":
            worst = symphony.slo.worst_record()
            if worst is None:
                print("\nno breaching queries recorded")
                return 1
            query_id = worst.query_id
        attribution = symphony.explain_query(query_id)
        if attribution is None:
            print(f"\nno spans retained for query {query_id!r}")
            return 1
        print()
        print(attribution.render())
    return 0


def _cmd_durability(args) -> int:
    """Crash one replica under a live write stream, then repair it:
    checkpoint restore + WAL replay + digest proof, with the before and
    after state printed at each stage."""
    from repro.cluster import ClusterConfig
    from repro.durability import DurabilityConfig, content_digest
    from repro.errors import ConfigurationError
    from repro.searchengine.documents import FieldedDocument
    from repro.searchengine.engine import Vertical

    symphony = _build_platform(
        args.seed,
        cluster=ClusterConfig(num_shards=args.shards,
                              replicas_per_shard=args.replicas),
        telemetry=True,
        durability=DurabilityConfig(
            storage=args.storage,
            checkpoint_every=args.checkpoint_every,
        ),
    )
    engine = symphony.engine
    durability = symphony.durability
    shard, replica_index = args.crash_shard, args.crash_replica
    try:
        replica = durability.replica(shard, replica_index)
    except ConfigurationError as exc:
        print(exc)
        return 1

    def ingest(start: int, count: int) -> None:
        for number in range(start, start + count):
            engine.add_document(Vertical.WEB, FieldedDocument(
                f"cli-durability-{number}",
                {"title": f"durability doc {number}",
                 "url": f"http://durability.example/{number}"},
                None,
            ))

    print(f"cluster: {args.shards} shards x {args.replicas} replicas, "
          f"WAL storage={args.storage!r}, "
          f"checkpoint every {args.checkpoint_every} records")
    ingest(0, args.docs)
    print(f"ingested {args.docs} docs; shard {shard} WAL head at "
          f"lsn {durability.wal.last_lsn(shard)}")

    durability.crash_replica(shard, replica_index)
    ingest(args.docs, args.docs)
    print(f"\ncrashed {replica.replica_id}, then ingested "
          f"{args.docs} more docs:")
    print(f"  writes missed        {replica.writes_missed}")
    print(f"  docs on crashed node "
          f"{sum(len(v.index) for v in replica.verticals.values())}")
    queries = sum(1 for __ in range(4)
                  if engine.search("web", "durability doc"))
    print(f"  queries while down   {queries} answered "
          f"(reads on crashed node: {replica.reads_served})")

    report = durability.recover_replica(shard, replica_index)
    print(f"\nrecovered {replica.replica_id}:")
    print(f"  checkpoint lsn       {report.checkpoint_lsn} "
          f"({report.docs_restored} docs restored)")
    print(f"  WAL records replayed {report.records_replayed}")
    print(f"  catch-up (sim)       {report.catch_up_ms:.1f}ms")
    match = report.digest_match
    print(f"  digest vs peer       "
          f"{'match' if match else 'n/a (single replica)' if match is None else 'MISMATCH'}")
    peer = engine.groups[shard].primary()
    agree = content_digest(peer) == content_digest(replica)
    print(f"  back in rotation     {replica.healthy} "
          f"(state agrees with {peer.replica_id}: {agree})")
    return 0 if report.converged and agree else 1


def _gateway_request(app_id: str, query: str, round_no: int):
    from repro.core.runtime import QueryRequest
    return QueryRequest(app_id=app_id, query_text=query,
                        session_id=f"cli-gateway-{round_no}")


def _cmd_federation(args) -> int:
    """Compare fusion methods and query-generator strategies on a
    golden set of entity queries over a mixed backend registry."""
    from repro.baselines import RollyoPlatform, YahooBossPlatform
    from repro.federation import (
        FUSION_METHODS,
        STRATEGY_NAMES,
        FederationExecutor,
        baseline_backend,
    )

    symphony = _build_platform(args.seed)
    executor = FederationExecutor.for_platform(symphony)
    sites = sorted({page.site for page in symphony.web.pages.values()})
    executor.registry.add(baseline_backend(
        RollyoPlatform(symphony.engine), sites=tuple(sites[:3]),
    ))
    executor.registry.add(baseline_backend(
        YahooBossPlatform(symphony.engine, ad_service=symphony.ads),
    ))
    backend_ids = executor.registry.ids()
    print("federated meta-search over backends: "
          + ", ".join(backend_ids))

    golden = _golden_entity_queries(symphony.web, args.queries)
    print(f"golden queries: {len(golden)} entities, "
          f"judged on entity-page URLs\n")

    count = args.count

    def recall(urls, relevant):
        return (len(set(urls[:count]) & relevant) / len(relevant)
                if relevant else 0.0)

    single = {}
    for backend_id in backend_ids:
        scores = [
            recall([i.url for i in executor.search(
                text, backend_ids=(backend_id,), count=count,
            ).items], relevant)
            for text, __, relevant in golden
        ]
        single[backend_id] = sum(scores) / len(scores)
    best_id = max(sorted(single), key=lambda b: single[b])

    print(f"fusion methods (recall@{count}, fused vs single backends)")
    for backend_id in backend_ids:
        marker = "  <- best single" if backend_id == best_id else ""
        print(f"  single:{backend_id:<14} {single[backend_id]:.3f}"
              f"{marker}")
    for method in FUSION_METHODS:
        scores = [
            recall([i.url for i in executor.search(
                text, count=count, fusion=method,
            ).items], relevant)
            for text, __, relevant in golden
        ]
        fused = sum(scores) / len(scores)
        delta = fused - single[best_id]
        print(f"  fused:{method:<15} {fused:.3f}  ({delta:+.3f} "
              f"vs best single)")

    print(f"\nquery-generator strategies (precision@{count} / cost)")
    lab = executor.lab
    # The fusion comparison above already charged the default strategy's
    # ledger; start the strategy shoot-out from a clean slate.
    lab.stats.clear()
    for strategy in STRATEGY_NAMES:
        for text, entity, relevant in golden:
            result = executor.search(
                text, count=count, strategy=strategy,
                context={"entity": entity},
            )
            lab.account(strategy,
                        [i.url for i in result.items], relevant)
    header = (f"  {'strategy':<10} {'queries':>7} {'cost':>8} "
              f"{'precision':>9} {'cost/relevant':>13}")
    print(header)
    for row in lab.report():
        cpr = row["cost_per_relevant"]
        cpr_text = "inf" if cpr == float("inf") else f"{cpr:.2f}"
        print(f"  {row['strategy']:<10} {row['queries']:>7} "
              f"{row['cost']:>8.1f} {row['precision']:>9.3f} "
              f"{cpr_text:>13}")
    return 0


def _golden_entity_queries(web, limit: int) -> list:
    """(query_text, entity, relevant-URL set) per entity, judged by the
    synthetic web's own entity field."""
    by_entity: dict = {}
    for page in web.pages.values():
        if page.entity:
            by_entity.setdefault(page.entity, set()).add(page.url)
    golden = []
    for entity in sorted(by_entity):
        if len(by_entity[entity]) < 2:
            continue
        golden.append((entity, entity, by_entity[entity]))
        if len(golden) >= limit:
            break
    return golden


def _cmd_contracts(args) -> int:
    """Govern a drifting feed live: the committed drifted-feed
    scenario (clean refreshes, silent producer drift, feed outage,
    contract update + quarantine replay), then the contract-status
    report and the rows still held in quarantine. Exits non-zero if
    any governance invariant failed."""
    from repro.contracts.scenario import run_drifted_feed

    symphony = _build_platform(args.seed, slo=True)
    report = run_drifted_feed(symphony)
    print(report.render())
    print()
    print(report.status_text)
    print()
    print("Quarantine")
    print("==========")
    held = 0
    for tenant_id, table in symphony.contracts.quarantine.tables():
        for entry in symphony.contracts.quarantined_rows(
                tenant_id, table):
            held += 1
            print(f"  {tenant_id}/{table} #{entry.seq} "
                  f"(source={entry.source or 'upload'}): {entry.row}")
            for violation in entry.violations:
                print(f"      - {violation.message}")
    if not held:
        print("  (empty)")
    if args.events:
        print()
        print("Event timeline")
        print("==============")
        for timestamp_ms, kind in report.events:
            print(f"  t={timestamp_ms:>6}ms  {kind}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Symphony reproduction command-line interface",
    )
    parser.add_argument("--seed", type=int, default=2010,
                        help="synthetic-web seed (default 2010)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", help="synthetic web statistics")

    search = sub.add_parser("search", help="query a search vertical")
    search.add_argument("query")
    search.add_argument("--vertical", default="web",
                        choices=("web", "image", "video", "news"))
    search.add_argument("--count", type=int, default=5)
    search.add_argument("--site", action="append",
                        help="restrict to this site (repeatable)")

    suggest = sub.add_parser("suggest",
                             help="Site Suggest for seed sites")
    suggest.add_argument("seeds", nargs="+")
    suggest.add_argument("--count", type=int, default=5)

    table1 = sub.add_parser("table1",
                            help="regenerate the paper's Table I")
    table1.add_argument("--width", type=int, default=22)

    demo = sub.add_parser("demo", help="run the GamerQueen demo")
    demo.add_argument("--query", default="")

    sub.add_parser("dashboard",
                   help="the designer dashboard after a seeded "
                        "run of demo traffic (§II-A summaries)")

    telemetry = sub.add_parser(
        "telemetry",
        help="trace a demo query (or report an exported JSONL file)",
    )
    telemetry.add_argument("--query", default="",
                           help="query to trace (default: first game)")
    telemetry.add_argument("--shards", type=int, default=2,
                           help="cluster shard count (default 2)")
    telemetry.add_argument("--input", default="",
                           help="report a previously exported JSONL "
                                "file instead of running a query")
    telemetry.add_argument("--output", default="",
                           help="also export collected telemetry as "
                                "JSONL to this path")
    telemetry.add_argument("--prometheus", action="store_true",
                           help="print Prometheus text exposition "
                                "instead of the report")

    chaos = sub.add_parser(
        "chaos",
        help="run a chaos fault plan and check resilience invariants",
    )
    chaos.add_argument("--plan", default="",
                       help="path to a fault-plan JSON file (default: "
                            "built-in defaults)")
    chaos.add_argument("--queries", type=int, default=0,
                       help="override the plan's query count")

    gateway = sub.add_parser(
        "gateway",
        help="saturate the serving gateway (or report an export)",
    )
    gateway.add_argument("--rounds", type=int, default=3,
                         help="stampede rounds to submit (default 3)")
    gateway.add_argument("--workers", type=int, default=4,
                         help="modeled dispatch parallelism")
    gateway.add_argument("--queue-depth", type=int, default=16,
                         help="per-tenant queue bound (default 16)")
    gateway.add_argument("--input", default="",
                         help="report a previously exported telemetry "
                              "JSONL file instead of running traffic")
    gateway.add_argument("--output", default="",
                         help="also export collected telemetry as "
                              "JSONL to this path")

    controlplane = sub.add_parser(
        "controlplane",
        help="watch the autoscaler react to a hot shard, or drive a "
             "live shard split/merge",
    )
    controlplane.add_argument("--shards", type=int, default=2,
                              help="initial shard count (default 2)")
    controlplane.add_argument("--replicas", type=int, default=2,
                              help="replicas per shard (default 2)")
    controlplane.add_argument("--ticks", type=int, default=14,
                              help="autoscaler control-loop ticks")
    controlplane.add_argument("--hot-shard", type=int, default=0,
                              help="shard receiving latency spikes")
    controlplane.add_argument("--spike-ms", type=float, default=80.0,
                              help="injected replica latency per tick")
    controlplane.add_argument("--latency-high", type=float,
                              default=30.0,
                              help="scale-up threshold (windowed mean)")
    controlplane.add_argument("--latency-low", type=float, default=5.0,
                              help="scale-down threshold")
    controlplane.add_argument("--split", type=int, default=None,
                              metavar="SHARD",
                              help="instead: split SHARD live and show "
                                   "each migration step")
    controlplane.add_argument("--merge", type=int, nargs=2,
                              default=None,
                              metavar=("SOURCE", "TARGET"),
                              help="instead: merge SOURCE into TARGET")

    slo = sub.add_parser(
        "slo",
        help="burn an error budget against a degraded shard and "
             "report budgets, alerts, and latency attribution",
    )
    slo.add_argument("--queries", type=int, default=20,
                     help="queries to run (default 20)")
    slo.add_argument("--shards", type=int, default=2,
                     help="cluster shard count (default 2)")
    slo.add_argument("--hot-shard", type=int, default=1,
                     help="shard to degrade (default 1)")
    slo.add_argument("--spike-ms", type=float, default=500.0,
                     help="injected latency per read (default 500)")
    slo.add_argument("--fault-at", type=int, default=5,
                     help="query index the fault starts at (default 5)")
    slo.add_argument("--latency-threshold", type=float, default=400.0,
                     help="latency SLO threshold in ms (default 400)")
    slo.add_argument("--explain", default="",
                     metavar="QUERY_ID",
                     help="also print latency attribution for this "
                          "query id ('worst' picks the worst breach)")

    durability = sub.add_parser(
        "durability",
        help="crash a replica under a write stream, repair it from "
             "checkpoint + WAL replay, and prove convergence",
    )
    durability.add_argument("--shards", type=int, default=2,
                            help="cluster shard count (default 2)")
    durability.add_argument("--replicas", type=int, default=2,
                            help="replicas per shard (default 2)")
    durability.add_argument("--docs", type=int, default=40,
                            help="docs ingested before and after the "
                                 "crash (default 40 each)")
    durability.add_argument("--crash-shard", type=int, default=0,
                            help="shard losing a replica (default 0)")
    durability.add_argument("--crash-replica", type=int, default=1,
                            help="replica index to crash (default 1)")
    durability.add_argument("--storage", default="memory",
                            choices=("memory", "blob"),
                            help="WAL storage backend")
    durability.add_argument("--checkpoint-every", type=int, default=24,
                            help="auto-checkpoint cadence in WAL "
                                 "records (default 24)")

    federation = sub.add_parser(
        "federation",
        help="compare rank-fusion methods and query-generator "
             "strategies on a golden entity query set",
    )
    federation.add_argument("--queries", type=int, default=8,
                            help="golden entity queries (default 8)")
    federation.add_argument("--count", type=int, default=10,
                            help="fused results judged per query")

    contracts = sub.add_parser(
        "contracts",
        help="run the drifted-feed governance scenario: drift "
             "detection, quarantine + replay, freshness alerting",
    )
    contracts.add_argument("--events", action="store_true",
                           help="also print the contract/refresh "
                                "event timeline")
    return parser


_COMMANDS = {
    "stats": _cmd_stats,
    "search": _cmd_search,
    "suggest": _cmd_suggest,
    "table1": _cmd_table1,
    "demo": _cmd_demo,
    "dashboard": _cmd_dashboard,
    "telemetry": _cmd_telemetry,
    "chaos": _cmd_chaos,
    "gateway": _cmd_gateway,
    "controlplane": _cmd_controlplane,
    "slo": _cmd_slo,
    "durability": _cmd_durability,
    "federation": _cmd_federation,
    "contracts": _cmd_contracts,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
