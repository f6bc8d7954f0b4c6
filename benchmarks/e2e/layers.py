"""Per-layer metrics: counts from the layers' public ``stats()`` /
``status()`` / ``metrics.snapshot()`` around the untraced run, times
from the spans of the traced run. A layer that is off, or a wrap
target that no longer exists, reads 0."""

from __future__ import annotations

import statistics

from benchmarks.e2e.trace import SpanTable

__all__ = ["snapshot", "count_metrics", "span_metrics", "QUERY_KINDS"]

#: Operation kinds that answer exactly one customer-facing query.
QUERY_KINDS = ("query", "probe", "bulk")

_SEARCH = ("engine.search", "cluster.search")
_SEARCH_STEPS = ("engine.parse_query", "engine.evaluate_candidates",
                 "engine.rank_candidates", "engine.materialize_result")
_ENGINE_SPANS = (*_SEARCH, *_SEARCH_STEPS, "index.add", "index.remove")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter_sum(counters: dict, name: str) -> float:
    """A counter summed over its label sets (``name`` or ``name{...}``)."""
    return sum(value for key, value in counters.items()
               if key == name or key.startswith(name + "{"))


def snapshot(platform) -> dict:
    """Lifetime counters of every layer that keeps some, read through
    public accessors only."""
    sym = platform.sym
    cache = sym.runtime.cache.stats()
    snap = {
        "result_cache_hits": cache["hits"],
        "result_cache_misses": cache["misses"],
        "searches": sum(1 for event in sym.engine.log.queries
                        if event.vertical != "app"),
    }
    if sym.gateway is not None:
        stats = sym.gateway.stats()
        snap.update(
            gateway_submitted=stats["submitted"],
            gateway_coalesced=stats["coalesced"],
            gateway_shed=stats["shed_total"],
            gateway_cache_hits=stats["cache"]["hits"],
            gateway_cache_misses=stats["cache"]["misses"],
        )
    if sym.telemetry.enabled:
        metrics = sym.telemetry.metrics.snapshot()
        counters = metrics["counter"]
        snap.update(
            spans=len(sym.telemetry.tracer.spans),
            events=len(sym.telemetry.events) + sym.telemetry.events.dropped,
            series=sum(len(group) for group in metrics.values()),
            retries=_counter_sum(counters, "retries_total"),
            deadline_exceeded=_counter_sum(
                counters, "deadline_exceeded_total"),
            hedges=_counter_sum(counters, "hedges_total"),
            checkpoints=_counter_sum(
                counters, "durability_checkpoints_total"),
        )
    if sym.durability.enabled:
        shards = sym.durability.status()["shards"].values()
        snap["wal_records"] = sum(s["wal_records"] for s in shards)
    if sym.contracts.enabled:
        snap["quarantined"] = sum(
            table["quarantined"]
            for table in sym.contract_status()["tables"])
    return snap


def count_metrics(before: dict, after: dict, queries: int) -> dict:
    """Count-type layer metrics over the timed section."""
    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    searches = delta("searches")
    return {
        "runtime.result_cache_hit_ratio": _ratio(
            delta("result_cache_hits"),
            delta("result_cache_hits") + delta("result_cache_misses")),
        "searchengine.searches_per_query": _ratio(searches, queries),
        "gateway.cache_hit_ratio": _ratio(
            delta("gateway_cache_hits"),
            delta("gateway_cache_hits") + delta("gateway_cache_misses")),
        "gateway.coalesced_ratio": _ratio(
            delta("gateway_coalesced"), delta("gateway_submitted")),
        "gateway.shed_ratio": _ratio(
            delta("gateway_shed"), delta("gateway_submitted")),
        "telemetry.spans_per_query": _ratio(delta("spans"), queries),
        "telemetry.events_per_query": _ratio(delta("events"), queries),
        "telemetry.series_count": after.get("series", 0),
        "resilience.retries_per_query": _ratio(delta("retries"), queries),
        "resilience.deadline_exceeded_total": delta("deadline_exceeded"),
        "resilience.hedges_per_search": _ratio(delta("hedges"), searches),
        "durability.wal_records": delta("wal_records"),
        "durability.checkpoints": delta("checkpoints"),
        "contracts.quarantined_rows": delta("quarantined"),
    }


def span_metrics(table: SpanTable, uploaded_rows: int) -> dict:
    """Time-type layer metrics from the traced run's spans."""
    roots = table.roots()
    queries = sum(1 for span in roots
                  if span.name.removeprefix("op:") in QUERY_KINDS)
    searches = table.count(*_SEARCH)
    scatters = table.named("cluster.scatter")
    skews = []
    shard_busy = 0
    for scatter in scatters:
        shards = [s.duration for s in table.children[scatter.span_id]]
        shard_busy += sum(shards)
        if shards and sum(shards):
            skews.append(max(shards) / statistics.fmean(shards))
    rebuilds = [
        span for span in table.named("datasource.proprietary")
        if any(child.name == "index.add"
               for child in table.children[span.span_id])
    ]
    rebuild_ms = table.ms(sum(
        child.duration for span in rebuilds
        for child in table.children[span.span_id]
        if child.name == "index.add"))
    gateway = table.named("gateway.query")
    misses = [s.duration for s in gateway if table.children[s.span_id]]
    hits = [s.duration for s in gateway if not table.children[s.span_id]]
    analyze_calls = sum(
        span.calls for span in table.named(*_SEARCH, *_SEARCH_STEPS))
    writes = table.count("cluster.replicated_write")
    uploads = table.count("ingest.ingest")
    root_ms = table.ms(sum(span.duration for span in roots))
    return {
        "runtime.self_ms_per_query": _ratio(
            table.self_ms("runtime.handle_query"), queries),
        "runtime.source_calls_per_query": _ratio(
            table.count("datasource.proprietary", "datasource.web",
                        "datasource.ads"), queries),
        "datasources.proprietary_ms_per_query": _ratio(
            table.total_ms("datasource.proprietary"), queries),
        "datasources.web_ms_per_query": _ratio(
            table.total_ms("datasource.web"), queries),
        "datasources.reindex_count": len(rebuilds),
        "datasources.reindex_ms_per_rebuild": _ratio(
            rebuild_ms, len(rebuilds)),
        "presentation.render_ms_per_query": _ratio(
            table.total_ms("presentation.render_app"), queries),
        "searchengine.parse_ms_per_search": _ratio(
            table.total_ms("engine.parse_query"), searches),
        "searchengine.evaluate_ms_per_search": _ratio(
            table.total_ms("engine.evaluate_candidates"), searches),
        "searchengine.rank_ms_per_search": _ratio(
            table.total_ms("engine.rank_candidates"), searches),
        "searchengine.materialize_ms_per_search": _ratio(
            table.total_ms("engine.materialize_result"), searches),
        "searchengine.candidates_per_search": _ratio(
            table.size("engine.evaluate_candidates"), searches),
        "searchengine.scored_per_result": _ratio(
            table.size("engine.rank_candidates"),
            table.count("engine.materialize_result")),
        "searchengine.analyze_calls_per_search": _ratio(
            analyze_calls, searches),
        "searchengine.index_add_ms_per_doc": _ratio(
            table.total_ms("index.add"), table.count("index.add")),
        "searchengine.index_remove_ms_per_doc": _ratio(
            table.total_ms("index.remove"), table.count("index.remove")),
        "searchengine.busy_share": _ratio(
            table.self_ms(*_ENGINE_SPANS), root_ms),
        "cluster.scatter_rounds_per_search": _ratio(
            len(scatters), table.count("cluster.search")),
        "cluster.gather_wait_ms_per_search": _ratio(
            table.total_ms("cluster.scatter"),
            table.count("cluster.search")),
        "cluster.coordinator_self_ms_per_search": _ratio(
            table.self_ms("cluster.search", "cluster.scatter"),
            table.count("cluster.search")),
        "cluster.shard_busy_ms_per_search": _ratio(
            table.ms(shard_busy), table.count("cluster.search")),
        "cluster.shard_skew_ratio": (statistics.fmean(skews)
                                     if skews else 0.0),
        "cluster.shard_errors": sum(
            1 for span in table.named("replica.run",
                                      "replica.run_annotated")
            if span.error),
        "cluster.write_ms_per_doc": _ratio(
            table.total_ms("cluster.replicated_write"), writes),
        "gateway.self_ms_per_query": _ratio(
            table.self_ms("gateway.query"), len(gateway)),
        "gateway.hit_path_p50_us": (table.ms(statistics.median(hits)) * 1e3
                                    if hits else 0.0),
        "gateway.miss_path_p50_ms": (table.ms(statistics.median(misses))
                                     if misses else 0.0),
        "slo.observe_ms_per_query": _ratio(
            table.total_ms("slo.observe"), queries),
        "durability.append_ms_per_doc": _ratio(
            table.total_ms("durability.append"), writes),
        "durability.checkpoint_ms_total": table.total_ms(
            "durability.checkpoint_shard"),
        "contracts.apply_ms_per_row": _ratio(
            table.total_ms("contracts.apply"), uploaded_rows),
        "storage.upsert_ms_per_row": _ratio(
            table.total_ms("storage.upsert"),
            table.count("storage.upsert")),
        "storage.insert_ms_per_row": _ratio(
            table.total_ms("storage.insert_rows"),
            table.size("storage.insert_rows")),
        "ingest.parse_ms_per_row": _ratio(
            table.total_ms("ingest.rows_from_payload"),
            table.size("ingest.rows_from_payload")),
        "ingest.self_ms_per_upload": _ratio(
            table.self_ms("ingest.ingest"), uploads),
        "services.ads_ms_per_query": _ratio(
            table.total_ms("datasource.ads"), queries),
    }
