"""The clustered search engine: shards × replicas behind one facade.

:class:`ClusteredSearchEngine` exposes the
:class:`~repro.searchengine.engine.SearchEngine` query contract —
options, logging, spelling suggestion (facets stay a single-node
method) — over a document-partitioned, replicated index cluster:

* **Statistics:** BM25 on a shard must see corpus-wide document
  counts, field lengths and per-term document frequencies, or idf
  drifts from single-node scoring. The coordinator keeps one merged
  :class:`CorpusStats` per vertical, keyed on (that vertical's corpus
  generation, route-map version). A query whose terms are all in the
  entry skips straight to execution; otherwise it first runs one
  ``stats`` scatter round over all of its terms, and the entry takes
  the merged result only when every routed shard answered. Every write
  goes through :meth:`ClusteredSearchEngine.replicated_write`, which
  advances the vertical's corpus generation, and every reshard cutover
  bumps the route-map version, so a cached entry is never stale.
* **Execution scatter:** every shard runs the single-node engine's
  per-index search (:func:`~repro.searchengine.engine.execute_query`)
  on its own partition, handing the scorer the merged statistics in
  place of the shard's own; the gatherer heap-merges the sorted shard
  lists into the global top-k.
* **Batches:** :meth:`ClusteredSearchEngine.search_many` answers several
  queries on one vertical with one statistics check over all their
  terms and one execution round, in which each shard runs every query
  under a single replica attempt; :meth:`~ClusteredSearchEngine.search`
  is a batch of one.

Shard tasks run one after another on the calling thread; shards are
parallel in the cost model only — simulated latency is the *max* over
shards (plus the fixed overhead) instead of the single-node sum, the
whole point of partitioning.

When every replica of a shard is down (killed or faulted out), the
query degrades instead of failing: the response carries the
surviving shards' results with ``degraded=True`` and the failed shard
ids, so applications keep rendering. The survivors are scored under
the last complete statistics when the entry is warm, and under what
the surviving shards reported when the shard was lost in the
``stats`` round.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from repro.gateway.generations import (
    TOPOLOGY_KEY,
    GenerationRegistry,
    corpus_key,
)
from repro.searchengine.engine import (
    SearchOptions,
    SearchResponse,
    Vertical,
    apply_options_to_ast,
    simulated_latency_ms,
)
from repro.searchengine.logs import QueryEvent, QueryLog
from repro.searchengine.query import extract_terms, parse_query
from repro.searchengine.spelling import SpellingCorrector
from repro.searchengine.stats import CorpusStats
from repro.telemetry import Telemetry
from repro.util import SimClock

from repro.cluster.executor import ScatterGatherExecutor, merge_ranked
from repro.cluster.replica import IndexState, ReplicaGroup, ShardReplica
from repro.cluster.sharding import ShardRouter

__all__ = [
    "ClusterConfig",
    "ClusterSearchResponse",
    "ClusteredSearchEngine",
    "build_clustered_engine",
]

#: Most distinct terms one vertical's cached statistics hold; a cold
#: round that would pass it starts the entry over.
STATS_CACHE_TERMS = 2048


@dataclass(frozen=True)
class ClusterConfig:
    """Opt-in cluster shape: shard count, redundancy, failover limit."""

    num_shards: int = 4
    replicas_per_shard: int = 1
    failure_threshold: int = 3         # consecutive errors -> replica out

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if self.replicas_per_shard <= 0:
            raise ValueError("replicas_per_shard must be positive")


@dataclass(frozen=True)
class ClusterSearchResponse(SearchResponse):
    """A :class:`SearchResponse` plus cluster health annotations."""

    shards_total: int = 0
    shards_ok: int = 0
    failed_shards: tuple = ()
    deadline_overrun: bool = False


def _unique_by_doc(merged):
    """Drop repeated doc_ids from an already globally ranked stream."""
    seen: set = set()
    for doc_id, score, shard_id in merged:
        if doc_id in seen:
            continue
        seen.add(doc_id)
        yield doc_id, score, shard_id


def _upsert(replica, vertical, document) -> None:
    """Dual-write add that tolerates the copy stream having arrived first."""
    if document.doc_id not in replica.vertical(vertical).index:
        replica.add(vertical, document)


def _discard(replica, vertical, doc_id: str) -> None:
    """Dual-write remove that tolerates the document not having copied yet."""
    if doc_id in replica.vertical(vertical).index:
        replica.remove(vertical, doc_id)


class ClusteredSearchEngine:
    """Scatter-gather query engine over sharded, replicated indexes."""

    def __init__(self, groups: list, router: ShardRouter,
                 authority: dict | None = None,
                 clock: SimClock | None = None,
                 log: QueryLog | None = None,
                 config: ClusterConfig | None = None,
                 telemetry: Telemetry | None = None,
                 hedge=None, generations=None) -> None:
        if len(groups) != router.num_shards:
            raise ValueError("one replica group per shard required")
        self.groups = list(groups)
        self.router = router
        self.authority = authority if authority is not None else {}
        self.clock = clock or SimClock()
        self.log = log or QueryLog()
        self.config = config or ClusterConfig(num_shards=len(groups))
        self.telemetry = telemetry or Telemetry.disabled()
        self._tracer = self.telemetry.tracer
        self._metrics = self.telemetry.metrics
        self.hedge_policy = hedge
        for group in self.groups:
            self._adopt(group)
        self.executor = ScatterGatherExecutor()
        # Installed by repro.controlplane during a live migration: maps
        # a doc_id to the extra shard(s) that must also see its writes
        # (dual-write window). None on the clean path.
        self.write_fanout = None
        # Installed by repro.durability: every mutation is appended to
        # the owning shard's write-ahead log (monotonic LSN) before it
        # is applied, so a crashed replica can be caught back up. None
        # keeps the write path log-free.
        self.durability = None
        # Analyzer / field / parameter reference, independent of replica
        # health (identical to what every replica was built with).
        from repro.searchengine.engine import make_vertical_indexes
        self._reference = make_vertical_indexes(self.authority)
        # Every replicated write advances its vertical's corpus
        # generation: whatever was merged from a vertical's shards
        # (statistics, spelling vocabulary) is current only at the
        # generation it was merged at, and so is any cached answer.
        self._generations = generations or GenerationRegistry()
        # vertical -> ((generation, route-map version), merged
        # CorpusStats, the terms its doc frequencies cover)
        self._stats: dict = {}
        # (vertical, its statistics key) -> corrector
        self._correctors: dict = {}
        # (phase, shard id) -> its shard-task span name, built once: a
        # tracer keeps every finished span, and with it the name
        self._task_spans: dict[tuple, str] = {}

    # -- topology ------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    @property
    def topology_version(self) -> int:
        return self.router.topology_version

    def active_groups(self, route=None) -> list:
        """The replica groups the given (default: current) route map
        scatters to. Groups left dormant by a merge are excluded."""
        route = route if route is not None else self.router.snapshot()
        return [self.groups[shard_id] for shard_id in route.shard_ids]

    def _adopt(self, group: ReplicaGroup) -> None:
        """Hand a replica group this engine's instruments and hedging."""
        group.tracer = self._tracer
        group.events = self.telemetry.events
        group.metrics = self._metrics
        if self.hedge_policy is not None:
            group.enable_hedging(self.hedge_policy)

    def register_shard(self, group: ReplicaGroup) -> None:
        """Attach a new (initially unrouted) replica group.

        The control plane builds the group, registers it here, streams
        documents into it, and only then flips the route map — queries
        never scatter to a shard that is still filling.
        """
        if group.shard_id != len(self.groups):
            raise ValueError(
                f"new shard id must be {len(self.groups)}, "
                f"got {group.shard_id}"
            )
        self._adopt(group)
        self.groups.append(group)

    def apply_route(self, route_map) -> None:
        """Atomically flip the cluster to a successor route map."""
        self.router.apply(route_map)

    def reference_vertical(self, vertical):
        return self._reference[Vertical(vertical)]

    def shard_doc_count(self, shard_id: int) -> int:
        """Documents held by one shard, across all verticals."""
        replica = self.groups[shard_id].primary()
        return sum(replica.doc_count(vertical)
                   for vertical in replica.verticals)

    # -- ops hooks ------------------------------------------------------------

    def kill_replica(self, shard_id: int, replica_index: int) -> None:
        self.groups[shard_id].kill(replica_index)

    def revive_replica(self, shard_id: int, replica_index: int) -> None:
        self.groups[shard_id].revive(replica_index)

    # -- incremental writes (replicated to every replica of the shard) --------

    def _extra_write_shards(self, doc_id: str, primary: int) -> tuple:
        if self.write_fanout is None:
            return ()
        return tuple(shard_id for shard_id in self.write_fanout(doc_id)
                     if shard_id != primary)

    def replicated_write(self, shard_id: int, op: str, vertical,
                         document=None, doc_id: str | None = None,
                         tolerant: bool = False) -> None:
        """Apply one mutation to every intact replica of one shard.

        When a durability layer is attached the mutation is first
        appended to the shard's write-ahead log; each replica that
        applies it advances its ``applied_lsn`` to the record's LSN, so
        a crashed replica's recovery knows exactly which log tail it
        missed. ``tolerant`` writes (resharding dual-writes and handoff
        batches) upsert/discard instead of raising on duplicates or
        absences, since the copy stream may race them.
        """
        lsn = 0
        if self.durability is not None:
            lsn = self.durability.append(
                shard_id, op, vertical, document=document, doc_id=doc_id
            ).lsn
        if op == "add":
            def mutate(replica):
                if tolerant:
                    _upsert(replica, vertical, document)
                else:
                    replica.add(vertical, document)
        elif op == "remove":
            def mutate(replica):
                if tolerant:
                    _discard(replica, vertical, doc_id)
                else:
                    replica.remove(vertical, doc_id)
        else:
            raise ValueError(f"unknown write op {op!r}")

        def write(replica):
            mutate(replica)
            if lsn:
                replica.applied_lsn = lsn
        try:
            self.groups[shard_id].broadcast(write)
        finally:
            # Advanced even when a replica raised part-way: some may
            # have applied the write.
            self._generations.advance(corpus_key(Vertical(vertical).value))
        if self.durability is not None:
            self.durability.after_write(shard_id)

    def add_document(self, vertical, document) -> int:
        """Route and index one document; returns the owning shard id.

        During a live migration the control plane fans the write out to
        the other side of the handoff as well (idempotently, since the
        copy stream may already have delivered the document there).
        """
        shard_id = self.router.shard_of(document.doc_id)
        self.replicated_write(shard_id, "add", vertical,
                              document=document)
        for extra in self._extra_write_shards(document.doc_id, shard_id):
            self.replicated_write(extra, "add", vertical,
                                  document=document, tolerant=True)
        return shard_id

    def remove_document(self, vertical, doc_id: str) -> int:
        shard_id = self.router.shard_of(doc_id)
        self.replicated_write(shard_id, "remove", vertical,
                              doc_id=doc_id)
        for extra in self._extra_write_shards(doc_id, shard_id):
            self.replicated_write(extra, "remove", vertical,
                                  doc_id=doc_id, tolerant=True)
        return shard_id

    # -- the SearchEngine contract --------------------------------------------

    def _shard_task(self, group, phase: str, fn, annotated: bool = False):
        """Wrap ``group.run(fn)`` in a per-shard span.

        The executor runs the task on the scattering thread, so the
        span parents beneath the phase span that is current there.
        Names are unique per shard (``exec:shard-3``) and built once
        per (phase, shard).

        With ``annotated=True`` the task returns the group's
        ``(result, meta)`` pair, carrying per-attempt latency and
        hedging outcomes for the gather phase's cost accounting.
        """
        tracer = self._tracer
        runner = group.run_annotated if annotated else group.run
        if not tracer.enabled:
            return lambda: runner(fn)
        key = (phase, group.shard_id)
        label = self._task_spans.get(key)
        if label is None:
            label = self._task_spans[key] = f"{phase}:shard-{group.shard_id}"

        def task():
            with tracer.span(label):
                return runner(fn)
        return task

    def generation_keys(self, vertical) -> tuple:
        """The vertical's corpus plus the shard layout: a reshard
        cutover changes what every shard holds."""
        return (corpus_key(Vertical(vertical).value), TOPOLOGY_KEY)

    def search(self, vertical, query_text: str,
               options: SearchOptions | None = None,
               app_id: str | None = None,
               session_id: str | None = None,
               deadline=None) -> ClusterSearchResponse:
        """Scatter ``query_text`` across shards and gather global top-k:
        a :meth:`search_many` of one."""
        return self.search_many(vertical, [(query_text, options)],
                                app_id, session_id, deadline)[0]

    def search_many(self, vertical, requests,
                    app_id: str | None = None,
                    session_id: str | None = None,
                    deadline=None) -> list:
        """One :class:`ClusterSearchResponse` per ``(query_text,
        options)`` of ``requests``, each what :meth:`search` answers at
        the same instant.

        The batch shares only the work: one ``now_ms``, one statistics
        check over the union of its terms, and one ``exec`` round in
        which every shard runs every request under a single attempt (one
        read, fault check and latency sample per replica). A failed
        shard degrades every request. Each request keeps its own
        ``QueryEvent``, ``shard_latency_ms`` observations and gather
        charge; the deadline is checked once, before the round and after
        the charges.
        """
        if not requests:
            return []
        with self._tracer.span("cluster.search") as root:
            if root:
                if len(requests) == 1:
                    root.set("query", requests[0][0])
                else:
                    root.set("queries", len(requests))
                root.set("vertical", Vertical(vertical).value)
            return self._search_traced(vertical, requests, app_id,
                                       session_id, root, deadline)

    def _search_traced(self, vertical, requests, app_id, session_id, root,
                       deadline=None) -> list:
        vkey = Vertical(vertical)
        analyzer = self.reference_vertical(vkey).index.analyzer
        # A shard ships only the page it can win, except in a
        # migration's dual-read window (fanout installed), where the
        # deduplicated total needs every id.
        dual_read = self.write_fanout is not None
        # (query_text, options, node, terms, per-shard limit)
        plans = []
        for query_text, options in requests:
            options = options or SearchOptions()
            node = apply_options_to_ast(parse_query(query_text), options)
            plans.append((query_text, options, node,
                          extract_terms(node, analyzer),
                          None if dual_read
                          else options.offset + options.count))
        now_ms = self.clock.now_ms
        failed: set[int] = set()
        # Pin one topology for the whole batch: every scatter round and
        # the gather see the same route map even if the control plane
        # flips it mid-flight, so a query can never mix shard layouts.
        route = self.router.snapshot()
        groups = self.active_groups(route)
        if root:
            root.set("topology_version", route.version)

        # Global statistics: from the vertical's entry when it is
        # current and covers every term of the batch, else one round
        # over all of them (none for pure-filter queries, which BM25
        # never scores). A scorer reads only its own terms' frequencies.
        terms = list(dict.fromkeys(term for plan in plans
                                   for term in plan[3]))
        stats = CorpusStats.empty()
        key = None
        if terms:
            key = (self._generations.current(corpus_key(vkey.value)),
                   route.version)
            entry = self._stats.get(vkey)
            if (entry is not None and entry[0] == key
                    and entry[2].issuperset(terms)):
                stats = entry[1]
            else:
                with self._tracer.span("phase:stats"):
                    outcomes = self.executor.scatter({
                        group.shard_id: self._shard_task(
                            group, "stats",
                            lambda r: r.collect_stats(vkey, terms),
                        )
                        for group in groups
                    })
                failed |= {sid for sid, out in outcomes.items()
                           if not out.ok}
                stats = CorpusStats.merge(
                    out.value for out in outcomes.values() if out.ok
                )
                if not failed:
                    self._remember_stats(vkey, key, stats, terms)

        # Execution: per-shard evaluate + rank of every request under
        # the global statistics; remember which replica served each
        # shard so the gather phase can materialize results from it.
        # Skipped entirely when the deadline already ran out — every
        # response degrades to whatever is free (nothing) rather than
        # starting work it cannot afford.
        overrun = deadline is not None and deadline.expired
        shard_requests = [(node, options, plan_terms, limit)
                          for __, options, node, plan_terms, limit
                          in plans]

        def run_shard(replica):
            return replica, replica.execute_many(vkey, shard_requests,
                                                 stats, now_ms)

        outcomes = {}
        if not overrun:
            with self._tracer.span("phase:execute"):
                outcomes = self.executor.scatter({
                    group.shard_id: self._shard_task(
                        group, "exec", run_shard, annotated=True)
                    for group in groups
                    if group.shard_id not in failed
                })
        served: dict[int, ShardReplica] = {}
        answers: dict[int, list] = {}     # shard -> (top, count) per request
        extra_latency: dict[int, float] = {}
        hedges = wins = 0
        for sid, outcome in outcomes.items():
            if not outcome.ok:
                failed.add(sid)
                continue
            (replica, shard_answers), meta = outcome.value
            served[sid] = replica
            answers[sid] = shard_answers
            extra_latency[sid] = meta.get("latency_ms", 0.0)
            if meta.get("hedged"):
                hedges += 1
                wins += meta.get("hedge") == "win"
        # Each request's cost on each answering shard, in shard order:
        # its ranking latency plus the batch's replica attempt latency
        # (injected spikes, bounded by hedging).
        shard_ids = sorted(answers)
        costs = [[simulated_latency_ms(answers[sid][i][1])
                  + extra_latency[sid] for sid in shard_ids]
                 for i in range(len(plans))]

        if self._metrics.enabled:
            latency = self._metrics.histogram("shard_latency_ms")
            # Per-shard series feed the control plane's autoscaler.
            per_shard = [self._metrics.histogram("shard_latency_ms",
                                                 shard=str(sid))
                         for sid in shard_ids]
            for cost in costs:
                for histogram, ms in zip(per_shard, cost):
                    latency.observe(ms)
                    histogram.observe(ms)
            if failed:
                self._metrics.counter("shard_failures_total").inc(
                    len(failed) * len(plans)
                )
                for sid in failed:
                    self._metrics.counter(
                        "shard_failures_total", shard=str(sid)
                    ).inc(len(plans))
            if hedges:
                self._metrics.counter("hedges_total").inc(hedges)
            if wins:
                self._metrics.counter("hedge_wins_total").inc(wins)

        # Gather: parallel shards cost max-over-shards, not the sum, and
        # each request is charged its own gather, one after another. The
        # shard with the largest summed cost gates the batch, so the
        # wall the clock pays here is recorded under a span naming it,
        # so latency attribution (repro.slo) can blame the right place.
        # Deterministic tie-break on id.
        elapsed = [max(cost) if cost else simulated_latency_ms(0)
                   for cost in costs]
        if shard_ids:
            totals = [sum(column) for column in zip(*costs)]
            slowest = min(zip(totals, shard_ids),
                          key=lambda pair: (-pair[0], pair[1]))[1]
            with self._tracer.span(f"gather:shard-{slowest}") as gspan:
                if gspan:
                    gspan.set("cost_ms", round(sum(elapsed), 3))
                for ms in elapsed:
                    self.clock.advance(ms)
        else:
            for ms in elapsed:
                self.clock.advance(ms)
        if deadline is not None and deadline.expired:
            overrun = True
        degraded = bool(failed) or overrun
        if degraded and root:
            root.set("degraded", True)
            root.set("failed_shards", sorted(failed))
            if overrun:
                root.set("deadline_overrun", True)

        responses = []
        for i, (query_text, options, __, plan_terms, ___) in \
                enumerate(plans):
            # Dedup on gather: during a migration's dual-read window a
            # moving document legitimately exists on both sides of the
            # handoff; the first (highest-ranked) copy wins. Only while
            # that window is open (fanout installed) does the total need
            # a full deduplicated count — the clean path keeps the lazy
            # heap merge.
            ranked = _unique_by_doc(merge_ranked(
                {sid: shard_answers[i][0]
                 for sid, shard_answers in answers.items()}))
            if dual_read:
                ranked = list(ranked)
                total_matches = len(ranked)
            else:
                total_matches = sum(shard_answers[i][1]
                                    for shard_answers in answers.values())
            window = list(islice(ranked, options.offset,
                                 options.offset + options.count))
            results = tuple(
                served[shard_id].materialize(vkey, doc_id, score,
                                             plan_terms)
                for doc_id, score, shard_id in window
            )
            suggestion = None
            if (total_matches == 0 and plan_terms and not failed
                    and not overrun):
                suggestion = self._suggest(vkey, plan_terms, key)
            if degraded:
                self._metrics.counter("degraded_queries_total").inc()
                self.telemetry.events.emit(
                    "cluster.degraded", query=query_text,
                    failed_shards=sorted(failed),
                    deadline_overrun=overrun,
                )
            response = ClusterSearchResponse(
                query=query_text,
                vertical=vkey.value,
                results=results,
                total_matches=total_matches,
                elapsed_ms=elapsed[i],
                suggestion=suggestion,
                degraded=degraded,
                shards_total=len(groups),
                shards_ok=len(groups) - len(failed),
                failed_shards=tuple(sorted(failed)),
                deadline_overrun=overrun,
            )
            self.log.log_query(QueryEvent(
                timestamp_ms=self.clock.now_ms,
                query=query_text,
                vertical=response.vertical,
                app_id=app_id,
                session_id=session_id,
                result_urls=tuple(response.urls()),
            ))
            responses.append(response)
        return responses

    # -- internals ------------------------------------------------------------

    def _remember_stats(self, vkey: Vertical, key: tuple,
                        stats: CorpusStats, terms) -> None:
        """Fold a complete round's statistics into the vertical's entry.

        Under the same key the corpus is the same, so document count
        and field lengths already agree and only the new document
        frequencies are added; a new key, or passing
        :data:`STATS_CACHE_TERMS`, starts the entry over from ``stats``.
        """
        entry = self._stats.get(vkey)
        if (entry is None or entry[0] != key
                or len(entry[2]) + len(terms) > STATS_CACHE_TERMS):
            self._stats[vkey] = (key, stats, set(terms))
            return
        entry[1].doc_frequency.update(stats.doc_frequency)
        entry[2].update(terms)

    def _suggest(self, vkey: Vertical, terms, key: tuple) -> str | None:
        """'Did you mean' over the merged cross-shard vocabulary, built
        at most once per statistics ``key``."""
        corrector = self._correctors.get((vkey, key))
        if corrector is None:
            frequencies: dict[str, int] = {}
            for group in self.active_groups():
                replica = (group.healthy_replicas()
                           or [group.primary()])[0]
                for term, count in replica.term_frequencies(
                        vkey).items():
                    frequencies[term] = (
                        frequencies.get(term, 0) + count
                    )
            corrector = SpellingCorrector(frequencies=frequencies)
            self._correctors = {(vkey, key): corrector}
        corrected = corrector.suggest_query(terms)
        if corrected is None:
            return None
        return " ".join(corrected)


def build_clustered_engine(web, config: ClusterConfig | None = None,
                           clock: SimClock | None = None,
                           use_authority: bool = True,
                           log: QueryLog | None = None,
                           telemetry: Telemetry | None = None,
                           hedge=None,
                           generations=None) -> ClusteredSearchEngine:
    """Index a synthetic web into a ready-to-query cluster.

    A shard's replicas share one :class:`IndexState` (each document is
    filed once per shard). Authority (PageRank) is computed once over
    the full link graph, exactly as the single-node engine blends it,
    so clustered and single-node rankings agree.
    """
    from repro.searchengine.engine import (
        compute_authority,
        iter_corpus_documents,
        make_vertical_indexes,
    )
    config = config or ClusterConfig()
    authority = compute_authority(web) if use_authority else {}
    router = ShardRouter(config.num_shards)
    states = [IndexState(make_vertical_indexes(authority))
              for __ in range(config.num_shards)]
    groups = [
        ReplicaGroup(
            shard_id,
            [ShardReplica(shard_id, index, states[shard_id])
             for index in range(config.replicas_per_shard)],
            failure_threshold=config.failure_threshold,
        )
        for shard_id in range(config.num_shards)
    ]
    engine = ClusteredSearchEngine(
        groups, router, authority=authority, clock=clock, log=log,
        config=config, telemetry=telemetry, hedge=hedge,
        generations=generations,
    )
    for vertical, document in iter_corpus_documents(web):
        shard_id = router.shard_of(document.doc_id)
        groups[shard_id].broadcast(
            lambda replica, v=vertical, d=document: replica.add(v, d)
        )
    return engine
