"""Tests for repro.telemetry: tracing, metrics, events, exports.

Covers the determinism contract (identical seeded runs produce
identical span trees, across both scatter-gather phases),
histogram quantile edge cases, instrument wiring (cache stats, breaker
and throttle events), and the JSONL round-trip through the exporter.
"""

from __future__ import annotations

import io
import json
import math
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterConfig, build_clustered_engine
from repro.core.platform import Symphony
from repro.core.runtime import (
    CircuitBreaker,
    PipelineTrace,
    ResultCache,
)
from repro.telemetry import (
    NULL_TRACER,
    EventLog,
    Histogram,
    MetricsRegistry,
    Telemetry,
    build_span_forest,
    dump_jsonl,
    load_jsonl,
    render_report,
    render_span_tree,
    telemetry_lines,
)
from repro.util import SimClock

from tests.conftest import (
    CACHE_STAMPS,
    make_inventory_csv,
    query_gamerqueen,
)


# -- helpers ------------------------------------------------------------------


def traced_symphony(web, cluster=2):
    """A telemetry-enabled clustered platform on a prebuilt web."""
    return Symphony(web=web, use_authority=False, cluster=cluster,
                    telemetry=True)


def build_app(sym):
    """A GamerQueen-style app with a proprietary primary source and a
    supplemental web source; returns ``(app_id, games)``."""
    account = sym.register_designer("Ann")
    games = sym.web.entities["video_games"][:4]
    sym.upload_http(
        account, "inventory.csv", make_inventory_csv(games),
        "inventory", content_type="text/csv",
    )
    inventory = sym.add_proprietary_source(
        account, "inventory",
        search_fields=("title", "producer", "description"),
    )
    reviews = sym.add_web_source("Game reviews", "web")
    session = sym.designer().new_application(
        "GamerQueen", account.tenant.tenant_id
    )
    slot = session.drag_source_onto_app(
        inventory.source_id, heading="Games", max_results=2,
        search_fields=("title", "producer", "description"),
    )
    session.drag_source_onto_result_layout(
        slot, reviews.source_id, drive_fields=("title",),
        heading="Reviews", max_results=2, query_suffix="review",
    )
    return sym.host(session), games


# -- histogram edge cases -----------------------------------------------------


class TestHistogram:
    def test_empty_histogram_has_no_quantiles(self):
        hist = Histogram("latency")
        assert hist.quantile(0.5) is None
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["p50"] is None
        assert summary["min"] is None

    def test_single_sample_is_every_quantile(self):
        hist = Histogram("latency")
        hist.observe(42.0)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert hist.quantile(q) == 42.0
        assert hist.summary()["count"] == 1

    def test_duplicate_samples(self):
        hist = Histogram("latency")
        for __ in range(10):
            hist.observe(7.0)
        assert hist.quantile(0.5) == 7.0
        assert hist.quantile(0.99) == 7.0
        assert hist.summary()["sum"] == 70.0

    def test_quantile_zero_and_one_are_min_and_max(self):
        hist = Histogram("latency")
        for value in (5.0, 1.0, 3.0, 9.0):
            hist.observe(value)
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 9.0

    def test_quantile_rejects_out_of_range(self):
        hist = Histogram("latency")
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_compaction_keeps_exact_count_and_extremes(self):
        hist = Histogram("latency", sample_cap=8)
        for value in range(100):
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == 0.0
        assert summary["max"] == 99.0
        # Quantiles stay approximately right despite compaction.
        assert 30.0 <= hist.quantile(0.5) <= 70.0

    def test_compaction_is_deterministic(self):
        def run():
            hist = Histogram("latency", sample_cap=8)
            for value in [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7]:
                hist.observe(float(value))
            return hist.summary()

        assert run() == run()

    def test_interleaved_observe_and_quantile(self):
        # Regression for the lazy-sort flag: an observe after a
        # quantile read must dirty the sorted sample buffer, or later
        # quantiles are computed against a stale ordering.
        hist = Histogram("latency")
        reference: list[float] = []
        values = [50.0, 10.0, 90.0, 30.0, 70.0, 20.0, 80.0, 5.0]
        for value in values:
            hist.observe(value)
            reference.append(value)
            ordered = sorted(reference)
            for q in (0.0, 0.5, 0.95, 1.0):
                index = max(0, math.ceil(q * len(ordered)) - 1)
                assert hist.quantile(q) == ordered[index]

    def test_buckets_are_cumulative_with_overflow(self):
        hist = Histogram("latency")
        for value in (0.5, 3.0, 3.0, 40.0, 99_999.0):
            hist.observe(value)
        buckets = hist.buckets()
        assert buckets["1"] == 1        # 0.5
        assert buckets["5"] == 3        # + two 3.0s
        assert buckets["50"] == 4       # + 40.0
        assert buckets["10000"] == 4    # nothing between 50 and 10k
        assert buckets["+Inf"] == 5     # 99999 overflows the last bound
        assert list(buckets)[-1] == "+Inf"

    def test_bucket_counts_survive_compaction(self):
        # Sample compaction approximates quantiles but must never touch
        # the exact bucket counters.
        hist = Histogram("latency", sample_cap=8)
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.buckets()["100"] == 100
        assert hist.buckets()["+Inf"] == 100


# -- metrics registry ---------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_identity_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", source="web")
        b = registry.counter("hits", source="web")
        c = registry.counter("hits", source="ads")
        assert a is b
        assert a is not c

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("hits").inc(-1)

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("queries_total").inc(3)
        registry.histogram("stage_ms", stage="primary").observe(5.0)
        text = registry.render_prometheus()
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_queries_total 3.0" in text
        assert 'repro_stage_ms{stage="primary",quantile="0.5"} 5.0' \
            in text
        assert 'repro_stage_ms_count{stage="primary"} 1' in text

    def test_prometheus_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("stage_ms", stage="primary")
        for value in (0.5, 3.0, 40.0):
            hist.observe(value)
        text = registry.render_prometheus()
        assert "# TYPE repro_stage_ms histogram" in text
        assert 'repro_stage_ms_bucket{stage="primary",le="1"} 1' \
            in text
        assert 'repro_stage_ms_bucket{stage="primary",le="5"} 2' \
            in text
        assert 'repro_stage_ms_bucket{stage="primary",le="50"} 3' \
            in text
        assert 'repro_stage_ms_bucket{stage="primary",le="+Inf"} 3' \
            in text
        assert 'repro_stage_ms_sum{stage="primary"} 43.5' in text

    def test_bucket_labels_order_keeps_le_last(self):
        # Prometheus convention: `le` renders after the metric's own
        # labels so series sort stably across scrapes.
        registry = MetricsRegistry()
        registry.histogram("ms", zone="a").observe(1.0)
        text = registry.render_prometheus()
        assert 'repro_ms_bucket{zone="a",le="1"} 1' in text


# -- tracer -------------------------------------------------------------------


span_trees = st.recursive(
    st.tuples(st.sampled_from(("query", "stage", "shard")),
              st.integers(0, 2), st.just(())),
    lambda inner: st.tuples(st.sampled_from(("query", "stage", "shard")),
                            st.integers(0, 2),
                            st.lists(inner, max_size=3).map(tuple)),
    max_leaves=10)


def open_tree(tracer, clock, tree, opened) -> None:
    """Open ``(name, ms, children)`` as nested spans, advancing the
    clock ``ms`` before the span opens and again before it closes."""
    name, advance, children = tree
    clock.advance(advance)
    with tracer.span(name) as span:
        opened.append(span)
        for child in children:
            open_tree(tracer, clock, child, opened)
        clock.advance(advance)


class TestTracer:
    def test_null_tracer_returns_shared_falsy_span(self):
        span_a = NULL_TRACER.span("anything")
        span_b = NULL_TRACER.span("else")
        assert span_a is span_b
        assert not span_a

    def test_nested_spans_parent_and_ids_are_stable(self):
        clock = SimClock()
        telemetry = Telemetry(clock=clock)
        with telemetry.tracer.span("query") as root:
            with telemetry.tracer.span("stage:primary") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
        forest = build_span_forest(telemetry.tracer.spans)
        assert len(forest) == 1
        assert forest[0]["name"] == "query"
        assert forest[0]["children"][0]["name"] == "stage:primary"

    def test_exception_marks_span_error(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.tracer.span("boom"):
                raise RuntimeError("kaput")
        (span,) = telemetry.tracer.spans
        assert span.status == "error"
        assert span.attrs["error"] == "kaput"

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.lists(span_trees, max_size=6))
    def test_a_trace_reads_as_the_filter_of_every_sorted_span(self, forest):
        """``trace_spans`` sorts one trace; it must list exactly what
        filtering every finished span, sorted by (trace, start, id),
        lists — repeated names and equal start times included."""
        clock = SimClock()
        tracer = Telemetry(clock=clock).tracer
        opened = []
        for tree in forest:
            open_tree(tracer, clock, tree, opened)
        every = sorted(opened,
                       key=lambda s: (s.trace_id, s.start_ms, s.span_id))
        assert tracer.spans == every
        for trace_id in [*dict.fromkeys(s.trace_id for s in every),
                         "no-such-trace"]:
            assert tracer.trace_spans(trace_id) == \
                [s for s in every if s.trace_id == trace_id]


class TestLeanSpans:
    """A finished span keeps no bookkeeping it never used: ``attrs`` is
    one shared read-only empty mapping until the first ``set``."""

    def test_a_span_with_no_set_has_empty_attrs(self):
        tracer = Telemetry().tracer
        with tracer.span("quiet"):
            pass
        (span,) = tracer.spans
        assert span.attrs == {}
        assert span.to_dict()["attrs"] == {}

    def test_a_direct_write_to_unset_attrs_raises(self):
        tracer = Telemetry().tracer
        with tracer.span("quiet") as span:
            with pytest.raises(TypeError):
                span.attrs["k"] = "v"
        assert span.to_dict()["attrs"] == {}

    def test_set_on_one_span_never_shows_on_another(self):
        tracer = Telemetry().tracer
        with tracer.span("root") as root:
            with tracer.span("a") as first:
                first.set("k", 1)
            with tracer.span("b") as second:
                pass
        assert first.to_dict()["attrs"] == {"k": 1}
        assert second.attrs == {} and root.attrs == {}
        second.set("k", 2)
        assert first.attrs == {"k": 1}

    def test_an_error_span_records_its_error(self):
        tracer = Telemetry().tracer
        with pytest.raises(RuntimeError):
            with tracer.span("boom") as span:
                span.set("before", True)
                raise RuntimeError("kaput")
        assert span.to_dict()["attrs"] == {"before": True, "error": "kaput"}
        with pytest.raises(RuntimeError):
            with tracer.span("bare") as bare:
                raise RuntimeError("plain")
        assert bare.attrs == {"error": "plain"}

    def test_to_dict_copies_attrs(self):
        tracer = Telemetry().tracer
        with tracer.span("root") as root:
            root.set("k", 1)
        exported = root.to_dict()
        exported["attrs"]["k"] = 2
        assert root.attrs == {"k": 1}



# -- cluster tracing ----------------------------------------------------------


@pytest.fixture()
def traced_cluster(tiny_web):
    telemetry = Telemetry()
    engine = build_clustered_engine(
        tiny_web,
        config=ClusterConfig(num_shards=2, replicas_per_shard=2),
        clock=telemetry.clock,
        use_authority=False,
        telemetry=telemetry,
    )
    return engine, telemetry


class TestClusterTracing:
    def test_shard_spans_parent_under_phase_spans(self, traced_cluster):
        engine, telemetry = traced_cluster
        engine.search("web", "video game")
        spans = telemetry.tracer.spans
        by_id = {s.span_id: s for s in spans}
        shard_spans = [s for s in spans
                       if s.name.startswith(("stats:", "exec:"))]
        assert len(shard_spans) == 4  # 2 phases x 2 shards
        for span in shard_spans:
            parent = by_id[span.parent_id]
            expected = ("phase:stats" if span.name.startswith("stats:")
                        else "phase:execute")
            assert parent.name == expected

    def test_single_connected_trace_includes_replica_attempts(
            self, traced_cluster):
        engine, telemetry = traced_cluster
        engine.search("web", "video game")
        trace_ids = sorted({s.trace_id for s in telemetry.tracer.spans})
        assert len(trace_ids) == 1
        spans = telemetry.tracer.trace_spans(trace_ids[0])
        names = {s.name for s in spans}
        assert "cluster.search" in names
        assert any(n.startswith("attempt:") for n in names)
        # Every span except the root has a parent in the same trace.
        ids = {s.span_id for s in spans}
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in ids

    def test_failover_shows_error_attempt_and_retry(
            self, traced_cluster):
        engine, telemetry = traced_cluster
        engine.groups[0].replicas[0].inject_fault(1)
        response = engine.search("web", "video game")
        assert not response.degraded
        attempts = [s for s in telemetry.tracer.spans
                    if s.name.startswith("attempt:shard-0/")]
        errored = [s for s in attempts if s.status == "error"]
        assert len(errored) == 1
        # The failed attempt has a healthy sibling retry on the other
        # replica under the same shard task span.
        retries = [s for s in attempts
                   if s.parent_id == errored[0].parent_id
                   and s.status == "ok"]
        assert retries
        assert len(telemetry.events.by_kind("replica.failover")) == 1

    def test_degraded_query_emits_event_and_counter(self,
                                                    traced_cluster):
        engine, telemetry = traced_cluster
        engine.kill_replica(0, 0)
        engine.kill_replica(0, 1)
        response = engine.search("web", "video game")
        assert response.degraded
        assert telemetry.events.by_kind("shard.unavailable")
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["counter"]["degraded_queries_total"] == 1.0

    def test_identical_runs_produce_identical_span_trees(self,
                                                         tiny_web):
        def run():
            telemetry = Telemetry()
            engine = build_clustered_engine(
                tiny_web,
                config=ClusterConfig(num_shards=2,
                                     replicas_per_shard=2),
                clock=telemetry.clock,
                use_authority=False,
                telemetry=telemetry,
            )
            engine.search("web", "video game")
            engine.search("web", "strategy guide")
            return render_span_tree(telemetry.tracer.spans,
                                    include_ids=True)

        assert run() == run()


# -- pipeline integration -----------------------------------------------------


@pytest.fixture()
def traced_gamerqueen(tiny_web):
    sym = traced_symphony(tiny_web)
    app_id, games = build_app(sym)
    return sym, app_id, games


class TestPipelineTelemetry:
    def test_query_produces_one_connected_tree(self,
                                               traced_gamerqueen):
        sym, app_id, games = traced_gamerqueen
        response = sym.query(app_id, games[0])
        tracer = sym.telemetry.tracer
        roots = [s for s in tracer.spans if s.name == "query"]
        assert len(roots) == 1
        spans = tracer.trace_spans(roots[0].trace_id)
        names = {s.name for s in spans}
        # Runtime stages, source calls, cluster phases, shard tasks,
        # and replica attempts all hang off the one query root.
        assert {"stage:receive", "stage:primary",
                "stage:supplemental", "stage:merge+render",
                "stage:respond", "source", "cluster.search"} <= names
        assert any(n.startswith("attempt:") for n in names)
        # The flat stage contract is preserved on the same response.
        assert [s.name for s in response.trace.stages] == [
            "receive", "primary", "supplemental", "merge+render",
            "respond",
        ]

    def test_trace_describe_tree_mode(self, traced_gamerqueen):
        sym, app_id, games = traced_gamerqueen
        response = sym.query(app_id, games[0])
        tree = response.trace.describe(tree=True)
        assert "Pipeline trace (span tree):" in tree
        assert "cluster.search" in tree
        flat = response.trace.describe()
        assert "TOTAL" in flat

    def test_query_metrics_recorded(self, traced_gamerqueen):
        sym, app_id, games = traced_gamerqueen
        sym.query(app_id, games[0])
        sym.query(app_id, games[0])  # second run hits the cache
        snapshot = sym.telemetry.metrics.snapshot()
        assert snapshot["counter"]["queries_total"] == 2.0
        assert snapshot["gauge"]["result_cache_hits"] >= 1.0
        stage_hist = snapshot["histogram"]["stage_ms{stage=primary}"]
        assert stage_hist["count"] == 2

    def test_disabled_telemetry_records_nothing(self, tiny_web):
        sym = Symphony(web=tiny_web, use_authority=False)
        app_id, games = build_app(sym)
        response = sym.query(app_id, games[0])
        assert not sym.telemetry.enabled
        assert sym.telemetry.tracer.spans == ()
        assert response.trace.span is None
        # The flat trace still works exactly as before.
        assert response.trace.total_ms() > 0

    def test_tracing_changes_nothing_the_customer_sees(self, tiny_web):
        """Same page, same simulated time; the spans are the only
        difference between a traced and an untraced Fig. 2 query."""
        __, plain = query_gamerqueen(tiny_web)
        sym, traced = query_gamerqueen(tiny_web, telemetry=True)
        assert len(sym.telemetry.tracer.spans) > 0
        for before, after in zip(plain, traced):
            assert after.html == before.html
            assert after.trace.total_ms() == before.trace.total_ms()

    def test_pipeline_trace_default_has_no_span(self):
        trace = PipelineTrace()
        assert trace.span is None
        trace.add_stage("receive", 1.0)
        assert trace.total_ms() == 1.0


# -- cache, breaker, limiter instrumentation ---------------------------------


class TestInstrumentWiring:
    def test_result_cache_stats(self):
        for stamp in CACHE_STAMPS:
            cache = ResultCache(max_entries=2, ttl_ms=100)
            assert cache.get("a", now_ms=0) is None         # miss
            cache.put("a", "va", 0, cache.stamp(stamp))
            assert cache.get("a", now_ms=10) == "va"        # hit
            assert cache.get("a", now_ms=200) is None       # ttl eviction
            cache.put("b", "vb", 300, cache.stamp(stamp))
            cache.put("c", "vc", 300, cache.stamp(stamp))
            cache.put("d", "vd", 300, cache.stamp(stamp))  # lru eviction
            stats = cache.stats()
            assert stats["hits"] == 1
            assert stats["misses"] == 2
            assert stats["hit_ratio"] == pytest.approx(1 / 3)
            assert stats["stale_invalidations"] == 0
            assert stats["ttl_evictions"] == 1
            assert stats["lru_evictions"] == 1
            assert stats["entries"] == 2

    def test_circuit_breaker_emits_state_transitions(self):
        clock = SimClock()
        events = EventLog(clock=clock)
        breaker = CircuitBreaker(clock, failure_threshold=2,
                                 cooldown_ms=50, events=events)
        breaker.record_failure("src")
        breaker.record_failure("src")          # trips open
        assert breaker.is_open("src")
        clock.advance(50)
        assert not breaker.is_open("src")      # admits the probe
        breaker.record_failure("src")          # failed probe reopens
        clock.advance(50)
        assert not breaker.is_open("src")
        breaker.record_success("src")          # closes
        kinds = [e.kind for e in events.events]
        assert kinds == [
            "circuit.open", "circuit.half_open", "circuit.reopen",
            "circuit.half_open", "circuit.closed",
        ]

    def test_rate_limiter_emits_rejections(self, tiny_web):
        from repro.errors import AdmissionRejectedError
        from repro.gateway import GatewayConfig, TenantPolicy

        from tests.conftest import build_gamerqueen

        symphony = Symphony(web=tiny_web, telemetry=True,
                            gateway=GatewayConfig(
                                default_policy=TenantPolicy(
                                    rate_per_s=1 / 3600, burst=1.0)))
        app_id, games = build_gamerqueen(
            symphony, symphony.register_designer("Ann"))
        symphony.query_via_gateway(app_id, games[0])
        with pytest.raises(AdmissionRejectedError):
            symphony.query_via_gateway(app_id, games[1])
        (event,) = symphony.telemetry.events.by_kind("gateway.shed")
        assert event.fields["reason"] == "throttle"
        assert event.fields["principal"] == app_id

    def test_event_log_counts_dropped_on_wrap(self):
        registry = MetricsRegistry()
        log = EventLog(metrics=registry, max_events=3)
        for i in range(5):
            log.emit("tick", n=i)
        assert len(log) == 3
        assert log.dropped == 2
        # Oldest two evicted; the deque keeps the newest window.
        assert [e.fields["n"] for e in log.events] == [2, 3, 4]
        counters = registry.snapshot()["counter"]
        assert counters["events_dropped_total"] == 2.0

    def test_event_log_no_drops_below_capacity(self):
        registry = MetricsRegistry()
        log = EventLog(metrics=registry, max_events=10)
        for __ in range(10):
            log.emit("tick")
        assert log.dropped == 0
        assert "events_dropped_total" \
            not in registry.snapshot()["counter"]


# -- export round-trip --------------------------------------------------------


class TestExport:
    def test_jsonl_round_trip_preserves_report(self,
                                               traced_gamerqueen):
        sym, app_id, games = traced_gamerqueen
        sym.query(app_id, games[0])
        buffer = io.StringIO()
        count = dump_jsonl(sym.telemetry, buffer)
        assert count == len(sym.telemetry.tracer.spans) \
            + len(sym.telemetry.events.events) + 1
        buffer.seek(0)
        loaded = load_jsonl(buffer)
        assert render_report(loaded) == sym.telemetry.report()

    def test_loaded_spans_match_live_spans(self, traced_gamerqueen):
        sym, app_id, games = traced_gamerqueen
        sym.query(app_id, games[0])
        buffer = io.StringIO()
        dump_jsonl(sym.telemetry, buffer)
        buffer.seek(0)
        loaded = load_jsonl(buffer)
        live = [s.to_dict() for s in sym.telemetry.tracer.spans]
        assert loaded["spans"] == live
        assert loaded["metrics"] == sym.telemetry.metrics.snapshot()

    def test_histogram_buckets_round_trip(self, traced_gamerqueen):
        # Cumulative bucket counts ride through the JSONL metrics line
        # exactly — a loaded snapshot can answer "how many queries under
        # X ms" without the original samples.
        sym, app_id, games = traced_gamerqueen
        sym.query(app_id, games[0])
        loaded = load_jsonl(
            io.StringIO("\n".join(
                json.dumps(line)
                for line in telemetry_lines(sym.telemetry)))
        )
        live = sym.telemetry.metrics.snapshot()["histogram"]
        for name, summary in loaded["metrics"]["histogram"].items():
            assert summary["buckets"] == live[name]["buckets"]
            assert list(summary["buckets"])[-1] == "+Inf"

    def test_dropped_events_round_trip_into_report(self):
        telemetry = Telemetry()
        # Shrink the log so the run visibly saturates it.
        telemetry.events._events = deque(maxlen=2)
        for i in range(5):
            telemetry.events.emit("tick", n=i)
        buffer = io.StringIO()
        dump_jsonl(telemetry, buffer)
        buffer.seek(0)
        loaded = load_jsonl(buffer)
        assert loaded["events_dropped"] == 3
        assert ", 3 dropped" in render_report(loaded)
        assert render_report(loaded) == telemetry.report()
