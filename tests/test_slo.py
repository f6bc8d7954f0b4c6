"""Tests for repro.slo: budgets, burn alerts, recorder, attribution.

Covers the error-budget window math, the multi-window edge-triggered
burn alerting (including the determinism contract: identical runs give
identical alert timestamps), the tail-sampling flight recorder, the
per-query latency attributor, the runtime/platform wiring behind
``Symphony(slo=...)``, the autoscaler burn trigger, and the chaos-plan
expectations.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig
from repro.controlplane import Autoscaler
from repro.core.platform import Symphony
from repro.errors import NotFoundError
from repro.slo import (
    BurnRateAlerter,
    ErrorBudget,
    FlightRecord,
    FlightRecorder,
    SLOConfig,
    SLODefinition,
    SLOEngine,
    explain_spans,
)
from repro.telemetry import Telemetry

from tests.conftest import make_inventory_csv


LATENCY_SLO = SLODefinition(
    name="latency", kind="latency", objective=0.9,
    latency_threshold_ms=100.0, fast_window_ms=1_000,
    slow_window_ms=10_000, burn_threshold=2.0, min_events=4,
)


def build_slo_app(sym):
    """A primary + supplemental app on a platform; ``(app_id, games)``."""
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


# -- objectives and budgets ---------------------------------------------------


class TestSLODefinition:
    def test_judge_latency(self):
        assert LATENCY_SLO.judge(100.0, False, False, 1.0)
        assert not LATENCY_SLO.judge(100.1, False, False, 1.0)

    def test_errors_are_always_bad(self):
        for kind in ("latency", "availability", "completeness"):
            slo = SLODefinition(name="x", kind=kind, objective=0.9)
            assert not slo.judge(0.0, False, True, 1.0)

    def test_tenant_scoping(self):
        scoped = SLODefinition(name="x", kind="latency",
                               objective=0.9, tenant="app-1")
        assert scoped.matches("app-1")
        assert not scoped.matches("app-2")
        assert LATENCY_SLO.matches("anyone")

    def test_rejects_bad_kind_and_objective(self):
        with pytest.raises(ValueError):
            SLODefinition(name="x", kind="vibes")
        with pytest.raises(ValueError):
            SLODefinition(name="x", kind="latency", objective=1.0)

    def test_config_builds_three_defaults(self):
        slos = SLOConfig().build_slos()
        assert [s.kind for s in slos] == [
            "latency", "availability", "completeness"]

    def test_config_from_dict_with_explicit_slos(self):
        config = SLOConfig.from_dict({
            "burn_threshold": 3.0,
            "slos": [{"name": "gold", "kind": "latency",
                      "objective": 0.999, "tenant": "app-1"}],
        })
        (slo,) = config.build_slos()
        assert slo.tenant == "app-1"
        assert config.burn_threshold == 3.0


class TestErrorBudget:
    def test_burn_rate_is_bad_fraction_over_allowance(self):
        budget = ErrorBudget(LATENCY_SLO)
        for i in range(8):
            budget.record(now_ms=i, good=(i % 2 == 0))
        fast, slow = budget.burn_rates(now_ms=8)
        # 4 of 8 bad; objective 0.9 allows 10% -> burn 5.0.
        assert fast == pytest.approx(5.0)
        assert slow == pytest.approx(5.0)

    def test_windows_forget_old_events(self):
        budget = ErrorBudget(LATENCY_SLO)
        budget.record(now_ms=0, good=False)
        budget.record(now_ms=500, good=True)
        fast, slow = budget.burn_rates(now_ms=1_400)
        # The bad event at t=0 left the 1s fast window, not the 10s one.
        assert fast == 0.0
        assert slow == pytest.approx(5.0)
        fast, slow = budget.burn_rates(now_ms=50_000)
        assert (fast, slow) == (0.0, 0.0)

    def test_status_budget_consumption(self):
        budget = ErrorBudget(LATENCY_SLO)
        for i in range(10):
            budget.record(now_ms=i, good=(i != 0))
        status = budget.status(now_ms=10)
        assert status["events"] == 10
        assert status["bad"] == 1
        assert status["budget_consumed"] == pytest.approx(1.0)
        assert status["budget_remaining"] == 0.0


# -- burn-rate alerting -------------------------------------------------------


class TestBurnRateAlerter:
    def observe_n(self, alerter, budget, start_ms, count, good):
        for i in range(count):
            budget.record(start_ms + i, good)
            alerter.check(start_ms + i)

    def test_fires_only_after_min_events(self):
        budget = ErrorBudget(LATENCY_SLO)
        alerter = BurnRateAlerter(LATENCY_SLO, budget)
        self.observe_n(alerter, budget, 0, 3, good=False)
        assert not alerter.active     # 3 < min_events=4
        self.observe_n(alerter, budget, 10, 1, good=False)
        assert alerter.active
        assert [a["kind"] for a in alerter.alerts] == ["fire"]

    def test_edge_triggered_fire_then_clear(self):
        telemetry = Telemetry()
        budget = ErrorBudget(LATENCY_SLO)
        alerter = BurnRateAlerter(LATENCY_SLO, budget,
                                  events=telemetry.events,
                                  metrics=telemetry.metrics)
        self.observe_n(alerter, budget, 0, 6, good=False)
        assert alerter.active
        # Stays fired without duplicate transitions while still burning.
        assert [a["kind"] for a in alerter.alerts] == ["fire"]
        # Good traffic past the fast window clears the fast burn.
        self.observe_n(alerter, budget, 2_000, 8, good=True)
        assert not alerter.active
        kinds = [a["kind"] for a in alerter.alerts]
        assert kinds == ["fire", "clear"]
        assert [event.kind for event in telemetry.events.events] == [
            "slo.burn", "slo.burn_cleared"]

    def test_needs_both_windows_burning(self):
        # Seed the slow window with enough good history that its burn
        # stays under threshold even when the fast window is all bad.
        budget = ErrorBudget(LATENCY_SLO)
        alerter = BurnRateAlerter(LATENCY_SLO, budget)
        self.observe_n(alerter, budget, 0, 200, good=True)
        self.observe_n(alerter, budget, 9_000, 4, good=False)
        fast, slow = budget.burn_rates(9_010)
        assert fast >= LATENCY_SLO.burn_threshold
        assert slow < LATENCY_SLO.burn_threshold
        assert not alerter.active


# -- flight recorder ----------------------------------------------------------


def make_record(query_id, reasons=("slow",), latency=500.0):
    return FlightRecord(
        query_id=query_id, tenant="app-1", start_ms=0, end_ms=1,
        latency_ms=latency, degraded=False, errored=False,
        completeness=1.0, reasons=tuple(reasons),
    )


class TestFlightRecorder:
    def test_bounded_ring_evicts_oldest(self):
        recorder = FlightRecorder(capacity=2)
        for i in range(3):
            recorder.note_seen(True)
            recorder.record(make_record(f"q{i}"))
        assert [r.query_id for r in recorder.records] == ["q1", "q2"]
        assert recorder.stats.evicted == 1
        assert recorder.get("q0") is None
        assert recorder.get("q2").latency_ms == 500.0

    def test_breaching_excludes_clean_samples(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record(make_record("bad", reasons=("slo:latency",)))
        recorder.record(make_record("ok", reasons=("sampled",)))
        assert [r.query_id for r in recorder.breaching()] == ["bad"]

    def test_clean_sampling_is_periodic(self):
        telemetry = Telemetry()
        engine = SLOEngine(telemetry, SLOConfig(
            latency_threshold_ms=1e9, completeness_floor=0.0,
            clean_sample_every=3,
        ))
        for __ in range(9):
            engine.observe(tenant="app-1", latency_ms=1.0)
        stats = engine.recorder.stats
        assert stats.clean_seen == 9
        assert stats.clean_retained == 3
        assert all(r.reasons == ("sampled",)
                   for r in engine.recorder.records)


# -- latency attribution ------------------------------------------------------


def span(trace_id, span_id, parent_id, name, start, end, **attrs):
    return {"trace_id": trace_id, "span_id": span_id,
            "parent_id": parent_id, "name": name, "start_ms": start,
            "end_ms": end, "status": "ok", "attrs": attrs}


class TestExplain:
    def test_self_time_attribution_and_dominant(self):
        spans = [
            span("t1", "a", None, "query", 0, 100),
            span("t1", "b", "a", "stage:primary", 0, 20),
            span("t1", "c", "a", "cluster.search", 20, 95),
            span("t1", "d", "c", "exec:shard-2", 25, 90),
        ]
        attribution = explain_spans(spans)
        contributions = dict(attribution.contributions)
        assert attribution.total_ms == 100.0
        assert contributions["shard:2"] == 65.0
        assert contributions["cluster"] == 10.0
        assert contributions["runtime"] == 5.0
        assert attribution.dominant_label == "shard:2 65%"
        assert dict(attribution.fractions())["shard:2"] == \
            pytest.approx(0.65)

    def test_queue_wait_widens_denominator(self):
        spans = [
            span("t1", "a", None, "gateway", 100, 160,
                 queue_wait_ms=40.0),
            span("t1", "b", "a", "query", 100, 160),
        ]
        attribution = explain_spans(spans)
        contributions = dict(attribution.contributions)
        assert attribution.total_ms == 100.0  # 60 span + 40 queue
        assert contributions["queue_wait"] == 40.0
        assert attribution.dominant[0] == "runtime"

    def test_replica_and_gather_span_components(self):
        spans = [
            span("t1", "a", None, "query", 0, 50),
            span("t1", "b", "a", "attempt:shard-1/replica-0", 0, 10),
            span("t1", "c", "a", "gather:shard-1", 10, 50),
        ]
        contributions = dict(explain_spans(spans).contributions)
        assert contributions["shard:1 replica:0"] == 10.0
        assert contributions["shard:1"] == 40.0

    def test_overlapping_children_clamp_to_zero(self):
        # Scatter-gather children share the SimClock, so their summed
        # durations can exceed the parent's; self time clamps at 0.
        spans = [
            span("t1", "a", None, "query", 0, 10),
            span("t1", "b", "a", "stage:primary", 0, 10),
            span("t1", "c", "a", "stage:supplemental", 0, 10),
        ]
        attribution = explain_spans(spans)
        contributions = dict(attribution.contributions)
        assert contributions["runtime"] == 0.0
        assert attribution.total_ms == 10.0

    def test_no_spans(self):
        attribution = explain_spans([], query_id="missing")
        assert attribution.dominant_label == "(no spans)"
        assert attribution.to_dict()["contributions"] == []


# -- engine + platform integration --------------------------------------------


TIGHT = SLOConfig(latency_threshold_ms=200.0, fast_window_ms=60_000,
                  slow_window_ms=600_000, burn_threshold=3.0,
                  min_events=4)


def burn_scenario(tiny_web):
    """A clustered platform with shard 1 degraded; returns Symphony."""
    sym = Symphony(
        web=tiny_web, use_authority=False,
        cluster=ClusterConfig(num_shards=2, replicas_per_shard=1),
        slo=TIGHT, cache_enabled=False,
    )
    app_id, games = build_slo_app(sym)
    for index in range(8):
        for replica in sym.engine.groups[1].replicas:
            replica.inject_latency(400.0, 4)
        sym.query(app_id, games[index % len(games)],
                  session_id=f"t-{index}")
    return sym


class TestSLOEngineIntegration:
    def test_slo_implies_telemetry(self, tiny_web):
        sym = Symphony(web=tiny_web, use_authority=False, slo=True)
        assert sym.telemetry.enabled
        assert isinstance(sym.slo, SLOEngine)
        assert sym.runtime._slo is sym.slo

    def test_burn_fires_and_recorder_retains(self, tiny_web):
        sym = burn_scenario(tiny_web)
        assert sym.slo.burning()
        assert any((a["slo"], a["tenant"], a["kind"])
                   == ("latency", "", "fire") for a in sym.slo.alerts())
        assert sym.slo.first_burn_ms() is not None
        breaching = sym.slo.recorder.breaching()
        assert breaching
        # Every breaching record carries its full span tree.
        assert all(r.spans for r in breaching)
        counters = sym.telemetry.metrics.snapshot()["counter"]
        assert counters["slo_burn_alerts_total{slo=latency}"] >= 1.0
        report = sym.slo_report()
        assert "BURNING" in report

    def test_explain_blames_the_degraded_shard(self, tiny_web):
        sym = burn_scenario(tiny_web)
        worst = sym.slo.worst_record()
        attribution = sym.explain_query(worst.query_id)
        assert dict(attribution.fractions())["shard:1"] >= 0.5
        assert attribution.dominant_label.startswith("shard:1")

    def test_alert_timestamps_are_deterministic(self, tiny_web):
        first = burn_scenario(tiny_web).slo.alerts()
        second = burn_scenario(tiny_web).slo.alerts()
        assert first == second
        assert first  # the scenario actually alerted

    def test_errored_query_consumes_availability_budget(self,
                                                        tiny_web):
        sym = Symphony(web=tiny_web, use_authority=False, slo=True)
        with pytest.raises(NotFoundError):
            sym.query("nope", "anything")
        status = sym.slo.status()
        bad = {obj["slo"]: obj["bad"]
               for obj in status["objectives"]}
        assert bad["availability"] == 1
        (record,) = sym.slo.recorder.breaching()
        assert record.errored
        assert "error" in record.reasons

    def test_completeness_tracks_source_outcomes(self, tiny_web):
        sym = Symphony(web=tiny_web, use_authority=False, slo=True)
        app_id, games = build_slo_app(sym)
        response = sym.query(app_id, games[0])
        assert response.trace.completeness() == 1.0
        assert response.trace.sources_ok > 0

    def test_explain_unknown_query_returns_none(self, tiny_web):
        sym = Symphony(web=tiny_web, use_authority=False, slo=True)
        assert sym.explain_query("no-such-trace") is None


class TestSLOOff:
    def test_a_default_platform_has_no_slo_engine(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        assert symphony.slo is None
        assert symphony.runtime._slo is None
        # The unjudged path still answers.
        assert symphony.query(app_id, games[0]).views
        assert symphony.slo_report() == (
            "SLO layer disabled (construct Symphony(slo=True))")
        assert symphony.explain_query("anything") is None


# -- autoscaler hookup --------------------------------------------------------


class _BurningStub:
    def __init__(self, burning=True):
        self._burning = burning

    def burning(self):
        return self._burning


class TestAutoscalerBurnTrigger:
    def test_burn_credits_hottest_shard(self):
        scaler = Autoscaler(engine=None, lifecycle=None,
                            slo=_BurningStub())
        scaler._note_slo_burn({0: 10.0, 1: 50.0, 2: None})
        assert scaler._hot_rounds == {1: 1}

    def test_no_credit_when_not_burning(self):
        scaler = Autoscaler(engine=None, lifecycle=None,
                            slo=_BurningStub(burning=False))
        scaler._note_slo_burn({0: 10.0, 1: 50.0})
        assert scaler._hot_rounds == {}

    def test_no_slo_no_credit(self):
        scaler = Autoscaler(engine=None, lifecycle=None)
        scaler._note_slo_burn({0: 99.0})
        assert scaler._hot_rounds == {}

    def test_platform_wires_slo_into_autoscaler(self, tiny_web):
        sym = Symphony(
            web=tiny_web, use_authority=False,
            cluster=ClusterConfig(num_shards=2, replicas_per_shard=1),
            controlplane=True, slo=True,
        )
        assert sym.autoscaler.slo is sym.slo


# -- chaos plan ---------------------------------------------------------------


class TestChaosSLO:
    def test_slow_shard_plan_alerts_and_attributes(self):
        from repro.resilience.chaos import FaultPlan, run_chaos

        plan = FaultPlan(
            name="slo-test", seed=2028, queries=10,
            deadline_ms=1500.0, grace_ms=900.0,
            num_shards=2, replicas_per_shard=2,
            slow_shard=1, slow_shard_ms=500.0,
            slo={"latency_threshold_ms": 400.0,
                 "fast_window_ms": 60_000,
                 "slow_window_ms": 600_000,
                 "burn_threshold": 3.0, "min_events": 6,
                 "expect_burn": True,
                 "expect_dominant": "shard:1"},
        )
        report = run_chaos(plan)
        assert report.ok, report.violations
        assert report.slo_burn_alerts >= 1
        assert 0 < report.slo_detection_ms <= 60_000
        assert report.slo_dominant.startswith("shard:1")
        assert report.slo_breaching_retained > 0
        assert "slo burn alerts" in report.render()

    def test_unmet_expectation_is_a_violation(self):
        from repro.resilience.chaos import FaultPlan, run_chaos

        plan = FaultPlan(
            name="slo-clean", seed=2028, queries=6,
            deadline_ms=1500.0, grace_ms=900.0,
            num_shards=2, replicas_per_shard=2,
            slo={"expect_burn": True},   # nothing injected: no burn
        )
        report = run_chaos(plan)
        assert not report.ok
        assert any("expected a burn-rate alert" in v
                   for v in report.violations)
