"""Tests for repro.resilience: deadlines, retry, hedging, chaos."""

import json
from dataclasses import replace

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    NotFoundError,
    ReplicaFaultError,
    RetryExhaustedError,
    ServiceError,
    ServiceFaultError,
    ShardUnavailableError,
    TransportError,
    ValidationError,
    retryable,
)
from repro.resilience import (
    Deadline,
    HedgePolicy,
    ResilienceConfig,
    Retrier,
    RetryPolicy,
)
from repro.util import SimClock


class TestDeadline:
    def test_countdown_and_expiry(self):
        clock = SimClock(start_ms=0)
        deadline = Deadline(clock, 100)
        assert deadline.remaining_ms() == 100
        assert not deadline.expired
        clock.advance(99)
        assert not deadline.expired
        clock.advance(1)
        assert deadline.expired
        assert deadline.overshoot_ms() == 0
        clock.advance(40)
        assert deadline.overshoot_ms() == 40

    def test_check_raises_with_context(self):
        clock = SimClock(start_ms=0)
        deadline = Deadline(clock, 50)
        deadline.check("stage:x")  # within budget: no-op
        clock.advance(80)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("stage:x")
        assert "stage:x" in str(excinfo.value)
        assert "overshoot 30ms" in str(excinfo.value)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(SimClock(), 0)
        with pytest.raises(ValueError):
            Deadline(SimClock(), -5)

    def test_expiry_depends_only_on_the_sim_clock(self):
        clock = SimClock(start_ms=0)
        with pytest.raises(TypeError):
            Deadline(clock, 100, wall_budget_s=0.0)
        deadline = Deadline(clock, 100)
        clock.advance(99)
        assert not deadline.expired
        clock.advance(1)
        assert deadline.expired


class TestRetryableClassification:
    def test_transient_provider_failures_retry(self):
        assert retryable(TransportError("reset"))
        assert retryable(ServiceError("outage"))
        assert retryable(ReplicaFaultError("replica died"))
        assert retryable(ShardUnavailableError("shard dark"))
        assert retryable(TimeoutError("slow"))

    def test_soap_faults_split_by_blame(self):
        assert retryable(ServiceFaultError("Server.Overloaded", "busy"))
        assert not retryable(ServiceFaultError("Client.BadInput", "no"))

    def test_terminal_errors_do_not_retry(self):
        assert not retryable(DeadlineExceededError("late"))
        assert not retryable(
            RetryExhaustedError(3, ServiceError("down"))
        )
        assert not retryable(NotFoundError("missing"))
        assert not retryable(ValidationError("bad"))


def schedule(policy, key) -> tuple:
    """Every backoff ``policy`` would wait for ``key``, in order."""
    return tuple(policy.backoff_ms(key, attempt)
                 for attempt in range(1, policy.max_attempts))


class TestRetryPolicyDeterminism:
    def test_schedule_is_bit_for_bit_reproducible(self):
        policy = RetryPolicy(max_attempts=5, seed=42)
        again = RetryPolicy(max_attempts=5, seed=42)
        assert schedule(policy, "source-1") == schedule(again, "source-1")
        assert schedule(policy, ("src", "query")) \
            == schedule(again, ("src", "query"))

    def test_seed_and_key_decorrelate(self):
        policy = RetryPolicy(max_attempts=4, seed=1)
        assert schedule(policy, "a") != schedule(policy, "b")
        assert schedule(policy, "a") \
            != schedule(RetryPolicy(max_attempts=4, seed=2), "a")

    def test_no_jitter_is_pure_exponential(self):
        policy = RetryPolicy(max_attempts=4, base_backoff_ms=10,
                             multiplier=2.0, jitter=0.0)
        assert schedule(policy, "k") == (10.0, 20.0, 40.0)

    def test_backoff_capped_and_jitter_bounded(self):
        policy = RetryPolicy(max_attempts=8, base_backoff_ms=50,
                             multiplier=3.0, max_backoff_ms=200,
                             jitter=0.5, seed=9)
        for attempt, backoff in enumerate(schedule(policy, "k"), start=1):
            raw = min(200.0, 50.0 * 3.0 ** (attempt - 1))
            assert 0.5 * raw <= backoff <= 1.5 * raw


class TestRetrier:
    def test_success_needs_no_retry(self):
        clock = SimClock(start_ms=0)
        retrier = Retrier(clock, RetryPolicy(max_attempts=3))
        assert retrier.call(lambda: "ok", key="k") == "ok"
        assert clock.now_ms == 0

    def test_backoff_charged_to_sim_clock(self):
        clock = SimClock(start_ms=0)
        policy = RetryPolicy(max_attempts=3, base_backoff_ms=10,
                             jitter=0.0)
        retrier = Retrier(clock, policy)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ServiceError("outage")
            return "recovered"

        assert retrier.call(flaky, key="k") == "recovered"
        assert len(attempts) == 3
        assert clock.now_ms == 10 + 20  # the exact schedule

    def test_exhaustion_carries_attempts_and_cause(self):
        retrier = Retrier(SimClock(), RetryPolicy(max_attempts=2,
                                                  jitter=0.0))
        cause = ServiceError("still down")

        def always_down():
            raise cause

        with pytest.raises(RetryExhaustedError) as excinfo:
            retrier.call(always_down, key="k")
        assert excinfo.value.attempts == 2
        assert excinfo.value.cause is cause

    def test_non_retryable_raised_verbatim(self):
        retrier = Retrier(SimClock(), RetryPolicy(max_attempts=5))
        calls = []

        def bad_input():
            calls.append(1)
            raise ValidationError("your fault")

        with pytest.raises(ValidationError):
            retrier.call(bad_input, key="k")
        assert len(calls) == 1  # never retried

    def test_deadline_too_tight_for_backoff_aborts(self):
        clock = SimClock(start_ms=0)
        policy = RetryPolicy(max_attempts=5, base_backoff_ms=100,
                             jitter=0.0)
        retrier = Retrier(clock, policy)
        deadline = Deadline(clock, 50)  # cannot afford one 100ms backoff

        def down():
            raise ServiceError("outage")

        with pytest.raises(RetryExhaustedError) as excinfo:
            retrier.call(down, key="k", deadline=deadline)
        assert excinfo.value.attempts == 1
        assert clock.now_ms == 0  # no backoff was charged

    def test_on_error_hook_sees_every_attempt(self):
        retrier = Retrier(SimClock(), RetryPolicy(max_attempts=3,
                                                  jitter=0.0,
                                                  base_backoff_ms=1))
        seen = []

        def down():
            raise ServiceError("outage")

        with pytest.raises(RetryExhaustedError):
            retrier.call(down, key="k",
                         on_error=lambda exc, n: seen.append(n))
        assert seen == [1, 2, 3]


class TestHedgePolicy:
    def _histogram(self, samples):
        from repro.telemetry.metrics import Histogram
        histogram = Histogram("t")
        for sample in samples:
            histogram.observe(sample)
        return histogram

    def test_fallback_until_enough_observations(self):
        policy = HedgePolicy(min_observations=8,
                             fallback_threshold_ms=50.0)
        assert policy.threshold_ms(None) == 50.0
        assert policy.threshold_ms(self._histogram([1.0] * 7)) == 50.0

    def test_quantile_once_warm_with_floor(self):
        policy = HedgePolicy(latency_quantile=0.5, min_observations=4,
                             min_threshold_ms=1.0)
        warm = self._histogram([0.0] * 8)
        # All-zero latencies: the floor keeps the clean path unhedged.
        assert policy.threshold_ms(warm) == 1.0
        slow = self._histogram([100.0] * 8)
        assert policy.threshold_ms(slow) >= 1.0


class TestHedgedReplicaReads:
    def _group(self, policy):
        from repro.cluster.replica import (
            IndexState,
            ReplicaGroup,
            ShardReplica,
        )
        replicas = [ShardReplica(0, index, IndexState({}))
                    for index in range(2)]
        group = ReplicaGroup(0, replicas)
        group.enable_hedging(policy)
        return group, replicas

    def _warm(self, group, runs):
        for __ in range(runs):
            group.run(lambda replica: replica.replica_id)

    def test_hedge_win_serves_backup(self):
        policy = HedgePolicy(latency_quantile=0.5, min_observations=4,
                             min_threshold_ms=1.0)
        group, replicas = self._group(policy)
        self._warm(group, 4)  # rotation returns to replica 0
        replicas[0].inject_latency(30.0)
        result, meta = group.run_annotated(
            lambda replica: replica.replica_id
        )
        # Primary (replica 0) took 30ms against a ~1ms threshold; the
        # hedge on replica 1 at threshold+0ms finishes first and wins.
        assert meta["hedged"] and meta["hedge"] == "win"
        assert result == replicas[1].replica_id
        assert meta["latency_ms"] < 30.0
        assert meta["attempts"] == 2

    def test_hedge_lose_keeps_primary(self):
        policy = HedgePolicy(latency_quantile=0.5, min_observations=4,
                             min_threshold_ms=1.0)
        group, replicas = self._group(policy)
        self._warm(group, 4)
        replicas[0].inject_latency(30.0)
        replicas[1].inject_latency(500.0)  # backup even slower
        result, meta = group.run_annotated(
            lambda replica: replica.replica_id
        )
        assert meta["hedged"] and meta["hedge"] == "lose"
        assert result == replicas[0].replica_id
        assert meta["latency_ms"] == 30.0

    def test_clean_path_never_hedges(self):
        policy = HedgePolicy(latency_quantile=0.5, min_observations=4,
                             min_threshold_ms=1.0)
        group, __ = self._group(policy)
        self._warm(group, 8)
        __, meta = group.run_annotated(
            lambda replica: replica.replica_id
        )
        assert not meta["hedged"]
        assert meta["attempts"] == 1


class TestTransportNormalization:
    """Service callers see one uniform provider-failure class."""

    def test_bus_wraps_handler_transport_errors(self):
        from repro.services.bus import ServiceBus
        from repro.services.rest import RestService

        class Flaky(RestService):
            name = "flaky"

            def __init__(self):
                super().__init__()
                self.route("GET /x", self._x)

            def _x(self, params):
                raise TransportError("socket closed mid-read")

        bus = ServiceBus(clock=SimClock())
        bus.register(Flaky())
        with pytest.raises(ServiceError) as excinfo:
            bus.invoke("flaky", "GET /x", {})
        assert not isinstance(excinfo.value, TransportError)
        assert bus.stats("flaky").failures == 1

    def test_bus_refuses_work_past_deadline(self):
        from repro.services.bus import ServiceBus
        from repro.services.samples import PricingService

        clock = SimClock(start_ms=0)
        bus = ServiceBus(clock=clock)
        bus.register(PricingService())
        deadline = Deadline(clock, 5)
        clock.advance(10)
        calls_before = bus.stats("pricing").calls
        with pytest.raises(DeadlineExceededError):
            bus.invoke("pricing", "GET /prices/halo", {},
                       deadline=deadline)
        # Refused pre-dispatch: the handler never ran.
        assert bus.stats("pricing").calls == calls_before

    def test_bus_abandons_call_when_latency_exhausts_budget(self):
        from repro.services.bus import ServiceBus
        from repro.services.samples import PricingService

        clock = SimClock(start_ms=0)
        bus = ServiceBus(clock=clock, base_latency_ms=18.0)
        bus.register(PricingService())
        deadline = Deadline(clock, 10)  # less than the transport cost
        with pytest.raises(DeadlineExceededError):
            bus.invoke("pricing", "GET /prices/halo", {},
                       deadline=deadline)
        assert bus.stats("pricing").failures == 1


class TestDeadlineDegradedPipeline:
    """End-to-end: an overrun query degrades, it never fails."""

    @pytest.fixture()
    def platform(self, tiny_web):
        from repro.core.platform import Symphony
        from repro.services.samples import PricingService
        from tests.conftest import make_inventory_csv

        symphony = Symphony(web=tiny_web, use_authority=False,
                            cache_enabled=False, resilience=True)
        symphony.bus.register(PricingService())
        account = symphony.register_designer("Ann")
        games = symphony.web.entities["video_games"][:3]
        symphony.upload_http(account, "inv.csv",
                             make_inventory_csv(games), "inventory",
                             content_type="text/csv")
        inventory = symphony.add_proprietary_source(
            account, "inventory", ("title",))
        pricing = symphony.add_service_source(
            "Pricing", "pricing", "GET /prices/{sku}", "sku")
        session = symphony.designer().new_application(
            "Shop", account.tenant.tenant_id)
        slot = session.drag_source_onto_app(
            inventory.source_id, search_fields=("title",))
        session.add_text(slot, "title")
        session.drag_source_onto_result_layout(
            slot, pricing.source_id, drive_fields=("title",))
        app_id = symphony.host(session)
        return symphony, app_id, games

    def test_generous_budget_not_degraded(self, platform):
        symphony, app_id, games = platform
        response = symphony.query(app_id, games[0],
                                  deadline_ms=10_000)
        assert not response.degraded
        assert response.views

    def test_tight_budget_degrades_to_partial_results(self, platform):
        symphony, app_id, games = platform
        # 15ms covers the receive stage and the primary lookup but not
        # the supplemental pricing call: partial results, not a failure.
        response = symphony.query(app_id, games[0], deadline_ms=15)
        assert response.degraded
        assert response.views  # primary results still served
        assert all(not result.items
                   for view in response.views
                   for result in view.supplemental.values())
        assert any("deadline exceeded" in warning
                   for warning in response.trace.warnings)
        assert "DEGRADED" in response.trace.describe()

    def test_deadline_exceeded_event_emitted_once(self, tiny_web):
        from repro.core.platform import Symphony
        from tests.conftest import make_inventory_csv

        symphony = Symphony(web=tiny_web, use_authority=False,
                            cache_enabled=False, resilience=True,
                            telemetry=True)
        account = symphony.register_designer("Ann")
        games = symphony.web.entities["video_games"][:3]
        symphony.upload_http(account, "inv.csv",
                             make_inventory_csv(games), "inventory",
                             content_type="text/csv")
        inventory = symphony.add_proprietary_source(
            account, "inventory", ("title",))
        reviews = symphony.add_web_source("Reviews", "web")
        session = symphony.designer().new_application(
            "Shop", account.tenant.tenant_id)
        slot = session.drag_source_onto_app(
            inventory.source_id, search_fields=("title",))
        session.add_text(slot, "title")
        session.drag_source_onto_result_layout(
            slot, reviews.source_id, drive_fields=("title",))
        app_id = symphony.host(session)
        response = symphony.query(app_id, games[0], deadline_ms=5)
        assert response.degraded
        events = symphony.telemetry.events.by_kind("deadline.exceeded")
        assert len(events) == 1
        counter = symphony.telemetry.metrics.counter(
            "deadline_exceeded_total")
        assert counter.value == 1


class TestCleanPath:
    def test_no_faults_means_no_recovery_work(self, tiny_web):
        """On the fault-free Fig. 2 app the resilient platform retries,
        hedges and abandons nothing, and serves the same page."""
        from tests.conftest import query_gamerqueen

        __, plain = query_gamerqueen(tiny_web, telemetry=True)
        symphony, resilient = query_gamerqueen(
            tiny_web, telemetry=True, resilience=True)
        metrics = symphony.telemetry.metrics
        for name in ("retries_total", "hedges_total",
                     "deadline_exceeded_total"):
            assert metrics.counter(name).value == 0, name
        for before, after in zip(plain, resilient):
            assert after.html == before.html
            assert after.views == before.views
            assert ([stage.name for stage in after.trace.stages]
                    == [stage.name for stage in before.trace.stages])


class TestChaosHarness:
    def test_committed_plan_holds_invariants(self):
        from repro.resilience.chaos import load_fault_plan, run_chaos

        plan = load_fault_plan("examples/chaos_fault_plan.json")
        plan = replace(plan, queries=10)
        report = run_chaos(plan)
        assert report.ok, report.render()
        assert report.queries_run == 10
        assert not report.escaped
        # The committed storm is strong enough to exercise the
        # machinery it exists to prove.
        assert report.degraded > 0
        assert report.retries > 0

    def test_runs_replay_identically(self):
        from repro.resilience.chaos import load_fault_plan, run_chaos

        plan = load_fault_plan("examples/chaos_fault_plan.json")
        plan = replace(plan, queries=6)
        first = run_chaos(plan)
        second = run_chaos(plan)
        assert first == second
        assert first.render() == second.render()

    def test_a_bug_in_the_query_path_propagates(self, monkeypatch):
        # A fault is a ReproError and is recorded; a TypeError is a bug
        # in our own code and must not be reported as an escaped fault.
        from repro.core.runtime import SymphonyRuntime
        from repro.resilience.chaos import load_fault_plan, run_chaos

        def broken(self, request, **kwargs):
            raise TypeError("broken stage")

        monkeypatch.setattr(SymphonyRuntime, "handle_query", broken)
        plan = replace(load_fault_plan("examples/chaos_fault_plan.json"),
                       queries=2)
        with pytest.raises(TypeError, match="broken stage"):
            run_chaos(plan)

    def test_plan_round_trips_from_json(self, tmp_path):
        from repro.resilience.chaos import FaultPlan, load_fault_plan

        plan = FaultPlan(name="x", seed=3, queries=2,
                         retry=RetryPolicy(max_attempts=2, seed=5),
                         hedge=None)
        raw = {
            "name": "x", "seed": 3, "queries": 2,
            "retry": {"max_attempts": 2, "seed": 5},
            "hedge": None,
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        loaded = load_fault_plan(path)
        assert loaded.retry == plan.retry
        assert loaded.hedge is None
        assert loaded.name == "x"

    @pytest.mark.parametrize("raw, message", [
        ({"durability": {"crash": [{"at": 2, "shard": 0}],
                         "expect_recoverd": True},
          "reshard": {"step": [{"at": 2, "op": "split", "shard": 0}]}},
         "unknown key reshard.step"),
        ({"durability": {"crash": [{"at": 2, "shard": 0}]}},
         "unknown key durability.crash"),
        ({"durability": {"expect_recoverd": True}},
         "unknown key durability.expect_recoverd"),
        ({"reshard": {"step": []}}, "unknown key reshard.step"),
        ({"deadline": 100.0}, "unknown key deadline"),
        ({"reshard": {"steps": [{"at": 2, "op": "splitt", "shard": 0}]}},
         "reshard.steps[0].op is 'splitt', not split or merge"),
        ({"reshard": {"steps": [{"op": "merge", "source": 1}]}},
         "reshard.steps[0] has no target"),
        ({"durability": {"crashes": [{"at": 3, "replica": 1}]}},
         "durability.crashes[0] has no shard"),
        ({"durability": {"crashes": [{"at": 3, "shard": 0,
                                      "recover": 9}]}},
         "unknown key durability.crashes[0].recover"),
        ({"retry": {"max_attempt": 2}}, "unknown key retry.max_attempt"),
        ({"hedge": {"quantile": 0.9}}, "unknown key hedge.quantile"),
        ({"slo": {"fast_window": 10}}, "unknown key slo.fast_window"),
        ({"slo": {"slos": [{"name": "x", "kind": "latency",
                            "thresold_ms": 1}]}},
         "unknown key slo.slos[0].thresold_ms"),
        ({"replicas": {"fault": 0.5}}, "unknown key replicas.fault"),
        ({"services": {"pricing": {"failure": 0.5}}},
         "unknown key services.pricing.failure"),
        ({"web": {"seed": 3}}, "unknown key web.seed"),
    ])
    def test_a_key_the_harness_does_not_read_is_refused(self, raw,
                                                        message):
        from repro.resilience.chaos import FaultPlan

        with pytest.raises(ConfigurationError) as caught:
            FaultPlan.from_dict(raw)
        assert str(caught.value) == f"fault plan: {message}"

    def test_the_committed_plans_load(self):
        from pathlib import Path

        from repro.resilience.chaos import load_fault_plan

        for path in sorted(Path("examples").glob("*_plan.json")):
            load_fault_plan(path)

    def test_a_reshard_step_on_an_unrouted_shard_is_a_violation(self):
        from repro.resilience.chaos import FaultPlan, run_chaos

        plan = FaultPlan.from_dict({
            "queries": 3, "hedge": None,
            "cluster": {"num_shards": 2, "replicas_per_shard": 1},
            "reshard": {"steps": [{"at": 1, "op": "split", "shard": 9},
                                  {"at": 2, "op": "merge", "source": 1,
                                   "target": 1}]},
        })
        report = run_chaos(plan)
        assert report.violations == [
            "reshard: split at 1: no routed shard 9; the shards are "
            "[0, 1]",
            "reshard: merge at 2: cannot merge shard 1 into itself",
        ]
        assert not report.ok


class TestResilienceConfig:
    def test_defaults(self):
        config = ResilienceConfig()
        assert config.deadline_ms == 1500.0
        assert isinstance(config.retry, RetryPolicy)
        assert isinstance(config.hedge, HedgePolicy)

    def test_platform_accepts_true(self, tiny_web):
        from repro.core.platform import Symphony
        symphony = Symphony(web=tiny_web, use_authority=False,
                            resilience=True)
        assert isinstance(symphony.resilience, ResilienceConfig)
        assert symphony.runtime.resilience is symphony.resilience
