"""Tests for the supplemental-source circuit breaker and rate limiter."""

import pytest

from repro.core.runtime import CircuitBreaker, RateLimiter
from repro.errors import QuotaExceededError
from repro.util import SimClock


class TestCircuitBreakerUnit:
    def test_opens_after_threshold(self):
        clock = SimClock(start_ms=0)
        breaker = CircuitBreaker(clock, failure_threshold=3,
                                 cooldown_ms=1000)
        for __ in range(2):
            breaker.record_failure("s")
            assert not breaker.is_open("s")
        breaker.record_failure("s")
        assert breaker.is_open("s")
        assert breaker.state("s") == "open"

    def test_success_resets_counter(self):
        breaker = CircuitBreaker(SimClock(), failure_threshold=2)
        breaker.record_failure("s")
        breaker.record_success("s")
        breaker.record_failure("s")
        assert not breaker.is_open("s")
        assert breaker.state("s") == "degraded"

    def test_half_open_after_cooldown(self):
        clock = SimClock(start_ms=0)
        breaker = CircuitBreaker(clock, failure_threshold=1,
                                 cooldown_ms=1000)
        breaker.record_failure("s")
        assert breaker.is_open("s")
        clock.advance(1000)
        assert not breaker.is_open("s")  # probe allowed
        # Probe fails -> circuit re-opens immediately.
        breaker.record_failure("s")
        assert breaker.is_open("s")

    def test_probe_success_closes(self):
        clock = SimClock(start_ms=0)
        breaker = CircuitBreaker(clock, failure_threshold=1,
                                 cooldown_ms=1000)
        breaker.record_failure("s")
        clock.advance(1000)
        assert not breaker.is_open("s")
        breaker.record_success("s")
        assert breaker.state("s") == "closed"

    def test_sources_independent(self):
        breaker = CircuitBreaker(SimClock(), failure_threshold=1)
        breaker.record_failure("a")
        assert breaker.is_open("a")
        assert not breaker.is_open("b")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CircuitBreaker(SimClock(), failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(SimClock(), cooldown_ms=0)

    def test_half_open_admits_exactly_one_probe(self):
        # Regression: before the probe's verdict is in, every *other*
        # caller must still see the circuit as open — otherwise a burst
        # of queries during half-open all hammer the sick service.
        clock = SimClock(start_ms=0)
        breaker = CircuitBreaker(clock, failure_threshold=1,
                                 cooldown_ms=1000)
        breaker.record_failure("s")
        clock.advance(1000)
        assert not breaker.is_open("s")       # the single probe
        assert breaker.state("s") == "half_open"
        assert breaker.is_open("s")           # second caller: blocked
        assert breaker.is_open("s")           # and the third
        breaker.record_success("s")
        assert not breaker.is_open("s")       # verdict in: closed
        assert breaker.state("s") == "closed"

    def test_concurrent_half_open_probes_admit_exactly_one(self):
        # A burst of callers arriving together after cooldown gets
        # exactly one probe through; the rest stay blocked until the
        # probe reports back. (Callers are serialized by the gateway,
        # so the burst is a sequence.)
        clock = SimClock(start_ms=0)
        breaker = CircuitBreaker(clock, failure_threshold=1,
                                 cooldown_ms=1000)
        breaker.record_failure("s")
        clock.advance(1000)
        admitted = [n for n in range(16) if not breaker.is_open("s")]
        assert admitted == [0]
        assert breaker.state("s") == "half_open"
        # The winning probe reports back; the circuit closes for all.
        breaker.record_success("s")
        assert breaker.state("s") == "closed"

    def test_failed_probe_restarts_cooldown(self):
        clock = SimClock(start_ms=0)
        breaker = CircuitBreaker(clock, failure_threshold=1,
                                 cooldown_ms=1000)
        breaker.record_failure("s")
        clock.advance(1000)
        assert not breaker.is_open("s")
        breaker.record_failure("s")
        # Re-opened *from the probe's failure time*: a fresh cooldown.
        clock.advance(999)
        assert breaker.is_open("s")
        clock.advance(1)
        assert not breaker.is_open("s")


class TestRateLimiterWindowBoundaries:
    """Sliding-window eviction judged at exact SimClock boundaries."""

    def test_evicts_exactly_at_window_edge(self):
        clock = SimClock(start_ms=0)
        limiter = RateLimiter(clock, max_requests=2, window_ms=1000)
        limiter.check("app")          # t=0
        limiter.check("app")          # t=0, window now full
        clock.advance(999)
        with pytest.raises(QuotaExceededError):
            limiter.check("app")      # t=999: both t=0 events live
        clock.advance(1)
        # t=1000: the horizon is now-window = 0 and events at t <= 0
        # leave the window — capacity is back at the exact boundary.
        limiter.check("app")
        assert limiter.remaining("app") == 1

    def test_rejected_requests_do_not_consume_capacity(self):
        clock = SimClock(start_ms=0)
        limiter = RateLimiter(clock, max_requests=1, window_ms=1000)
        limiter.check("app")
        for __ in range(3):
            with pytest.raises(QuotaExceededError):
                limiter.check("app")
        clock.advance(1000)
        # Only the single admitted request occupied the window; the
        # rejected ones must not have extended it.
        limiter.check("app")

    def test_window_slides_per_event_not_per_batch(self):
        clock = SimClock(start_ms=0)
        limiter = RateLimiter(clock, max_requests=2, window_ms=1000)
        limiter.check("app")          # t=0
        clock.advance(500)
        limiter.check("app")          # t=500
        clock.advance(500)
        limiter.check("app")          # t=1000: t=0 evicted, t=500 live
        with pytest.raises(QuotaExceededError):
            limiter.check("app")      # t=500 + t=1000 still in window
        clock.advance(500)
        limiter.check("app")          # t=1500: t=500 evicted
        assert limiter.remaining("app") == 0


class TestCircuitBreakerIntegration:
    @pytest.fixture()
    def flaky_platform(self, tiny_web):
        from repro.core.platform import Symphony
        from repro.core.runtime import CircuitBreaker
        from repro.services.bus import ServiceBus
        from repro.services.samples import PricingService
        from tests.conftest import make_inventory_csv

        symphony = Symphony(web=tiny_web, use_authority=False)
        symphony.bus = ServiceBus(clock=symphony.clock,
                                  failure_probability=1.0, seed=21)
        symphony.bus.register(PricingService())
        symphony.runtime.circuit_breaker = CircuitBreaker(
            symphony.clock, failure_threshold=2, cooldown_ms=60_000)
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
        return symphony, app_id, games, pricing

    def test_circuit_opens_and_skips_calls(self, flaky_platform):
        symphony, app_id, games, pricing = flaky_platform
        before = symphony.bus.stats("pricing").calls
        # Two failing queries trip the breaker (threshold 2; each
        # query makes 1 call since there is one matching title).
        symphony.query(app_id, games[0])
        symphony.query(app_id, games[1])
        tripped_at = symphony.bus.stats("pricing").calls
        assert tripped_at > before
        response = symphony.query(app_id, games[2])
        assert symphony.bus.stats("pricing").calls == tripped_at
        assert any("circuit open" in w
                   for w in response.trace.warnings)

    def test_circuit_recovers_after_cooldown(self, flaky_platform):
        symphony, app_id, games, pricing = flaky_platform
        symphony.query(app_id, games[0])
        symphony.query(app_id, games[1])
        assert symphony.runtime.circuit_breaker.state(
            pricing.source_id) == "open"
        # Service recovers; cooldown elapses; probe succeeds.
        from repro.services.bus import ServiceBus
        from repro.services.samples import PricingService
        healthy = ServiceBus(clock=symphony.clock)
        healthy.register(PricingService())
        pricing._bus = healthy
        symphony.clock.advance(60_000)
        response = symphony.query(app_id, games[0])
        supplemental = list(
            response.views[0].supplemental.values())[0]
        assert supplemental.items
        assert symphony.runtime.circuit_breaker.state(
            pricing.source_id) == "closed"
