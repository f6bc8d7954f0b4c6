"""Tests for the supplemental-source circuit breaker and the gateway's
token bucket."""

import pytest

from repro.core.runtime import CircuitBreaker
from repro.gateway import TokenBucket
from repro.util import SimClock


def state(breaker, source_id: str) -> str:
    """The breaker's state for ``source_id``, read without probing
    (``is_open`` admits a half-open probe)."""
    if source_id in breaker._half_open:
        return "half_open"
    if source_id in breaker._opened_at_ms:
        return "open"
    if breaker._consecutive_failures.get(source_id, 0) > 0:
        return "degraded"
    return "closed"


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
        assert state(breaker, "s") == "open"

    def test_success_resets_counter(self):
        breaker = CircuitBreaker(SimClock(), failure_threshold=2)
        breaker.record_failure("s")
        breaker.record_success("s")
        breaker.record_failure("s")
        assert not breaker.is_open("s")
        assert state(breaker, "s") == "degraded"

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
        assert state(breaker, "s") == "closed"

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
        assert state(breaker, "s") == "half_open"
        assert breaker.is_open("s")           # second caller: blocked
        assert breaker.is_open("s")           # and the third
        breaker.record_success("s")
        assert not breaker.is_open("s")       # verdict in: closed
        assert state(breaker, "s") == "closed"

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
        assert state(breaker, "s") == "half_open"
        # The winning probe reports back; the circuit closes for all.
        breaker.record_success("s")
        assert state(breaker, "s") == "closed"

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
    """The gateway's per-app token bucket, the one throttle, judged at
    exact SimClock boundaries."""

    def test_evicts_exactly_at_window_edge(self):
        clock = SimClock(start_ms=0)
        bucket = TokenBucket(clock, rate_per_s=1.0, capacity=2.0)
        assert bucket.try_acquire()   # t=0
        assert bucket.try_acquire()   # t=0, bucket now empty
        clock.advance(999)
        assert not bucket.try_acquire()   # t=999: 0.999 of a token
        clock.advance(1)
        # t=1000: exactly one token has refilled.
        assert bucket.try_acquire()
        assert bucket.available() == 0.0

    def test_rejected_requests_do_not_consume_capacity(self):
        clock = SimClock(start_ms=0)
        bucket = TokenBucket(clock, rate_per_s=1.0, capacity=1.0)
        assert bucket.try_acquire()
        for __ in range(3):
            assert not bucket.try_acquire()
        clock.advance(1000)
        # Only the admitted request drew a token; the rejected ones
        # must not have pushed the refill back.
        assert bucket.try_acquire()

    def test_window_slides_per_event_not_per_batch(self):
        clock = SimClock(start_ms=0)
        bucket = TokenBucket(clock, rate_per_s=2.0, capacity=2.0)
        assert bucket.try_acquire()   # t=0
        assert bucket.try_acquire()   # t=0
        clock.advance(500)
        assert bucket.try_acquire()   # t=500: one token refilled
        assert not bucket.try_acquire()
        clock.advance(250)
        assert bucket.available() == 0.5   # refill is continuous
        clock.advance(250)
        assert bucket.try_acquire()   # t=1000
        assert bucket.available() == 0.0


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
        assert state(symphony.runtime.circuit_breaker,
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
        assert state(symphony.runtime.circuit_breaker,
                     pricing.source_id) == "closed"
