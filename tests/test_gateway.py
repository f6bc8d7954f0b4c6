"""repro.gateway — admission, fairness, coalescing, generational cache.

Covers the serving front door's four guarantees plus the stale-cache
regression: DRR fairness under a hot tenant, single-flight coalescing
(N waiters → 1 execution), shed-vs-degrade interplay with ``Deadline``,
and generation invalidation across ``DatasetIngestor`` + refresh.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.runtime import QueryRequest
from repro.errors import (
    AdmissionRejectedError,
    ConfigurationError,
    TicketPendingError,
)
from repro.gateway import (
    DeficitRoundRobinQueue,
    GatewayConfig,
    GenerationRegistry,
    ResultCache,
    TenantPolicy,
    TokenBucket,
    table_key,
)
from repro.gateway.coalesce import FlightEntry
from repro.util import SimClock

from .conftest import make_inventory_csv


# -- unit: token bucket --------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = SimClock()
        bucket = TokenBucket(clock, rate_per_s=2.0, capacity=3.0)
        assert [bucket.try_acquire() for __ in range(4)] == \
            [True, True, True, False]
        clock.advance(500)          # 0.5 s -> one token back
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_capacity(self):
        clock = SimClock()
        bucket = TokenBucket(clock, rate_per_s=100.0, capacity=2.0)
        clock.advance(60_000)
        assert bucket.available() == pytest.approx(2.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(SimClock(), rate_per_s=0, capacity=1)


# -- unit: deficit round-robin -------------------------------------------------

def _entry(principal, cost=1.0, tag=None):
    entry = FlightEntry(
        key=(principal, tag), principal=principal, request=None,
        deadline=None, context=None, enqueued_ms=0, cost=cost,
    )
    return entry


class TestDeficitRoundRobin:
    def test_round_robin_with_equal_weights(self):
        queue = DeficitRoundRobinQueue()
        for i in range(3):
            queue.push(_entry("a", tag=i))
        queue.push(_entry("b", tag=0))
        order = [queue.pop().principal for __ in range(4)]
        # b is served on the first rotation despite a's backlog.
        assert "b" in order[:2]
        assert order.count("a") == 3

    def test_weighted_service(self):
        weights = {"heavy": 2.0, "light": 1.0}
        queue = DeficitRoundRobinQueue(
            weight_of=lambda p: weights[p]
        )
        for i in range(8):
            queue.push(_entry("heavy", tag=i))
            queue.push(_entry("light", tag=i + 100))
        first_six = [queue.pop().principal for __ in range(6)]
        # Per round: heavy gets ~2 dispatches to light's 1.
        assert first_six.count("heavy") == 4
        assert first_six.count("light") == 2

    def test_idle_principal_forfeits_deficit(self):
        queue = DeficitRoundRobinQueue()
        queue.push(_entry("a", tag=1))
        assert queue.pop().principal == "a"
        assert queue.pop() is None
        # Returning later starts from zero deficit, not banked credit.
        queue.push(_entry("a", cost=3.0, tag=2))
        queue.push(_entry("b", tag=3))
        # a's head costs 3: it takes three rotations of quantum 1.
        assert queue.pop().principal == "b"
        assert queue.pop().principal == "a"

    def test_depths(self):
        queue = DeficitRoundRobinQueue()
        queue.push(_entry("a", tag=1))
        queue.push(_entry("a", tag=2))
        assert queue.depth("a") == 2
        assert queue.depth("b") == 0
        assert len(queue) == 2
        assert queue.depths() == {"a": 2}


# -- unit: generation registry + query cache -----------------------------------

class TestGenerations:
    def test_bump_and_validity(self):
        registry = GenerationRegistry()
        key = table_key("t1", "inventory")
        stamp = registry.snapshot([key])
        assert registry.valid(stamp)
        registry.bump(key)
        assert not registry.valid(stamp)
        assert registry.current(key) == 1

    def test_query_cache_generation_invalidation(self):
        clock = SimClock()
        registry = GenerationRegistry()
        cache = ResultCache(max_entries=4, ttl_ms=60_000,
                            generations=registry)
        cache.put("k", "value", clock.now_ms, cache.stamp(["corpus"]))
        assert cache.get("k", clock.now_ms) == "value"
        registry.bump("corpus")
        assert cache.get("k", clock.now_ms) is None
        assert cache.stats()["stale_invalidations"] == 1

    def test_query_cache_ttl(self):
        clock = SimClock()
        registry = GenerationRegistry()
        cache = ResultCache(ttl_ms=1_000, generations=registry)
        cache.put("k", "value", clock.now_ms, cache.stamp(["corpus"]))
        clock.advance(1_001)
        assert cache.get("k", clock.now_ms) is None


# -- integration fixtures ------------------------------------------------------

def build_app(symphony, account, name: str, table: str,
              games) -> str:
    """Host one GamerQueen-style app over a private inventory table."""
    symphony.upload_http(
        account, f"{table}.csv", make_inventory_csv(games), table,
        content_type="text/csv",
    )
    inventory = symphony.add_proprietary_source(
        account, table,
        search_fields=("title", "producer", "description"),
    )
    session = symphony.designer().new_application(
        name, account.tenant.tenant_id
    )
    slot = session.drag_source_onto_app(
        inventory.source_id, heading="Games", max_results=3,
        search_fields=("title", "producer", "description"),
    )
    session.add_hyperlink(slot, "title", href_field="detail_url")
    return symphony.host(session)


@pytest.fixture()
def gateway_symphony(tiny_web):
    from repro.core.platform import Symphony
    return Symphony(web=tiny_web, use_authority=False,
                    gateway=GatewayConfig(workers=2))


@pytest.fixture()
def gateway_app(gateway_symphony):
    sym = gateway_symphony
    account = sym.register_designer("Ann")
    games = sym.web.entities["video_games"][:4]
    app_id = build_app(sym, account, "GamerQueen", "inventory", games)
    return sym, account, app_id, games


# -- integration: clean path ---------------------------------------------------

class TestCleanPath:
    def test_gateway_response_matches_direct_query(self, tiny_web):
        from repro.core.platform import Symphony
        direct = Symphony(web=tiny_web, use_authority=False)
        via = Symphony(web=tiny_web, use_authority=False, gateway=True)
        results = {}
        for name, sym in (("direct", direct), ("via", via)):
            account = sym.register_designer("Ann")
            games = sym.web.entities["video_games"][:4]
            app_id = build_app(sym, account, "GamerQueen",
                               "inventory", games)
            if name == "direct":
                results[name] = sym.query(app_id, games[0])
            else:
                results[name] = sym.query_via_gateway(app_id, games[0])
        assert results["direct"].html == results["via"].html
        assert results["direct"].app_id == results["via"].app_id

    def test_query_via_gateway_requires_opt_in(self, symphony):
        with pytest.raises(ConfigurationError):
            symphony.query_via_gateway("app-000001", "anything")

    def test_repeat_query_hits_response_cache(self, gateway_app):
        sym, __, app_id, games = gateway_app
        first = sym.query_via_gateway(app_id, games[0])
        again = sym.query_via_gateway(app_id, games[0])
        assert again.html == first.html
        stats = sym.gateway.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["dispatched"] == 1

    def test_cache_key_normalizes_query_text(self, gateway_app):
        sym, __, app_id, games = gateway_app
        sym.query_via_gateway(app_id, games[0])
        sym.query_via_gateway(app_id, f"  {games[0].upper()} ")
        assert sym.gateway.stats()["cache"]["hits"] == 1


# -- integration: fairness -----------------------------------------------------

class TestFairness:
    def test_hot_tenant_cannot_starve_the_rest(self, gateway_symphony):
        """4x overload from one tenant: everyone else keeps >= 80% of
        fair share (the ISSUE acceptance bar; DRR delivers 100%)."""
        sym = gateway_symphony
        games = sym.web.entities["video_games"][:4]
        app_ids = []
        for i in range(4):
            account = sym.register_designer(f"Designer {i}")
            app_ids.append(build_app(sym, account, f"App {i}",
                                     f"inventory_{i}", games))
        hot, cold = app_ids[0], app_ids[1:]
        capacity = 16
        fair_share = capacity // len(app_ids)
        # Hot tenant floods 4x its share; distinct queries so neither
        # the cache nor single-flight absorbs the pressure.
        for i in range(4 * fair_share):
            sym.gateway.submit(QueryRequest(
                app_id=hot, query_text=f"{games[i % 4]} copy {i}"
            ))
        for app_id in cold:
            for i in range(fair_share):
                sym.gateway.submit(QueryRequest(
                    app_id=app_id, query_text=f"{games[i]} v{i}"
                ))
        dispatched = sym.gateway.pump(max_dispatches=capacity)
        assert dispatched == capacity
        completed = sym.gateway.stats()["completed"]
        for app_id in cold:
            assert completed.get(app_id, 0) >= 0.8 * fair_share
        # ... and the hot tenant got its share, not the whole box.
        assert completed[hot] == fair_share

    def test_weighted_tenant_gets_proportional_share(self, tiny_web):
        from repro.core.platform import Symphony
        sym = Symphony(
            web=tiny_web, use_authority=False,
            gateway=GatewayConfig(policies={
                "app-000001": TenantPolicy(weight=2.0),
            }),
        )
        games = sym.web.entities["video_games"][:4]
        app_ids = []
        for i in range(2):
            account = sym.register_designer(f"Designer {i}")
            app_ids.append(build_app(sym, account, f"App {i}",
                                     f"inventory_{i}", games))
        for i in range(12):
            for app_id in app_ids:
                sym.gateway.submit(QueryRequest(
                    app_id=app_id, query_text=f"{games[i % 4]} q{i}"
                ))
        sym.gateway.pump(max_dispatches=9)
        completed = sym.gateway.stats()["completed"]
        assert completed["app-000001"] == 2 * completed["app-000002"]

    def test_queue_bound_sheds_flood(self, gateway_app):
        sym, __, app_id, games = gateway_app
        depth = sym.gateway.config.default_policy.max_queue_depth
        shed = 0
        for i in range(depth + 10):
            try:
                sym.gateway.submit(QueryRequest(
                    app_id=app_id, query_text=f"{games[0]} q{i}"
                ))
            except AdmissionRejectedError as exc:
                assert exc.reason == "queue_full"
                shed += 1
        assert shed == 10
        assert sym.gateway.stats()["shed"] == {"queue_full": 10}

    def test_token_bucket_throttles_per_app(self, tiny_web):
        from repro.core.platform import Symphony
        sym = Symphony(
            web=tiny_web, use_authority=False,
            gateway=GatewayConfig(default_policy=TenantPolicy(
                rate_per_s=1.0, burst=2.0,
            )),
        )
        account = sym.register_designer("Ann")
        games = sym.web.entities["video_games"][:4]
        app_id = build_app(sym, account, "GamerQueen", "inventory",
                           games)
        sym.gateway.submit(QueryRequest(app_id=app_id,
                                        query_text=games[0]))
        sym.gateway.submit(QueryRequest(app_id=app_id,
                                        query_text=games[1]))
        with pytest.raises(AdmissionRejectedError) as excinfo:
            sym.gateway.submit(QueryRequest(app_id=app_id,
                                            query_text=games[2]))
        assert excinfo.value.reason == "throttle"
        sym.clock.advance(1_000)       # one token refills
        sym.gateway.submit(QueryRequest(app_id=app_id,
                                        query_text=games[2]))


# -- integration: coalescing ---------------------------------------------------

class TestCoalescing:
    def test_n_waiters_one_execution(self, gateway_app):
        sym, __, app_id, games = gateway_app
        request = QueryRequest(app_id=app_id, query_text=games[0])
        tickets = [sym.gateway.submit(request) for __ in range(5)]
        sym.gateway.pump()
        stats = sym.gateway.stats()
        assert stats["dispatched"] == 1
        assert stats["coalesced"] == 4
        responses = [t.result() for t in tickets]
        assert all(r is responses[0] for r in responses)

    def test_pending_ticket_result_says_to_pump(self, gateway_app):
        # A single-threaded host that forgets to pump gets an error
        # naming the fix, not a result() that blocks forever.
        sym, __, app_id, games = gateway_app
        ticket = sym.gateway.submit(QueryRequest(app_id=app_id,
                                                 query_text=games[0]))
        assert not ticket.done
        with pytest.raises(TicketPendingError, match=r"pump\(\)"):
            ticket.result()
        assert sym.gateway.pump() == 1
        assert ticket.result().html

    def test_coalesced_across_threads(self, gateway_app):
        """Concurrent query() callers on one key: a single dispatch
        serves every thread."""
        sym, __, app_id, games = gateway_app
        request = QueryRequest(app_id=app_id, query_text=games[1])
        barrier = threading.Barrier(4)
        results, errors = [], []

        def worker():
            barrier.wait()
            try:
                results.append(sym.gateway.query(request))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 4
        assert len({r.html for r in results}) == 1
        stats = sym.gateway.stats()
        # Every caller is accounted for: one (or, under unlucky
        # scheduling, a few) dispatches; the rest coalesced onto an
        # in-flight ticket or hit the cache after it resolved.
        assert stats["dispatched"] >= 1
        assert stats["dispatched"] + stats["coalesced"] \
            + stats["cache"]["hits"] == 4

    def test_threaded_hosts_replay_a_serial_run(self, tiny_web):
        """Four threads through ``query`` with distinct queries get the
        responses and simulated stage timings of a serial run: the
        gateway executes one entry at a time, so no two executions
        advance the shared clock interleaved."""
        from repro.core.platform import Symphony
        sym = Symphony(web=tiny_web, use_authority=False,
                       cache_enabled=False,
                       gateway=GatewayConfig(cache=False))
        account = sym.register_designer("Ann")
        games = sym.web.entities["video_games"][:4]
        app_id = build_app(sym, account, "GamerQueen", "inventory",
                           games)

        def observed(query):
            response = sym.gateway.query(
                QueryRequest(app_id=app_id, query_text=query))
            return response.html, [(s.name, s.elapsed_ms)
                                   for s in response.trace.stages]

        serial = {query: observed(query) for query in games}
        mismatches, errors = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for __ in range(40):
                barrier = threading.Barrier(len(games))

                def worker(query):
                    barrier.wait()
                    try:
                        if observed(query) != serial[query]:
                            mismatches.append(query)
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [threading.Thread(target=worker, args=(q,))
                           for q in games]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not mismatches

    def test_distinct_pages_do_not_coalesce(self, gateway_app):
        sym, __, app_id, games = gateway_app
        sym.gateway.submit(QueryRequest(app_id=app_id,
                                        query_text=games[0], page=0))
        sym.gateway.submit(QueryRequest(app_id=app_id,
                                        query_text=games[0], page=1))
        sym.gateway.pump()
        assert sym.gateway.stats()["dispatched"] == 2
        assert sym.gateway.stats()["coalesced"] == 0


# -- integration: deadlines (shed vs degrade) ----------------------------------

class TestDeadlines:
    def test_projected_wait_sheds_before_queueing(self, gateway_app):
        sym, __, app_id, games = gateway_app
        # Build a deep backlog of undeadlined work.
        for i in range(20):
            sym.gateway.submit(QueryRequest(
                app_id=app_id, query_text=f"{games[i % 4]} q{i}"
            ))
        # Projected wait: 20 queued * 40ms est / 2 workers = 400ms,
        # far beyond a 50ms budget -> shed at the door.
        with pytest.raises(AdmissionRejectedError) as excinfo:
            sym.gateway.submit(QueryRequest(
                app_id=app_id, query_text="too late", deadline_ms=50,
            ))
        assert excinfo.value.reason == "deadline"
        assert sym.gateway.stats()["shed"]["deadline"] == 1

    def test_adequate_budget_executes_with_degradation_not_shed(
            self, gateway_app):
        """A request whose budget survives queueing runs the pipeline
        and degrades there if the remaining budget is tight — the
        shed-vs-degrade boundary."""
        sym, __, app_id, games = gateway_app
        # Queue is empty, so the 12ms budget clears the projected-wait
        # check — but it cannot cover the pipeline itself.
        ticket = sym.gateway.submit(QueryRequest(
            app_id=app_id, query_text=games[3], deadline_ms=12,
        ))
        sym.gateway.pump()
        response = ticket.result()     # not shed...
        assert response.degraded       # ...but degraded inside the pipeline
        assert any("deadline" in w for w in response.trace.warnings)

    def test_budget_lapsed_in_queue_is_shed_not_executed(
            self, gateway_app):
        sym, __, app_id, games = gateway_app
        # Admitted with a real budget (queue empty at submit time) ...
        ticket = sym.gateway.submit(QueryRequest(
            app_id=app_id, query_text=games[0], deadline_ms=100,
        ))
        # ... but the budget dies before anything dispatches it.
        sym.clock.advance(500)
        dispatched_before = sym.gateway.stats()["dispatched"]
        sym.gateway.pump()
        with pytest.raises(AdmissionRejectedError) as excinfo:
            ticket.result()
        assert excinfo.value.reason == "deadline_lapsed"
        # The pipeline never ran for it.
        assert sym.gateway.stats()["completed"] == {}
        assert sym.gateway.stats()["dispatched"] == dispatched_before + 1

    def test_queue_wait_charges_the_pipeline_budget(self, gateway_app):
        sym, __, app_id, games = gateway_app
        for i in range(2):
            sym.gateway.submit(QueryRequest(
                app_id=app_id, query_text=f"{games[i]} ahead {i}"
            ))
        ticket = sym.gateway.submit(QueryRequest(
            app_id=app_id, query_text=games[2], deadline_ms=5_000,
        ))
        submit_ms = sym.clock.now_ms
        sym.gateway.pump()
        waited = sym.clock.now_ms - submit_ms
        response = ticket.result()
        assert waited > 0
        assert not response.degraded


# -- integration: generational invalidation ------------------------------------

class TestGenerationInvalidation:
    def test_reingest_invalidates_gateway_cache(self, gateway_app):
        sym, account, app_id, games = gateway_app
        first = sym.query_via_gateway(app_id, games[0])
        assert first.views[0].item.get("producer") == "Studio 0"
        # Designer re-uploads the inventory with new producers.
        fresh = make_inventory_csv(games).replace(b"Studio",
                                                  b"Reissue")
        sym.upload_http(account, "inventory2.csv", fresh, "inventory",
                        content_type="text/csv", key_field="title")
        after = sym.query_via_gateway(app_id, games[0])
        assert after.views[0].item.get("producer") == "Reissue 0"
        assert sym.gateway.cache.stats()["stale_invalidations"] == 1

    def test_reingest_invalidates_runtime_result_cache(self, symphony):
        """Regression: ResultCache entries used to survive re-ingest
        for their whole TTL, serving rows the designer had replaced."""
        sym = symphony
        account = sym.register_designer("Ann")
        games = sym.web.entities["video_games"][:4]
        app_id = build_app(sym, account, "GamerQueen", "inventory",
                           games)
        first = sym.query(app_id, games[0])
        assert first.views[0].item.get("producer") == "Studio 0"
        cached = sym.query(app_id, games[0])
        assert cached.trace.cache_hits >= 1
        fresh = make_inventory_csv(games).replace(b"Studio",
                                                  b"Reissue")
        sym.upload_http(account, "inventory2.csv", fresh, "inventory",
                        content_type="text/csv", key_field="title")
        after = sym.query(app_id, games[0])
        assert after.trace.cache_hits == 0
        assert after.views[0].item.get("producer") == "Reissue 0"

    @staticmethod
    def _reingest_mid_read(sym, account, app_id, games, monkeypatch):
        """Make the app's first live inventory search race a re-ingest:
        the new rows land after the source has read the old ones but
        before its caller can cache what it read."""
        source = sym.sources.get(
            sym.apps.get(app_id).bindings[0].source_id)
        search = source.search
        fresh = make_inventory_csv(games).replace(b"Studio", b"Reissue")

        def racing_search(query):
            result = search(query)
            monkeypatch.setattr(source, "search", search)
            sym.upload_http(account, "inventory2.csv", fresh,
                            "inventory", content_type="text/csv",
                            key_field="title")
            return result

        monkeypatch.setattr(source, "search", racing_search)

    def test_reingest_during_source_read_is_not_cached_as_current(
            self, symphony, monkeypatch):
        """Regression: the runtime cache stamped an entry with the
        generations current at ``put`` — after the data was read — so
        rows replaced mid-read were served for the whole TTL."""
        sym = symphony
        account = sym.register_designer("Ann")
        games = sym.web.entities["video_games"][:4]
        app_id = build_app(sym, account, "GamerQueen", "inventory",
                           games)
        self._reingest_mid_read(sym, account, app_id, games, monkeypatch)
        raced = sym.query(app_id, games[0])
        assert raced.views[0].item.get("producer") == "Studio 0"
        after = sym.query(app_id, games[0])
        assert after.trace.cache_hits == 0
        assert after.views[0].item.get("producer") == "Reissue 0"

    def test_reingest_during_query_is_not_cached_as_current(
            self, tiny_web, monkeypatch):
        """The same race one level up: the gateway's response cache
        (runtime cache off, so only the gateway's stamp is on trial)."""
        from repro.core.platform import Symphony
        sym = Symphony(web=tiny_web, use_authority=False,
                       cache_enabled=False, gateway=True)
        account = sym.register_designer("Ann")
        games = sym.web.entities["video_games"][:4]
        app_id = build_app(sym, account, "GamerQueen", "inventory",
                           games)
        self._reingest_mid_read(sym, account, app_id, games, monkeypatch)
        raced = sym.query_via_gateway(app_id, games[0])
        assert raced.views[0].item.get("producer") == "Studio 0"
        after = sym.query_via_gateway(app_id, games[0])
        assert sym.gateway.cache.stats()["hits"] == 0
        assert after.views[0].item.get("producer") == "Reissue 0"

    def test_unchanged_upload_does_not_bump(self, gateway_app):
        sym, account, app_id, games = gateway_app
        sym.query_via_gateway(app_id, games[0])
        generations = dict(sym.generations._generations)
        # Byte-identical re-upload short-circuits as unchanged.
        sym.upload_http(account, "inventory.csv",
                        make_inventory_csv(games), "inventory",
                        content_type="text/csv")
        assert sym.generations._generations == generations
        assert set(generations.values()) == {1}
        sym.query_via_gateway(app_id, games[0])
        assert sym.gateway.cache.stats()["hits"] == 1

    def test_refresh_bumps_registered_generation_key(self):
        from repro.ingest.refresh import RefreshScheduler

        class Report:
            unchanged = False
            inserted = 2
            updated = 0

        clock = SimClock()
        registry = GenerationRegistry()
        scheduler = RefreshScheduler(clock, generations=registry)
        scheduler.register("feed-1", 1_000, lambda: Report(),
                           generation_key="tenant:t1:news")
        clock.advance(1_000)
        scheduler.run_due()
        assert registry.current("tenant:t1:news") == 1

    def test_republished_app_gets_fresh_cache_key(self, gateway_app):
        import dataclasses

        sym, account, app_id, games = gateway_app
        sym.query_via_gateway(app_id, games[0])
        # Redeploy the same app id with a revised definition; the
        # registry bumps its version to 2.
        current = sym.apps.get(app_id)
        sym.host(dataclasses.replace(current, name="GamerQueen v2"))
        assert sym.apps.version(app_id) == 2
        sym.query_via_gateway(app_id, games[0])
        # Version is part of the key: no cross-version hit.
        assert sym.gateway.cache.stats()["hits"] == 0


# -- integration: telemetry wiring ---------------------------------------------

class TestGatewayTelemetry:
    def test_shed_and_dispatch_emit_metrics_and_events(self, tiny_web):
        from repro.core.platform import Symphony
        sym = Symphony(
            web=tiny_web, use_authority=False, telemetry=True,
            gateway=GatewayConfig(default_policy=TenantPolicy(
                max_queue_depth=2,
            )),
        )
        account = sym.register_designer("Ann")
        games = sym.web.entities["video_games"][:4]
        app_id = build_app(sym, account, "GamerQueen", "inventory",
                           games)
        for i in range(4):
            try:
                sym.gateway.submit(QueryRequest(
                    app_id=app_id, query_text=f"{games[i]} t{i}"
                ))
            except AdmissionRejectedError:
                pass
        sym.gateway.pump()
        kinds = [e.kind for e in sym.telemetry.events.events]
        assert kinds.count("gateway.shed") == 2
        snapshot = sym.telemetry.metrics.snapshot()
        assert snapshot["counter"][
            "gateway_shed_total{reason=queue_full}"] == 2
        assert snapshot["counter"]["gateway_admitted_total"] == 2
        assert snapshot["histogram"]["gateway_queue_wait_ms"][
            "count"] == 2
        assert snapshot["gauge"]["gateway_queue_depth"] == 0

    def test_dispatch_nests_query_span_under_gateway(self, tiny_web):
        from repro.core.platform import Symphony
        sym = Symphony(web=tiny_web, use_authority=False,
                       telemetry=True, gateway=True)
        account = sym.register_designer("Ann")
        games = sym.web.entities["video_games"][:4]
        app_id = build_app(sym, account, "GamerQueen", "inventory",
                           games)
        sym.query_via_gateway(app_id, games[0])
        spans = sym.telemetry.tracer.spans
        gateway_spans = [s for s in spans if s.name == "gateway"]
        assert len(gateway_spans) == 1
        query_spans = [s for s in spans if s.name == "query"]
        assert query_spans[0].parent_id == gateway_spans[0].span_id


# -- integration: gateway -> runtime hand-off -----------------------------------

class TestRuntimeHandOff:
    """The runtime is handed the gateway's own ``Deadline`` and the
    queue wait it measured; neither is re-derived on the other side."""

    @staticmethod
    def _two_queued(tiny_web, second_deadline_ms=0.0, **layers):
        """Submit two requests, then pump: the second waits out the
        first's service time. Returns ``(sym, submit_ms)``."""
        from repro.core.platform import Symphony
        sym = Symphony(web=tiny_web, use_authority=False, gateway=True,
                       **layers)
        account = sym.register_designer("Ann")
        games = sym.web.entities["video_games"][:4]
        app_id = build_app(sym, account, "GamerQueen", "inventory",
                           games)
        sym.gateway.submit(QueryRequest(app_id=app_id,
                                        query_text=games[0]))
        sym.gateway.submit(QueryRequest(
            app_id=app_id, query_text=games[1],
            deadline_ms=second_deadline_ms))
        return sym, sym.clock.now_ms

    def test_queue_wait_counts_toward_observed_latency(
            self, tiny_web, monkeypatch):
        sym, submit_ms = self._two_queued(tiny_web, slo=True)
        observed = []
        observe = sym.slo.observe

        def recording_observe(**outcome):
            observed.append(outcome)
            return observe(**outcome)

        monkeypatch.setattr(sym.slo, "observe", recording_observe)
        sym.gateway.pump()
        first, second = observed
        assert first["latency_ms"] == first["end_ms"] - first["start_ms"]
        waited = second["start_ms"] - submit_ms
        assert waited > 0
        assert second["latency_ms"] == \
            second["end_ms"] - second["start_ms"] + waited

    def test_overrun_emits_one_event_quoting_the_full_budget(
            self, tiny_web):
        # 20ms clears admission, but the first request's service time
        # eats most of it in the queue and the pipeline overruns.
        sym, __ = self._two_queued(tiny_web, second_deadline_ms=20.0,
                                   telemetry=True)
        sym.gateway.pump()
        exceeded = [e for e in sym.telemetry.events.events
                    if e.kind == "deadline.exceeded"]
        assert len(exceeded) == 1
        assert exceeded[0].fields["budget_ms"] == 20.0
        query_spans = [s for s in sym.telemetry.tracer.spans
                       if s.name == "query"]
        # The root span still quotes what queueing left behind.
        assert 0 < query_spans[1].attrs["deadline_budget_ms"] < 20.0


# -- backward compatibility ----------------------------------------------------

class TestPrimitivesExtraction:
    def test_runtime_re_exports_primitives(self):
        from repro.core import runtime
        from repro.gateway import cache, primitives
        assert runtime.ResultCache is cache.ResultCache
        assert runtime.CircuitBreaker is primitives.CircuitBreaker


class TestGenerationKeyAgreement:
    """One derivation: for every kind of source, the keys the gateway
    stamps on a response of an app bound to it and the keys the runtime
    stamps on its cached result are ``source.generation_keys()`` — the
    same set."""

    @pytest.mark.parametrize("cluster", [None, 2])
    def test_gateway_and_runtime_agree(self, tiny_web, cluster,
                                       monkeypatch):
        from repro.core.platform import Symphony
        from repro.services.samples import PricingService

        sym = Symphony(web=tiny_web, use_authority=False,
                       cluster=cluster, gateway=True)
        account = sym.register_designer("Ann")
        games = sym.web.entities["video_games"][:4]
        sym.upload_http(account, "inventory.csv",
                        make_inventory_csv(games), "inventory",
                        content_type="text/csv")
        proprietary = sym.add_proprietary_source(
            account, "inventory", search_fields=("title",))
        web = sym.add_web_source("Reviews", "web")
        sym.bus.register(PricingService(seed=2))
        service = sym.add_service_source(
            "Pricing", "pricing", "GET /prices/{sku}", "sku",
            item_fields=("sku", "price"))

        table = table_key(account.tenant.tenant_id, "inventory")
        engine = {"corpus:web", "cluster-topology"} if cluster \
            else {"corpus:web"}
        expected = {
            proprietary: {table},
            web: engine,
            service: {f"source:{service.source_id}"},
        }

        runtime_stamps = {}
        put = sym.runtime.cache.put

        def recording_put(key, value, now_ms, stamp=None):
            runtime_stamps[key[0]] = set(stamp)
            put(key, value, now_ms, stamp)

        monkeypatch.setattr(sym.runtime.cache, "put", recording_put)
        for source, keys in expected.items():
            session = sym.designer().new_application(
                source.name, account.tenant.tenant_id)
            slot = session.drag_source_onto_app(source.source_id)
            session.add_text(slot, source.fields()[0])
            app_id = sym.host(session)
            sym.query(app_id, games[0])
            assert set(sym.gateway._generation_keys(app_id)) == keys
            assert runtime_stamps[source.cache_identity] == keys
