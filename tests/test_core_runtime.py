"""Tests for the query-execution runtime (Fig. 2)."""

import pytest

from repro.core.datasources import (
    DataSource,
    SourceItem,
    SourceKind,
    SourceQuery,
    SourceRegistry,
    SourceResult,
    CustomerProfileSource,
)
from repro.core.application import (
    ApplicationDefinition,
    ElementKind,
    LayoutElement,
    ResultLayout,
    SourceBinding,
    SourceRole,
    SourceSlot,
)
from repro.core.runtime import (
    ApplicationRegistry,
    QueryRequest,
    ResultCache,
    SymphonyRuntime,
)
from repro.errors import NotFoundError, ServiceError
from repro.gateway import GenerationRegistry
from repro.searchengine.logs import QueryLog
from repro.util import SimClock

from .conftest import CACHE_STAMPS


class StubSource(DataSource):
    """Programmable source for pipeline tests."""

    def __init__(self, source_id, items_for=None, fail=False,
                 latency_recorder=None):
        super().__init__(source_id, source_id, SourceKind.PROPRIETARY)
        self.items_for = items_for or {}
        self.fail = fail
        self.queries: list[str] = []

    def fields(self):
        return ["title", "url"]

    def search(self, query: SourceQuery) -> SourceResult:
        self.queries.append(query.text)
        if self.fail:
            raise ServiceError(f"{self.source_id} is down")
        items = self.items_for.get(query.text, ())
        return SourceResult(self.source_id, tuple(items[:query.count]),
                            len(items))


def make_item(title, url="", **fields):
    return SourceItem(item_id=title, title=title,
                      url=url or f"http://x.example/{title}",
                      fields=fields)


def build_app(children_bindings=(), customer=False, ads=False):
    bindings = [SourceBinding("bp", "primary", SourceRole.PRIMARY,
                              max_results=5)]
    child_slots = []
    for binding in children_bindings:
        bindings.append(binding)
        child_slots.append(SourceSlot(binding_id=binding.binding_id))
    if customer:
        bindings.append(SourceBinding("bc", "customer",
                                      SourceRole.CUSTOMER))
    slots = [SourceSlot(
        binding_id="bp", heading="Main",
        result_layout=ResultLayout((
            LayoutElement(ElementKind.TEXT, "title"),
        )),
        children=tuple(child_slots),
    )]
    if ads:
        bindings.append(SourceBinding("ba", "ads", SourceRole.ADS))
        slots.append(SourceSlot(binding_id="ba"))
    return ApplicationDefinition(
        app_id="app-1", name="Test", owner_tenant="t1",
        bindings=tuple(bindings), slots=tuple(slots),
    )


def make_runtime(sources, app, log=None, cache_enabled=True,
                 **options):
    registry = SourceRegistry()
    for source in sources:
        registry.add(source)
    apps = ApplicationRegistry()
    apps.register(app)
    return SymphonyRuntime(
        registry=registry, apps=apps, clock=SimClock(start_ms=0),
        log=log, cache_enabled=cache_enabled, **options,
    )


class TestPipelineStages:
    def test_stage_sequence_matches_fig2(self):
        primary = StubSource("primary",
                             {"halo": [make_item("Halo")]})
        runtime = make_runtime([primary], build_app())
        response = runtime.handle_query(QueryRequest("app-1", "halo"))
        names = [stage.name for stage in response.trace.stages]
        assert names == ["receive", "primary", "supplemental",
                         "merge+render", "respond"]

    def _three_titles(self):
        titles = ["Halo Odyssey", "Zelda Legends", "Braid Arena"]
        primary = StubSource("primary",
                             {"x": [make_item(t) for t in titles]})
        supp = StubSource("reviews")
        binding = SourceBinding("bs", "reviews",
                                SourceRole.SUPPLEMENTAL,
                                drive_fields=("title",), max_results=2)
        runtime = make_runtime([primary, supp], build_app((binding,)),
                               cache_enabled=False)
        return titles, supp, runtime.handle_query(
            QueryRequest("app-1", "x"))

    def test_one_lookup_per_view(self):
        titles, supp, __ = self._three_titles()
        assert supp.queries == [f'"{title}"' for title in titles]

    def test_supplemental_keeps_primary_results(self):
        titles, __, response = self._three_titles()
        assert [v.item.title for v in response.views] == titles

    def test_primary_results_become_views(self):
        primary = StubSource("primary", {
            "halo": [make_item("Halo 1"), make_item("Halo 2")],
        })
        runtime = make_runtime([primary], build_app())
        response = runtime.handle_query(QueryRequest("app-1", "halo"))
        assert [v.item.title for v in response.views] == \
            ["Halo 1", "Halo 2"]
        assert "Halo 1" in response.html

    def test_supplemental_driven_by_primary_fields(self):
        primary = StubSource("primary", {
            "halo": [make_item("Halo Odyssey")],
        })
        supp = StubSource("reviews", {
            '"Halo Odyssey" review': [make_item("A review")],
        })
        binding = SourceBinding("bs", "reviews",
                                SourceRole.SUPPLEMENTAL,
                                drive_fields=("title",),
                                query_suffix="review")
        runtime = make_runtime([primary, supp],
                               build_app((binding,)))
        response = runtime.handle_query(QueryRequest("app-1", "halo"))
        assert supp.queries == ['"Halo Odyssey" review']
        view = response.views[0]
        assert view.supplemental["bs"].items[0].title == "A review"

    def test_supplemental_suffix_fallback_on_empty(self):
        primary = StubSource("primary", {
            "halo": [make_item("Halo Odyssey")],
        })
        supp = StubSource("reviews", {
            '"Halo Odyssey"': [make_item("General page")],
        })
        binding = SourceBinding("bs", "reviews",
                                SourceRole.SUPPLEMENTAL,
                                drive_fields=("title",),
                                query_suffix="review")
        runtime = make_runtime([primary, supp],
                               build_app((binding,)))
        response = runtime.handle_query(QueryRequest("app-1", "halo"))
        assert supp.queries == ['"Halo Odyssey" review',
                                '"Halo Odyssey"']
        assert response.views[0].supplemental["bs"].items

    def test_missing_drive_field_warns_and_continues(self):
        primary = StubSource("primary", {
            "halo": [SourceItem(item_id="x", title="")],  # empty title
        })
        supp = StubSource("reviews")
        binding = SourceBinding("bs", "reviews",
                                SourceRole.SUPPLEMENTAL,
                                drive_fields=("title",))
        runtime = make_runtime([primary, supp],
                               build_app((binding,)))
        response = runtime.handle_query(QueryRequest("app-1", "halo"))
        assert response.trace.warnings
        assert supp.queries == []
        assert response.views[0].supplemental["bs"].items == ()

    def test_supplemental_failure_isolated(self):
        primary = StubSource("primary", {
            "halo": [make_item("Halo")],
        })
        broken = StubSource("broken", fail=True)
        binding = SourceBinding("bs", "broken",
                                SourceRole.SUPPLEMENTAL,
                                drive_fields=("title",))
        runtime = make_runtime([primary, broken],
                               build_app((binding,)))
        response = runtime.handle_query(QueryRequest("app-1", "halo"))
        assert response.views  # app still answered
        assert any("broken" in w for w in response.trace.warnings)

    def test_unknown_app_raises(self):
        runtime = make_runtime([StubSource("primary")], build_app())
        with pytest.raises(NotFoundError):
            runtime.handle_query(QueryRequest("ghost", "halo"))

    def test_total_time_is_sum_of_stages(self):
        primary = StubSource("primary", {"halo": [make_item("Halo")]})
        runtime = make_runtime([primary], build_app())
        trace = runtime.handle_query(
            QueryRequest("app-1", "halo")
        ).trace
        assert trace.total_ms() == pytest.approx(
            sum(s.elapsed_ms for s in trace.stages)
        )

    def test_clock_advances_with_pipeline(self):
        primary = StubSource("primary", {"halo": [make_item("Halo")]})
        runtime = make_runtime([primary], build_app())
        before = runtime.clock.now_ms
        runtime.handle_query(QueryRequest("app-1", "halo"))
        assert runtime.clock.now_ms > before


class TestCustomerRewrite:
    def make(self):
        primary = StubSource("primary")
        customer = CustomerProfileSource("customer", "Customers")
        customer.set_profile("u1", ("rpg",))
        runtime = make_runtime(
            [primary, customer], build_app(customer=True)
        )
        return runtime, primary

    def test_rewrite_applied_for_known_customer(self):
        runtime, primary = self.make()
        runtime.handle_query(QueryRequest("app-1", "halo",
                                          customer_id="u1"))
        assert "rpg" in primary.queries[0]

    def test_no_rewrite_for_unknown_customer(self):
        runtime, primary = self.make()
        runtime.handle_query(QueryRequest("app-1", "halo",
                                          customer_id="u2"))
        assert primary.queries[0] == "halo"

    def test_rewrite_stage_present(self):
        runtime, __ = self.make()
        trace = runtime.handle_query(
            QueryRequest("app-1", "halo", customer_id="u1")
        ).trace
        assert trace.stage("customer-rewrite")


class TestCaching:
    def make(self, cache_enabled=True):
        primary = StubSource("primary", {"halo": [make_item("Halo")]})
        runtime = make_runtime([primary], build_app(),
                               cache_enabled=cache_enabled)
        return runtime, primary

    def test_repeat_query_served_from_cache(self):
        runtime, primary = self.make()
        runtime.handle_query(QueryRequest("app-1", "halo"))
        response = runtime.handle_query(QueryRequest("app-1", "halo"))
        assert len(primary.queries) == 1
        assert response.trace.cache_hits == 1
        assert response.views[0].item.title == "Halo"

    def test_cache_disabled_queries_every_time(self):
        runtime, primary = self.make(cache_enabled=False)
        runtime.handle_query(QueryRequest("app-1", "halo"))
        runtime.handle_query(QueryRequest("app-1", "halo"))
        assert len(primary.queries) == 2

    def test_cached_repeat_is_faster(self):
        runtime, __ = self.make()
        first = runtime.handle_query(QueryRequest("app-1", "halo"))
        second = runtime.handle_query(QueryRequest("app-1", "halo"))
        assert second.trace.total_ms() < first.trace.total_ms()

    def test_ttl_expiry(self):
        runtime, primary = self.make()
        runtime.handle_query(QueryRequest("app-1", "halo"))
        runtime.clock.advance(runtime.cache.ttl_ms + 1)
        runtime.handle_query(QueryRequest("app-1", "halo"))
        assert len(primary.queries) == 2

    def test_lru_eviction(self):
        # Evictions run LRU within the unread segment; an entry that
        # was read sits in the read segment and outlives them.
        for stamp in CACHE_STAMPS:
            cache = ResultCache(max_entries=2)
            cache.put("a", 1, 0, cache.stamp(stamp))
            cache.put("b", 2, 0, cache.stamp(stamp))
            cache.get("a", now_ms=0)   # a is read
            cache.put("c", 3, 0, cache.stamp(stamp))
            cache.put("d", 4, 0, cache.stamp(stamp))  # evicts b
            assert list(cache._unread) == ["c", "d"]
            assert list(cache._read) == ["a"]
            cache.put("e", 5, 0, cache.stamp(stamp))  # evicts c
            assert cache.get("b", now_ms=0) is None
            assert cache.get("c", now_ms=0) is None
            assert cache.get("a", now_ms=0) == 1
            assert cache.stats()["lru_evictions"] == 2
            assert len(cache) == 3
    def test_put_sweeps_expired_entries(self):
        # Expired entries must not linger just because their keys are
        # never re-read: any put prunes them.
        for stamp in CACHE_STAMPS:
            cache = ResultCache(max_entries=10, ttl_ms=100)
            cache.put("old-1", 1, 0, cache.stamp(stamp))
            cache.put("old-2", 2, 0, cache.stamp(stamp))
            cache.put("fresh", 3, 200, cache.stamp(stamp))
            assert len(cache) == 1
            assert cache.get("fresh", now_ms=200) == 3

    def test_ttl_sweep_protects_live_entries_from_lru(self):
        # TTL-dead entries are swept *before* the LRU cap is applied,
        # so stale junk can never push a live entry out.
        for stamp in CACHE_STAMPS:
            cache = ResultCache(max_entries=2, ttl_ms=100)
            cache.put("dead", 1, 0, cache.stamp(stamp))
            cache.put("live", 2, 150, cache.stamp(stamp))
            cache.put("newer", 3, 200, cache.stamp(stamp))
            # Without the sweep, the cap would have evicted "live"
            # (oldest by insertion) while the expired "dead" still
            # counted.
            assert cache.get("live", now_ms=200) == 2
            assert cache.get("newer", now_ms=200) == 3
            assert cache.get("dead", now_ms=200) is None

    def test_put_does_not_sweep_generation_stale_entries(self):
        # The put-time sweep is TTL-only: an entry whose generation
        # moved stays resident until it is read (or the LRU cap
        # reaches it), so a put never validates the whole cache.
        registry = GenerationRegistry()
        cache = ResultCache(max_entries=10, generations=registry)
        cache.put("stale", 1, 0, cache.stamp(("corpus",)))
        registry.bump("corpus")
        cache.put("fresh", 2, 0, cache.stamp(("corpus",)))
        assert len(cache) == 2
        assert cache.get("stale", now_ms=0) is None
        assert cache.get("fresh", now_ms=0) == 2
        assert len(cache) == 1
        assert cache.stats()["stale_invalidations"] == 1

    def test_lru_cap_takes_stale_entries_before_live_ones(self):
        # A table re-ingested every few seconds must not fill the
        # cache with dead entries that push live ones out — in either
        # segment — and the scan that finds them runs once per bump,
        # not once per put.
        class CountingRegistry(GenerationRegistry):
            validations = 0

            def valid(self, stamp):
                self.validations += 1
                return super().valid(stamp)

        registry = CountingRegistry()
        cache = ResultCache(max_entries=2, generations=registry)
        table = ("tenant:t1:inventory",)
        cache.put("live", 1, 0, cache.stamp(("corpus",)))
        cache.put("stale-read", 2, 0, cache.stamp(table))
        assert cache.get("stale-read", now_ms=0) == 2
        cache.put("stale-unread", 3, 0, cache.stamp(table))
        registry.bump("tenant:t1:inventory")
        cache.put("new", 4, 0, cache.stamp(("corpus",)))
        stats = cache.stats()
        assert stats["lru_evictions"] == 0
        assert stats["stale_invalidations"] == 2
        assert len(cache) == 2
        assert cache.get("live", now_ms=0) == 1
        # Full of live entries and nothing bumped since: plain LRU.
        cache.put("newer", 5, 0, cache.stamp(("corpus",)))
        scanned = registry.validations
        cache.put("newest", 6, 0, cache.stamp(("corpus",)))
        assert registry.validations == scanned
        assert cache.stats()["lru_evictions"] == 1
        assert cache.get("new", now_ms=0) is None
        assert cache.get("live", now_ms=0) == 1

    def test_read_entry_outlives_any_scan_of_unread_puts(self):
        # A look-up served on every query must survive the one-hit
        # entries each query stores. It leaves by TTL, by a bump, or
        # once max_entries more recently read entries push it back
        # into the unread segment.
        def warmed(capacity, puts):
            registry = GenerationRegistry()
            cache = ResultCache(max_entries=capacity, ttl_ms=100,
                                generations=registry)
            cache.put("franchise", "v", 0, cache.stamp(("corpus",)))
            assert cache.get("franchise", now_ms=0) == "v"
            for n in range(puts):
                cache.put(("primary", n), n, 0, cache.stamp(("corpus",)))
            return registry, cache

        for capacity in (1, 2, 5):
            for puts in (0, 1, capacity, 10 * capacity):
                __, cache = warmed(capacity, puts)
                assert cache.stats()["lru_evictions"] == max(
                    0, puts - capacity)
                assert cache.get("franchise", now_ms=100) == "v"

            __, cache = warmed(capacity, 3 * capacity)
            assert cache.get("franchise", now_ms=101) is None

            registry, cache = warmed(capacity, 3 * capacity)
            registry.bump("corpus")
            assert cache.get("franchise", now_ms=0) is None

            __, cache = warmed(capacity, 0)
            for n in range(capacity):
                assert "franchise" in cache._read
                cache.put(("hot", n), n, 0)
                assert cache.get(("hot", n), now_ms=0) == n
            assert "franchise" in cache._unread
            for n in range(capacity):
                cache.put(("primary", n), n, 0)
            assert cache.get("franchise", now_ms=0) is None


class TestLoggingIntegration:
    def test_app_query_logged(self):
        log = QueryLog()
        primary = StubSource("primary", {"halo": [make_item("Halo")]})
        runtime = make_runtime([primary], build_app(), log=log)
        runtime.handle_query(QueryRequest("app-1", "halo",
                                          session_id="s1"))
        event = log.queries[-1]
        assert event.app_id == "app-1"
        assert event.vertical == "app"
        assert event.session_id == "s1"
        assert event.result_urls


class TestApplicationRegistry:
    def test_register_validates(self):
        apps = ApplicationRegistry()
        bad = ApplicationDefinition(app_id="a", name="n",
                                    owner_tenant="t")
        with pytest.raises(Exception):
            apps.register(bad)

    def test_trace_describe_readable(self):
        primary = StubSource("primary", {"halo": [make_item("Halo")]})
        runtime = make_runtime([primary], build_app())
        trace = runtime.handle_query(
            QueryRequest("app-1", "halo")
        ).trace
        text = trace.describe()
        assert "receive" in text and "TOTAL" in text
