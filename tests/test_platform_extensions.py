"""Tests for the platform extensions: paging, token expiry, rate
limiting, CTR-by-position."""

import pytest

from repro.analytics.ctr import ctr_by_position
from repro.core.runtime import RateLimiter
from repro.errors import (
    AuthorizationError,
    QuotaExceededError,
)
from repro.searchengine.logs import ClickEvent, QueryEvent, QueryLog
from repro.storage.tokens import Scope, TokenAuthority
from repro.util import SimClock

from tests.conftest import make_inventory_csv


class TestPaging:
    @pytest.fixture()
    def paged_app(self, symphony, designer_account):
        sym = symphony
        games = sym.web.entities["video_games"][:10]
        sym.upload_http(designer_account, "inv.csv",
                        make_inventory_csv(games), "inventory",
                        content_type="text/csv")
        inventory = sym.add_proprietary_source(
            designer_account, "inventory",
            ("title", "producer", "description"))
        session = sym.designer().new_application(
            "Paged", designer_account.tenant.tenant_id)
        slot = session.drag_source_onto_app(
            inventory.source_id, max_results=3,
            search_fields=("description",))
        session.add_text(slot, "title")
        return sym, sym.host(session), games

    def test_pages_disjoint_and_ordered(self, paged_app):
        sym, app_id, games = paged_app
        query = "classic experience"  # matches every inventory row
        page0 = sym.query(app_id, query, page=0)
        page1 = sym.query(app_id, query, page=1)
        ids0 = [v.item.item_id for v in page0.views]
        ids1 = [v.item.item_id for v in page1.views]
        assert len(ids0) == 3 and len(ids1) == 3
        assert set(ids0).isdisjoint(ids1)

    def test_past_the_end_page_is_empty(self, paged_app):
        sym, app_id, __ = paged_app
        response = sym.query(app_id, "classic experience", page=99)
        assert response.views == ()

    def test_negative_page_clamps_to_first(self, paged_app):
        sym, app_id, __ = paged_app
        first = sym.query(app_id, "classic experience", page=0)
        clamped = sym.query(app_id, "classic experience", page=-3)
        assert [v.item.item_id for v in first.views] == \
            [v.item.item_id for v in clamped.views]

    def test_pages_cached_independently(self, paged_app):
        sym, app_id, __ = paged_app
        sym.query(app_id, "classic experience", page=0)
        response = sym.query(app_id, "classic experience", page=1)
        assert response.trace.cache_misses > 0  # page 1 not a hit of 0


class TestTokenExpiry:
    def test_expired_token_rejected(self):
        authority = TokenAuthority()
        token = authority.mint("t1", scopes=(Scope.READ,),
                               expires_at_ms=1000)
        authority.authorize(token.value, "t1", Scope.READ, now_ms=999)
        with pytest.raises(AuthorizationError, match="expired"):
            authority.authorize(token.value, "t1", Scope.READ,
                                now_ms=1000)

    def test_unexpiring_token(self):
        authority = TokenAuthority()
        token = authority.mint("t1")
        authority.authorize(token.value, "t1", Scope.READ,
                            now_ms=10**15)

    def test_expiry_checked_before_scope(self):
        authority = TokenAuthority()
        token = authority.mint("t1", scopes=(Scope.ADMIN,),
                               expires_at_ms=5)
        with pytest.raises(AuthorizationError, match="expired"):
            authority.resolve(token.value, now_ms=10)


class TestRateLimiter:
    def test_limits_within_window(self):
        clock = SimClock(start_ms=0)
        limiter = RateLimiter(clock, max_requests=3, window_ms=1000)
        for __ in range(3):
            limiter.check("app")
        with pytest.raises(QuotaExceededError):
            limiter.check("app")

    def test_window_slides(self):
        clock = SimClock(start_ms=0)
        limiter = RateLimiter(clock, max_requests=2, window_ms=1000)
        limiter.check("app")
        limiter.check("app")
        clock.advance(1001)
        limiter.check("app")  # old events expired

    def test_apps_limited_independently(self):
        clock = SimClock(start_ms=0)
        limiter = RateLimiter(clock, max_requests=1, window_ms=1000)
        limiter.check("a")
        limiter.check("b")
        with pytest.raises(QuotaExceededError):
            limiter.check("a")

    def test_remaining(self):
        clock = SimClock(start_ms=0)
        limiter = RateLimiter(clock, max_requests=5, window_ms=1000)
        limiter.check("app")
        assert limiter.remaining("app") == 4
        assert limiter.remaining("other") == 5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RateLimiter(SimClock(), max_requests=0)

    def test_remaining_evicts_in_place_without_copying(self):
        clock = SimClock(start_ms=0)
        limiter = RateLimiter(clock, max_requests=3, window_ms=1000)
        for __ in range(3):
            limiter.check("app")
        clock.advance(1001)
        # remaining() drops the expired events from the deque itself
        # rather than counting against a filtered copy.
        assert limiter.remaining("app") == 3
        assert len(limiter._events["app"]) == 0

    def test_event_store_is_a_deque(self):
        from collections import deque
        clock = SimClock(start_ms=0)
        limiter = RateLimiter(clock, max_requests=2, window_ms=1000)
        limiter.check("app")
        assert isinstance(limiter._events["app"], deque)

    def test_runtime_integration(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        symphony.runtime.rate_limiter = RateLimiter(
            symphony.clock, max_requests=2, window_ms=3_600_000
        )
        symphony.query(app_id, games[0])
        symphony.query(app_id, games[1])
        with pytest.raises(QuotaExceededError):
            symphony.query(app_id, games[2])


class TestCtrByPosition:
    def make_log(self):
        log = QueryLog()
        urls = tuple(f"http://r.example/{i}" for i in range(5))
        for session in range(4):
            log.log_query(QueryEvent(
                timestamp_ms=session, query="halo", vertical="app",
                app_id="app-1", result_urls=urls,
            ))
        # 3 clicks on rank 1, 1 on rank 3.
        for __ in range(3):
            log.log_click(ClickEvent(
                timestamp_ms=0, query="halo", url=urls[0],
                app_id="app-1",
            ))
        log.log_click(ClickEvent(
            timestamp_ms=0, query="halo", url=urls[2],
            app_id="app-1",
        ))
        # An ad click and an off-list click are ignored.
        log.log_click(ClickEvent(
            timestamp_ms=0, query="halo", url=urls[1],
            app_id="app-1", is_ad=True,
        ))
        log.log_click(ClickEvent(
            timestamp_ms=0, query="halo",
            url="http://elsewhere.example", app_id="app-1",
        ))
        return log

    def test_ctr_per_rank(self):
        stats = ctr_by_position(self.make_log(), "app-1")
        by_rank = {s.position: s for s in stats}
        assert by_rank[1].impressions == 4
        assert by_rank[1].clicks == 3
        assert by_rank[1].ctr == pytest.approx(0.75)
        assert by_rank[3].clicks == 1
        assert by_rank[2].clicks == 0  # ad click ignored

    def test_max_positions_trims(self):
        stats = ctr_by_position(self.make_log(), "app-1",
                                max_positions=2)
        assert max(s.position for s in stats) == 2

    def test_empty_app(self):
        assert ctr_by_position(QueryLog(), "nothing") == []

    def test_live_platform_positions(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        response = symphony.query(app_id, games[0])
        clicked = response.views[0].item.get("detail_url")
        # The runtime logs primary-result urls; click the first one.
        symphony.record_click(app_id, games[0], clicked)
        stats = ctr_by_position(symphony.engine.log, app_id)
        assert stats
        assert stats[0].clicks >= 1

