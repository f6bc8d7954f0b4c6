"""Tests for facets, designer preview, scheduled refresh, and trends."""

import pytest

from repro.analytics.trends import compute_trends
from repro.errors import (
    ConfigurationError,
    DuplicateError,
    IngestError,
    QueryError,
)
from repro.ingest.refresh import RefreshScheduler
from repro.searchengine.facets import compute_facets
from repro.searchengine.logs import ClickEvent, QueryEvent, QueryLog
from repro.util import SimClock

from tests.conftest import make_inventory_csv

DAY_MS = 86_400_000


class TestFacets:
    def test_counts_over_full_candidate_set(self, engine, small_web):
        facets = engine.facets("web", "game", ("site",))
        site_facet = facets["site"]
        total = sum(fc.count for fc in site_facet.counts)
        response = engine.search("web", "game")
        assert total == response.total_matches
        assert total > len(response.results)  # beyond the first page

    def test_descending_order_with_tiebreak(self, engine):
        facets = engine.facets("web", "game", ("site",))
        counts = [fc.count for fc in facets["site"].counts]
        assert counts == sorted(counts, reverse=True)

    def test_topic_facet(self, engine):
        facets = engine.facets("web", "game OR wine", ("topic",))
        topics = {fc.value: fc.count for fc in facets["topic"].counts}
        assert "video_games" in topics and "wine" in topics

    def test_missing_field_buckets_none(self, engine):
        facets = engine.facets("web", "game", ("no_such_field",))
        counts = facets["no_such_field"].counts
        assert [fc.value for fc in counts] == ["(none)"]
        assert counts[0].count > 0

    def test_no_fields_rejected(self, engine):
        with pytest.raises(QueryError):
            engine.facets("web", "game", ())

    def test_top_helper(self, engine):
        facets = engine.facets("web", "game", ("site",))
        assert len(facets["site"].top(2)) == 2

    def test_direct_compute_facets(self, engine):
        facets = compute_facets(engine.vertical("web"), "game", ("site",))
        assert facets["site"].counts


class TestPreview:
    @pytest.fixture()
    def session_ctx(self, symphony, designer_account):
        sym = symphony
        games = sym.web.entities["video_games"][:4]
        sym.upload_http(designer_account, "inv.csv",
                        make_inventory_csv(games), "inventory",
                        content_type="text/csv")
        inventory = sym.add_proprietary_source(
            designer_account, "inventory", ("title",))
        session = sym.designer().new_application(
            "Preview", designer_account.tenant.tenant_id)
        return sym, session, inventory, games

    def test_preview_renders_without_hosting(self, session_ctx):
        sym, session, inventory, games = session_ctx
        slot = session.drag_source_onto_app(inventory.source_id,
                                            search_fields=("title",))
        session.add_text(slot, "title")
        result = sym.preview(session, games[0])
        assert result.ok
        assert games[0] in result.html
        assert sym.apps.ids() == []  # nothing hosted

    def test_preview_does_not_log_usage(self, session_ctx):
        sym, session, inventory, games = session_ctx
        slot = session.drag_source_onto_app(inventory.source_id,
                                            search_fields=("title",))
        session.add_text(slot, "title")
        before = len(sym.engine.log.queries)
        sym.preview(session, games[0])
        # Proprietary source queries don't touch the engine; the app-
        # level log is also untouched because preview passes log=None.
        app_events = [q for q in sym.engine.log.queries[before:]
                      if q.vertical == "app"]
        assert app_events == []

    def test_preview_carries_warnings(self, session_ctx):
        sym, session, inventory, games = session_ctx
        session.drag_source_onto_app(inventory.source_id,
                                     search_fields=("title",))
        result = sym.preview(session, games[0])  # no layout elements
        assert any("no elements" in i.message for i in result.issues)

    def test_preview_of_broken_design_raises(self, session_ctx):
        sym, session, *_ = session_ctx
        with pytest.raises(ConfigurationError):
            sym.preview(session, "anything")  # empty canvas

    def test_repeated_previews_get_fresh_ids(self, session_ctx):
        sym, session, inventory, games = session_ctx
        slot = session.drag_source_onto_app(inventory.source_id,
                                            search_fields=("title",))
        session.add_text(slot, "title")
        first = sym.preview(session, games[0])
        second = sym.preview(session, games[1])
        assert first.query_text != second.query_text


class TestRefreshScheduler:
    class FakeReport:
        def __init__(self, inserted=1, unchanged=False):
            self.inserted = inserted
            self.updated = 0
            self.unchanged = unchanged

    def test_first_run_is_due_immediately(self):
        clock = SimClock(start_ms=0)
        scheduler = RefreshScheduler(clock)
        runs = []
        scheduler.register("feed", 1000,
                           lambda: runs.append(1) or self.FakeReport())
        assert scheduler.due_feeds() == ["feed"]
        outcomes = scheduler.run_due()
        assert outcomes[0].inserted == 1
        assert runs == [1]

    def test_not_due_until_interval_elapses(self):
        clock = SimClock(start_ms=0)
        scheduler = RefreshScheduler(clock)
        scheduler.register("feed", 1000, self.FakeReport)
        scheduler.run_due()
        clock.advance(500)
        assert scheduler.due_feeds() == []
        clock.advance(500)
        assert scheduler.due_feeds() == ["feed"]

    def test_failure_isolated_and_counted(self):
        clock = SimClock(start_ms=0)
        scheduler = RefreshScheduler(clock)

        def boom():
            raise IngestError("feed gone")

        scheduler.register("bad", 100, boom)
        scheduler.register("good", 100, self.FakeReport)
        outcomes = {o.feed_id: o for o in scheduler.run_due()}
        assert outcomes["bad"].error == "feed gone"
        assert outcomes["good"].inserted == 1

    def test_a_bug_in_a_feed_action_propagates(self):
        # Malformed input is an IngestError; a KeyError is a bug in our
        # own code and must fail loudly, not become a failed outcome.
        clock = SimClock(start_ms=0)
        scheduler = RefreshScheduler(clock)

        def buggy():
            raise KeyError("missing column")

        scheduler.register("buggy", 100, buggy)
        with pytest.raises(KeyError, match="missing column"):
            scheduler.run_due()

    def test_a_malformed_rss_feed_is_a_failed_outcome(
            self, symphony, designer_account, monkeypatch):
        from repro.telemetry import Telemetry

        sym = symphony
        domain = next(iter(sym.web.sites))
        monkeypatch.setattr(sym.feeds, "feed_xml",
                            lambda domain: b"<rss><channel><item>")
        telemetry = Telemetry(sym.clock)
        scheduler = RefreshScheduler(sym.clock, telemetry=telemetry)
        scheduler.register(
            "news", 60_000,
            lambda: sym.ingest_rss_feed(designer_account, domain,
                                        "feed_items"),
        )
        scheduler.register("good", 60_000, self.FakeReport)
        outcomes = {o.feed_id: o for o in scheduler.run_due()}
        assert outcomes["news"].ran
        assert "invalid RSS XML" in outcomes["news"].error
        assert outcomes["good"].inserted == 1
        failed = telemetry.events.by_kind("refresh.failed")
        assert [e.fields["feed"] for e in failed] == ["news"]
        assert failed[0].fields["failures"] == 1

    def test_failure_streak_resets_on_success(self):
        clock = SimClock(start_ms=0)
        scheduler = RefreshScheduler(clock)
        flaky = {"fail": True}

        def action():
            if flaky["fail"]:
                raise IngestError("down")
            return self.FakeReport()

        scheduler.register("feed", 100, action)
        scheduler.run_due()
        clock.advance(100)
        scheduler.run_due()
        assert scheduler._feeds["feed"].failures == 2
        flaky["fail"] = False
        clock.advance(100)
        scheduler.run_due()
        assert scheduler._feeds["feed"].failures == 0

    def test_refresh_events_emitted(self):
        from repro.telemetry import Telemetry

        clock = SimClock(start_ms=0)
        telemetry = Telemetry(clock)
        scheduler = RefreshScheduler(clock, telemetry=telemetry)

        def boom():
            raise IngestError("gone")

        scheduler.register("ok", 100, self.FakeReport)
        scheduler.register("bad", 100, boom)
        scheduler.run_due()
        complete = telemetry.events.by_kind("refresh.complete")
        failed = telemetry.events.by_kind("refresh.failed")
        assert [e.fields["feed"] for e in complete] == ["ok"]
        assert [e.fields["feed"] for e in failed] == ["bad"]
        assert failed[0].fields["failures"] == 1

    def test_duplicate_and_invalid_registration(self):
        scheduler = RefreshScheduler(SimClock())
        scheduler.register("f", 100, self.FakeReport)
        with pytest.raises(DuplicateError):
            scheduler.register("f", 100, self.FakeReport)
        with pytest.raises(ValueError):
            scheduler.register("g", 0, self.FakeReport)

    def test_run_all_for_ticks_through_duration(self):
        clock = SimClock(start_ms=0)
        scheduler = RefreshScheduler(clock)
        runs = []
        scheduler.register(
            "feed", 1000,
            lambda: runs.append(clock.now_ms) or self.FakeReport(),
        )
        scheduler.run_all_for(3500)
        assert len(runs) == 3  # at 1000, 2000, 3000 (tick=interval)

    def test_end_to_end_rss_refresh(self, symphony, designer_account):
        sym = symphony
        domain = next(iter(sym.web.sites))
        scheduler = RefreshScheduler(sym.clock)
        scheduler.register(
            "news", 60_000,
            lambda: sym.ingest_rss_feed(
                designer_account, domain, "feed_items",
                key_field="link", indexed_fields=("link",),
            ),
        )
        first = scheduler.run_due()
        assert first[0].inserted > 0
        sym.clock.advance(60_000)
        second = scheduler.run_due()
        # The feed content is unchanged, so the blob-hash short-circuit
        # reports it as such.
        assert second[0].unchanged


class TestTrends:
    def make_log(self, now_ms):
        log = QueryLog()

        def add(query, days_ago, times=1):
            for __ in range(times):
                log.log_query(QueryEvent(
                    timestamp_ms=now_ms - days_ago * DAY_MS,
                    query=query, vertical="app", app_id="app-1",
                ))

        add("halo", days_ago=10, times=5)     # previous window
        add("halo", days_ago=2, times=5)      # stable
        add("zelda", days_ago=2, times=6)     # new + hot
        add("braid", days_ago=9, times=4)     # fading
        log.log_click(ClickEvent(
            timestamp_ms=now_ms - 2 * DAY_MS, query="halo",
            url="http://x.example/1", app_id="app-1",
        ))
        return log

    def test_daily_volumes(self):
        now = 100 * DAY_MS
        report = compute_trends(self.make_log(now), "app-1", now)
        by_day = {d.day: d for d in report.daily}
        assert by_day[98].queries == 11
        assert by_day[98].clicks == 1
        assert by_day[90].queries == 5

    def test_rising_query_ranking(self):
        now = 100 * DAY_MS
        report = compute_trends(self.make_log(now), "app-1", now,
                                window_days=7)
        ranked = [r.query for r in report.rising]
        assert ranked[0] == "zelda"          # 6 vs 0 — hottest
        assert "braid" not in ranked         # no recent occurrences
        zelda = report.rising[0]
        assert zelda.previous_count == 0
        assert zelda.score == pytest.approx((6 + 1) / 1)

    def test_stable_query_scores_near_one(self):
        now = 100 * DAY_MS
        report = compute_trends(self.make_log(now), "app-1", now)
        halo = next(r for r in report.rising if r.query == "halo")
        assert halo.score == pytest.approx(1.0)

    def test_busiest_day(self):
        now = 100 * DAY_MS
        report = compute_trends(self.make_log(now), "app-1", now)
        busiest = max(report.daily, key=lambda d: (d.queries, -d.day))
        assert busiest.day == 98

    def test_empty_app(self):
        report = compute_trends(QueryLog(), "nothing", now_ms=0)
        assert report.daily == () and report.rising == ()
