"""Tests for analytics: aggregation, relevance signals, recommendation,
social feedback, composition."""

import pytest

from repro.analytics import (
    CommunityFeedback,
    LogAggregator,
    RelevanceSignalExporter,
    SupplementalRecommender,
    compose_applications,
)
from repro.core.application import SourceRole
from repro.errors import ValidationError
from repro.searchengine.logs import ClickEvent, QueryEvent, QueryLog
from repro.storage.records import FieldSpec, FieldType, RecordTable, Schema


def fill_log(log, app_id="app-1"):
    for i, query in enumerate(["halo review", "halo trailer", "zelda"]):
        log.log_query(QueryEvent(
            timestamp_ms=i, query=query, vertical="app",
            app_id=app_id, session_id=f"s{i % 2}",
        ))
    clicks = [
        ("halo review", "http://gamespot.com/halo-review"),
        ("halo review", "http://ign.com/halo"),
        ("zelda", "http://gamespot.com/zelda-guide"),
    ]
    for query, url in clicks:
        log.log_click(ClickEvent(
            timestamp_ms=0, query=query, url=url, app_id=app_id,
            session_id="s0",
        ))
    log.log_click(ClickEvent(
        timestamp_ms=0, query="halo", url="http://ads.example/x",
        app_id=app_id, is_ad=True,
    ))


class TestAggregation:
    def test_profile_counts(self):
        log = QueryLog()
        fill_log(log)
        profile = LogAggregator(log).profile("app-1")
        assert profile.query_count == 3
        assert profile.click_count == 4  # includes the ad click

    def test_term_frequencies_analyzed(self):
        log = QueryLog()
        fill_log(log)
        profile = LogAggregator(log).profile("app-1")
        assert profile.term_frequencies["halo"] == 2
        assert "review" in profile.term_frequencies

    def test_ad_clicks_excluded_from_site_stats(self):
        log = QueryLog()
        fill_log(log)
        profile = LogAggregator(log).profile("app-1")
        assert "ads.example" not in profile.site_clicks
        assert profile.site_clicks["gamespot.com"] == 2

    def test_sessions_counted(self):
        log = QueryLog()
        fill_log(log)
        assert LogAggregator(log).profile("app-1").sessions == 2

    def test_app_ids_discovered(self):
        log = QueryLog()
        fill_log(log, "app-1")
        fill_log(log, "app-2")
        aggregator = LogAggregator(log)
        one, two = aggregator.profile("app-1"), aggregator.profile("app-2")
        assert one.query_count == two.query_count > 0
        assert aggregator.profile("app-3").query_count == 0

    def test_top_terms_and_sites_ordered(self):
        log = QueryLog()
        fill_log(log)
        profile = LogAggregator(log).profile("app-1")
        terms = profile.term_frequencies
        assert max(terms, key=terms.get) == "halo"
        assert profile.top_sites(1)[0] == ("gamespot.com", 2)


class TestRelevanceSignals:
    def test_boosts_log_scaled_and_capped(self):
        log = QueryLog()
        fill_log(log)
        profile = LogAggregator(log).profile("app-1")
        boosts = RelevanceSignalExporter(max_boost=0.5).url_boosts(
            [profile]
        )
        assert boosts
        assert max(boosts.values()) == 0.5
        assert all(0 < b <= 0.5 for b in boosts.values())

    def test_apply_to_engine_changes_prior(self, small_web):
        from repro.searchengine.engine import build_engine
        engine = build_engine(small_web, use_authority=False)
        url = next(iter(small_web.pages))
        log = QueryLog()
        log.log_click(ClickEvent(timestamp_ms=0, query="x", url=url,
                                 app_id="app-1"))
        profile = LogAggregator(log).profile("app-1")
        changed = RelevanceSignalExporter().apply_to_engine(
            engine, [profile]
        )
        assert changed == 1
        assert engine.vertical("web").authority[url] > 0

    def test_unknown_urls_skipped(self, small_web):
        from repro.searchengine.engine import build_engine
        engine = build_engine(small_web, use_authority=False)
        log = QueryLog()
        log.log_click(ClickEvent(timestamp_ms=0, query="x",
                                 url="http://offweb.example/p",
                                 app_id="app-1"))
        profile = LogAggregator(log).profile("app-1")
        assert RelevanceSignalExporter().apply_to_engine(
            engine, [profile]
        ) == 0

    def test_community_boost_improves_rank(self, small_web):
        """Clicked page should rise for a query it matches."""
        from repro.searchengine.engine import build_engine, \
            SearchOptions
        engine = build_engine(small_web, use_authority=False)
        entity = small_web.entities["video_games"][2]
        baseline = engine.search("web", f'"{entity}"',
                                 SearchOptions(count=10))
        target = baseline.results[-1]
        log = QueryLog()
        for __ in range(10):
            log.log_click(ClickEvent(timestamp_ms=0, query=entity,
                                     url=target.url, app_id="a"))
        profile = LogAggregator(log).profile("a")
        RelevanceSignalExporter(max_boost=5.0).apply_to_engine(
            engine, [profile]
        )
        boosted = engine.search("web", f'"{entity}"',
                                SearchOptions(count=10))
        old_rank = baseline.urls().index(target.url)
        new_rank = boosted.urls().index(target.url)
        assert new_rank < old_rank


class TestRecommender:
    def make_table(self, entities):
        schema = Schema((FieldSpec("title", FieldType.STRING),))
        table = RecordTable("inventory", schema)
        for name in entities:
            table.insert({"title": name})
        return table

    def test_recommends_covering_sites(self, engine, small_web):
        table = self.make_table(small_web.entities["video_games"][:8])
        recommender = SupplementalRecommender(engine)
        recommendations = recommender.recommend(
            table, "title", count=5, probe_suffix="review"
        )
        assert recommendations
        sites = [r.site for r in recommendations]
        # The well-known review sites cover every entity, so at least
        # one of them must be recommended.
        assert set(sites) & {"gamespot.com", "ign.com", "teamxbox.com"}
        scores = [r.score for r in recommendations]
        assert scores == sorted(scores, reverse=True)

    def test_empty_table_no_recommendations(self, engine):
        table = self.make_table([])
        assert SupplementalRecommender(engine).recommend(
            table, "title"
        ) == []

    def test_coverage_fraction_bounded(self, engine, small_web):
        table = self.make_table(small_web.entities["video_games"][:5])
        recommendations = SupplementalRecommender(engine).recommend(
            table, "title", count=10
        )
        assert all(0 < r.coverage <= 1 for r in recommendations)


class TestCommunityFeedback:
    class Item:
        def __init__(self, url, score):
            self.url = url
            self.score = score

    def test_wilson_bounds(self):
        feedback = CommunityFeedback()
        tally = feedback.tally("a", "http://x.example/1")
        assert tally.wilson_lower_bound() == 0.0
        for __ in range(10):
            feedback.vote_up("a", "http://x.example/1")
        high = feedback.tally("a", "http://x.example/1")
        assert 0.5 < high.wilson_lower_bound() < 1.0

    def test_single_vote_barely_moves(self):
        feedback = CommunityFeedback()
        feedback.vote_up("a", "u")
        one = feedback.tally("a", "u").wilson_lower_bound()
        for __ in range(19):
            feedback.vote_up("a", "u")
        many = feedback.tally("a", "u").wilson_lower_bound()
        assert many > one

    def test_rerank_promotes_upvoted(self):
        feedback = CommunityFeedback(vote_weight=1.0)
        items = [self.Item("http://a.example", 1.0),
                 self.Item("http://b.example", 0.9)]
        for __ in range(20):
            feedback.vote_up("app", "http://b.example")
        reranked = feedback.rerank("app", items)
        assert reranked[0].url == "http://b.example"

    def test_downvotes_demote(self):
        feedback = CommunityFeedback(vote_weight=1.0)
        items = [self.Item("http://a.example", 1.0),
                 self.Item("http://b.example", 0.99)]
        for __ in range(20):
            feedback.vote_up("app", "http://a.example")
            feedback.vote_down("app", "http://b.example")
        reranked = feedback.rerank("app", items)
        assert reranked[0].url == "http://a.example"

    def test_votes_scoped_per_app(self):
        feedback = CommunityFeedback()
        feedback.vote_up("app-1", "u")
        assert feedback.tally("app-2", "u").total == 0


class TestComposition:
    def test_compose_two_gamerqueen_like_apps(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        app = symphony.apps.get(app_id)
        composed = compose_applications(
            "MegaHub", "tenant-1", [app, app]
        )
        composed.validate()
        assert len(composed.bindings) == 2 * len(app.bindings)
        assert len(composed.slots) == 2 * len(app.slots)
        # Fresh binding ids, no collisions.
        ids = [b.binding_id for b in composed.bindings]
        assert len(ids) == len(set(ids))

    def test_composed_app_executes(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        app = symphony.apps.get(app_id)
        composed = compose_applications(
            "MegaHub", "tenant-1", [app, app]
        )
        composed_id = symphony.host(composed)
        response = symphony.query(composed_id, games[0])
        # Both constituent slots answer the query.
        slot_ids = {v.slot_binding_id for v in response.views}
        assert len(slot_ids) == 2

    def test_headings_prefixed_with_source_app(self, gamerqueen):
        symphony, app_id, __ = gamerqueen
        app = symphony.apps.get(app_id)
        composed = compose_applications("Hub", "t", [app, app])
        assert all(slot.heading.startswith("GamerQueen")
                   for slot in composed.slots)

    def test_requires_two_apps(self, gamerqueen):
        symphony, app_id, __ = gamerqueen
        app = symphony.apps.get(app_id)
        with pytest.raises(ValidationError):
            compose_applications("Solo", "t", [app])

    def test_supplemental_structure_preserved(self, gamerqueen):
        symphony, app_id, __ = gamerqueen
        app = symphony.apps.get(app_id)
        composed = compose_applications("Hub", "t", [app, app])
        for slot in composed.slots:
            assert len(slot.children) == len(app.slots[0].children)
            for child in slot.children:
                binding = composed.binding(child.binding_id)
                assert binding.role == SourceRole.SUPPLEMENTAL
                assert binding.drive_fields == ("title",)
