"""Tests for robots.txt crawling, related searches and the hosting
frontend."""

import pytest

from repro.core.frontend import HostingFrontend
from repro.core.runtime import RateLimiter
from repro.ingest.crawler import CrawlPolicy, Crawler
from repro.searchengine.logs import QueryEvent, QueryLog
from repro.searchengine.related import RelatedSearches
from repro.simweb.robots import parse_robots, robots_txt_for
from repro.util import SimClock


class TestRobotsParsing:
    def test_wildcard_section_only(self):
        rules = parse_robots(
            "User-agent: evilbot\nDisallow: /\n\n"
            "User-agent: *\nDisallow: /private/\nDisallow: /tmp/\n"
        )
        assert rules.disallow == ("/private/", "/tmp/")
        assert rules.allows("/public/page")
        assert not rules.allows("/private/secret")

    def test_comments_and_blanks_ignored(self):
        rules = parse_robots(
            "# comment\nUser-agent: *\n\nDisallow: /x/  # inline\n"
        )
        assert not rules.allows("/x/page")

    def test_empty_disallow_means_allow_all(self):
        rules = parse_robots("User-agent: *\nDisallow:\n")
        assert rules.allows("/anything")

    def test_blocks_everything(self):
        rules = parse_robots("User-agent: *\nDisallow: /\n")
        assert not rules.allows("/")
        assert not rules.allows("/any")

    def test_generated_robots_deterministic(self):
        assert robots_txt_for("a.example", 1) == \
            robots_txt_for("a.example", 1)
        assert "Disallow: /private/" in robots_txt_for("a.example", 1)


class TestCrawlerRobots:
    def test_fully_blocked_domain_yields_no_pages(self, small_web):
        """A domain whose robots.txt disallows everything is skipped."""
        blocked_domain = next(
            domain for domain in sorted(small_web.sites)
            if not parse_robots(robots_txt_for(domain, 2010)).allows("/")
        )
        crawler = Crawler(small_web, clock=SimClock())
        seeds = [p.url for p in
                 small_web.pages_on(blocked_domain)[:3]]
        result = crawler.crawl(seeds, CrawlPolicy(
            max_pages=50, allowed_domains=(blocked_domain,),
        ))
        assert result.pages == []
        assert any("robots.txt" in reason
                   for __, reason in result.skipped)

    def test_robots_can_be_disabled(self, small_web):
        domain = sorted(small_web.sites)[0]
        crawler = Crawler(small_web, clock=SimClock())
        seeds = [p.url for p in small_web.pages_on(domain)[:3]]
        with_robots = crawler.crawl(seeds, CrawlPolicy(
            max_pages=50, allowed_domains=(domain,),
        ))
        without = Crawler(small_web, clock=SimClock()).crawl(
            seeds, CrawlPolicy(max_pages=50,
                               allowed_domains=(domain,),
                               respect_robots=False),
        )
        assert len(without.pages) >= len(with_robots.pages)

    def test_robots_fetched_once_per_domain(self, small_web):
        domain = sorted(small_web.sites)[0]
        clock = SimClock(start_ms=0)
        crawler = Crawler(small_web, clock=clock)
        seeds = [p.url for p in small_web.pages_on(domain)[:5]]
        crawler.crawl(seeds, CrawlPolicy(max_pages=10,
                                         allowed_domains=(domain,)))
        assert len(crawler._robots_cache) == 1


class TestRelatedSearches:
    def make_log(self):
        log = QueryLog()
        entries = [
            ("halo review", "s1"), ("halo trailer", "s1"),
            ("halo review", "s2"), ("halo walkthrough", "s2"),
            ("zelda review", "s3"), ("wine pairing", "s4"),
            ("halo review", "s5"),
        ]
        for i, (query, session) in enumerate(entries):
            log.log_query(QueryEvent(
                timestamp_ms=i, query=query, vertical="web",
                session_id=session,
            ))
        return log

    def test_term_overlap_relates(self):
        related = RelatedSearches(self.make_log())
        results = related.related("halo review")
        queries = [r.query for r in results]
        assert "halo trailer" in queries
        assert "halo walkthrough" in queries
        assert "wine pairing" not in queries

    def test_session_cooccurrence_boosts(self):
        related = RelatedSearches(self.make_log())
        results = {r.query: r.score
                   for r in related.related("halo review", count=10)}
        # trailer co-occurs in s1 with "halo review"; zelda review only
        # shares a term.
        assert results["halo trailer"] > results["zelda review"]

    def test_input_itself_excluded(self):
        related = RelatedSearches(self.make_log())
        assert all(r.query != "halo review"
                   for r in related.related("halo review"))

    def test_unknown_query_still_matches_by_terms(self):
        related = RelatedSearches(self.make_log())
        results = related.related("best halo game")
        assert any("halo" in r.query for r in results)

    def test_count_limits(self):
        related = RelatedSearches(self.make_log())
        assert len(related.related("halo review", count=1)) == 1

    def test_empty_log(self):
        related = RelatedSearches(QueryLog())
        assert related.related("anything") == []


class TestHostingFrontend:
    @pytest.fixture()
    def frontend_ctx(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        snippet = symphony.publish_embed(app_id)
        return symphony, app_id, games, snippet

    def test_successful_request(self, frontend_ctx):
        symphony, app_id, games, snippet = frontend_ctx
        response = symphony.frontend.handle(
            f"/apps/{app_id}/query",
            {"q": games[0], "key": snippet.embed_key},
        )
        assert response.ok
        assert "symphony-app" in response.body

    def test_unknown_app_404(self, frontend_ctx):
        symphony, *_ = frontend_ctx
        response = symphony.frontend.handle(
            "/apps/ghost/query", {"q": "x"})
        assert response.status == 404

    def test_bad_embed_key_403(self, frontend_ctx):
        symphony, app_id, games, __ = frontend_ctx
        response = symphony.frontend.handle(
            f"/apps/{app_id}/query",
            {"q": games[0], "key": "wrong"},
        )
        assert response.status == 403

    def test_missing_query_400(self, frontend_ctx):
        symphony, app_id, __, snippet = frontend_ctx
        response = symphony.frontend.handle(
            f"/apps/{app_id}/query",
            {"key": snippet.embed_key},
        )
        assert response.status == 400

    def test_bad_page_400(self, frontend_ctx):
        symphony, app_id, games, snippet = frontend_ctx
        response = symphony.frontend.handle(
            f"/apps/{app_id}/query",
            {"q": games[0], "key": snippet.embed_key,
             "page": "one"},
        )
        assert response.status == 400

    def test_rate_limited_429(self, frontend_ctx):
        symphony, app_id, games, snippet = frontend_ctx
        symphony.runtime.rate_limiter = RateLimiter(
            symphony.clock, max_requests=1, window_ms=3_600_000)
        params = {"q": games[0], "key": snippet.embed_key}
        first = symphony.frontend.handle(
            f"/apps/{app_id}/query", params)
        assert first.ok
        second = symphony.frontend.handle(
            f"/apps/{app_id}/query", params)
        assert second.status == 429

    def test_standalone_frontend(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        frontend = HostingFrontend(symphony.router, symphony.runtime)
        response = frontend.handle(f"/apps/{app_id}/query",
                                   {"q": games[0]})
        assert response.ok
