"""Per-application usage aggregation.

Each Symphony application "is usually oriented around a specific topic or
community"; its logs therefore carry focused signal. The aggregator turns
raw query/click events into an :class:`AppUsageProfile` the signal
exporter and recommender consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import urlparse

from repro.searchengine.analysis import Analyzer

__all__ = ["AppUsageProfile", "LogAggregator"]


@dataclass(frozen=True)
class AppUsageProfile:
    """Aggregated usage for one application."""

    app_id: str
    query_count: int
    click_count: int
    term_frequencies: dict        # analyzed term -> count
    site_clicks: dict             # site -> clicks
    url_clicks: dict              # url -> clicks
    sessions: int

    def top_sites(self, count: int = 10) -> list[tuple]:
        return sorted(
            self.site_clicks.items(),
            key=lambda pair: (-pair[1], pair[0]),
        )[:count]

    @property
    def click_through_rate(self) -> float:
        return (self.click_count / self.query_count
                if self.query_count else 0.0)


@dataclass
class LogAggregator:
    """Builds usage profiles from a :class:`~repro.searchengine.logs.
    QueryLog`."""

    log: object
    analyzer: Analyzer = field(default_factory=Analyzer)

    def app_ids(self) -> list[str]:
        seen = {q.app_id for q in self.log.queries if q.app_id}
        seen.update(c.app_id for c in self.log.clicks if c.app_id)
        return sorted(seen)

    def profile(self, app_id: str) -> AppUsageProfile:
        queries = self.log.queries_for_app(app_id)
        clicks = self.log.clicks_for_app(app_id)
        terms: dict[str, int] = {}
        sessions = set()
        for event in queries:
            for term in self.analyzer.analyze(event.query):
                terms[term] = terms.get(term, 0) + 1
            if event.session_id:
                sessions.add(event.session_id)
        site_clicks: dict[str, int] = {}
        url_clicks: dict[str, int] = {}
        for click in clicks:
            if click.is_ad:
                continue
            site = urlparse(click.url).netloc or click.url
            site_clicks[site] = site_clicks.get(site, 0) + 1
            url_clicks[click.url] = url_clicks.get(click.url, 0) + 1
            if click.session_id:
                sessions.add(click.session_id)
        return AppUsageProfile(
            app_id=app_id,
            query_count=len(queries),
            click_count=len(clicks),
            term_frequencies=terms,
            site_clicks=site_clicks,
            url_clicks=url_clicks,
            sessions=len(sessions),
        )

    def profiles(self) -> dict:
        return {app_id: self.profile(app_id)
                for app_id in self.app_ids()}
