"""Monetization: interaction recording, summaries, and referral reports.

§II-A: "Symphony has built-in support for the application designer to be
able to record customer interactions with the application and obtain
various summaries... a summary of an application's click traffic can be
downloaded by the application designer to serve as the basis for charging
or auditing referral compensation."
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from urllib.parse import urlparse

from repro.searchengine.logs import ClickEvent, QueryLog

__all__ = ["TrafficSummary", "InteractionRecorder", "ReferralReport"]

_DAY_MS = 86_400_000


@dataclass(frozen=True)
class TrafficSummary:
    """Aggregate view of one application's usage."""

    app_id: str
    query_count: int
    click_count: int
    ad_click_count: int
    clicks_by_site: dict
    clicks_by_day: dict
    top_queries: tuple

    @property
    def click_through_rate(self) -> float:
        if self.query_count == 0:
            return 0.0
        return self.click_count / self.query_count


class InteractionRecorder:
    """Records customer interactions against hosted applications.

    Clicks on integrated ads are forwarded to the ad service so "the
    application designers will automatically be credited by that service
    for any ad-click revenue".
    """

    def __init__(self, log: QueryLog, clock, ad_service=None) -> None:
        self._log = log
        self._clock = clock
        self._ads = ad_service

    def record_click(self, app_id: str, query: str, url: str,
                     session_id: str = "", ad_id: str = "") -> dict:
        is_ad = bool(ad_id)
        self._log.log_click(ClickEvent(
            timestamp_ms=self._clock.now_ms,
            query=query,
            url=url,
            app_id=app_id,
            session_id=session_id or None,
            is_ad=is_ad,
        ))
        credited = {}
        if is_ad and self._ads is not None:
            credited = self._ads.record_click(
                ad_id, now_ms=self._clock.now_ms
            )
        return {"logged": True, **credited}

    # -- summaries ------------------------------------------------------------

    def summarize(self, app_id: str, top_n_queries: int = 10,
                  epoch_ms: int = 0) -> TrafficSummary:
        queries = self._log.queries_for_app(app_id)
        clicks = self._log.clicks_for_app(app_id)
        clicks_by_site: dict[str, int] = {}
        clicks_by_day: dict[int, int] = {}
        ad_clicks = 0
        for click in clicks:
            if click.is_ad:
                ad_clicks += 1
            site = urlparse(click.url).netloc or click.url
            clicks_by_site[site] = clicks_by_site.get(site, 0) + 1
            day = (click.timestamp_ms - epoch_ms) // _DAY_MS
            clicks_by_day[day] = clicks_by_day.get(day, 0) + 1
        query_counts: dict[str, int] = {}
        for event in queries:
            key = event.query.strip().lower()
            query_counts[key] = query_counts.get(key, 0) + 1
        top_queries = tuple(sorted(
            query_counts.items(), key=lambda pair: (-pair[1], pair[0])
        )[:top_n_queries])
        return TrafficSummary(
            app_id=app_id,
            query_count=len(queries),
            click_count=len(clicks),
            ad_click_count=ad_clicks,
            clicks_by_site=clicks_by_site,
            clicks_by_day=clicks_by_day,
            top_queries=top_queries,
        )


class ReferralReport:
    """Downloadable click-traffic report for referral auditing."""

    def __init__(self, summary: TrafficSummary,
                 rate_per_click: float = 0.05) -> None:
        self.summary = summary
        self.rate_per_click = rate_per_click

    def rows(self) -> list[dict]:
        out = []
        for site, count in sorted(
            self.summary.clicks_by_site.items(),
            key=lambda pair: (-pair[1], pair[0]),
        ):
            out.append({
                "site": site,
                "clicks": count,
                "owed": round(count * self.rate_per_click, 2),
            })
        return out

    def total_owed(self) -> float:
        return round(sum(row["owed"] for row in self.rows()), 2)

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=("site", "clicks", "owed")
        )
        writer.writeheader()
        for row in self.rows():
            writer.writerow(row)
        return buffer.getvalue()
