"""Query and click logging.

The paper's Conclusions argue that per-application usage logs can provide
topic- and community-specific relevance signals; Site Suggest (ref [2])
also mines logs. This module is the substrate both consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import urlparse

__all__ = ["QueryEvent", "ClickEvent", "QueryLog"]


@dataclass(frozen=True)
class QueryEvent:
    """One query issued against the engine or an application."""

    timestamp_ms: int
    query: str
    vertical: str
    app_id: str | None = None
    session_id: str | None = None
    result_urls: tuple[str, ...] = ()


@dataclass(frozen=True)
class ClickEvent:
    """One click on a result (or ad) from a query's result list."""

    timestamp_ms: int
    query: str
    url: str
    app_id: str | None = None
    session_id: str | None = None
    is_ad: bool = False

    @property
    def site(self) -> str:
        return urlparse(self.url).netloc


@dataclass
class QueryLog:
    """Append-only in-memory log with simple slicing helpers."""

    queries: list = field(default_factory=list)
    clicks: list = field(default_factory=list)

    def log_query(self, event: QueryEvent) -> None:
        self.queries.append(event)

    def log_click(self, event: ClickEvent) -> None:
        self.clicks.append(event)

    def queries_for_app(self, app_id: str) -> list:
        """The app's customer queries: the ``"app"`` events the runtime
        logs once per answered query. The engine look-ups a query
        drives are logged under the app too, but how many of them run
        depends on what the result cache already holds, so they are
        not the app's traffic."""
        return [q for q in self.queries
                if q.app_id == app_id and q.vertical == "app"]

    def clicks_for_app(self, app_id: str) -> list:
        return [c for c in self.clicks if c.app_id == app_id]

    def clicked_sites_by_query(self) -> dict:
        """Map normalized query text -> set of clicked sites.

        This is the co-occurrence raw material for Site Suggest: two sites
        co-occur when users clicked both for the same query string.
        """
        by_query: dict[str, set] = {}
        for click in self.clicks:
            if click.is_ad:
                continue
            by_query.setdefault(click.query.strip().lower(), set()).add(
                click.site
            )
        return by_query

    def clear(self) -> None:
        self.queries.clear()
        self.clicks.clear()
