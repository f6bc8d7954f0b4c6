"""RSS 2.0: parsing uploaded feeds and publishing feeds from the sim web.

Parsing turns ``<item>`` elements into rows for ingestion; the publisher
renders a site's news articles as RSS XML so the "RSS feed" upload method
exercises a real parse of real markup rather than shortcutting through
Python objects. ``xml.etree`` and ``email.utils`` are imported on first
use, so a process that never parses or publishes a feed does not load
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timezone
from html import escape

from repro.errors import IngestError

__all__ = ["RssItem", "parse_rss", "FeedPublisher"]


@dataclass(frozen=True)
class RssItem:
    title: str
    link: str
    description: str
    pub_date_ms: int | None = None
    guid: str | None = None

    def to_row(self) -> dict:
        row = {
            "title": self.title,
            "link": self.link,
            "description": self.description,
        }
        if self.pub_date_ms is not None:
            row["pub_date_ms"] = self.pub_date_ms
        if self.guid:
            row["guid"] = self.guid
        return row


def _text(element, tag: str) -> str:
    child = element.find(tag)
    return (child.text or "").strip() if child is not None else ""


def _parse_pub_date(value: str) -> int | None:
    """Epoch ms of an RFC 2822 date; a ``-0000`` zone reads as UTC."""
    if not value:
        return None
    from email.utils import parsedate_to_datetime
    try:
        moment = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return int(moment.timestamp() * 1000)


def parse_rss(data) -> list[RssItem]:
    """Parse RSS 2.0 XML into :class:`RssItem` objects."""
    import xml.etree.ElementTree as ET
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise IngestError(f"feed is not valid UTF-8: {exc}") from exc
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise IngestError(f"invalid RSS XML: {exc}") from exc
    if root.tag != "rss":
        raise IngestError(f"expected <rss> root, found <{root.tag}>")
    channel = root.find("channel")
    if channel is None:
        raise IngestError("RSS document has no <channel>")
    items = []
    for element in channel.findall("item"):
        title = _text(element, "title")
        link = _text(element, "link")
        if not title and not link:
            raise IngestError("RSS item lacks both title and link")
        items.append(RssItem(
            title=title,
            link=link,
            description=_text(element, "description"),
            pub_date_ms=_parse_pub_date(_text(element, "pubDate")),
            guid=_text(element, "guid") or None,
        ))
    if not items:
        raise IngestError("RSS channel contains no items")
    return items


class FeedPublisher:
    """Renders a synthetic-web site's news as an RSS 2.0 document."""

    def __init__(self, web) -> None:
        self._web = web

    def feed_xml(self, domain: str, max_items: int = 20) -> bytes:
        from email.utils import formatdate
        site = self._web.site(domain)
        articles = sorted(
            self._web.news_on(domain),
            key=lambda a: (-a.published_ms, a.url),
        )[:max_items]
        parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<rss version="2.0">',
            "<channel>",
            f"<title>{escape(site.title, quote=False)}</title>",
            f"<link>http://{escape(domain, quote=False)}/</link>",
            f"<description>{escape(site.topic, quote=False)} news from "
            f"{escape(domain, quote=False)}</description>",
        ]
        for article in articles:
            url = escape(article.url, quote=False)
            parts.extend([
                "<item>",
                f"<title>{escape(article.headline, quote=False)}</title>",
                f"<link>{url}</link>",
                f"<description>{escape(article.snippet, quote=False)}"
                f"</description>",
                f"<pubDate>{formatdate(article.published_ms / 1000.0)}"
                f"</pubDate>",
                f"<guid>{url}</guid>",
                "</item>",
            ])
        parts.extend(["</channel>", "</rss>"])
        return "\n".join(parts).encode("utf-8")
