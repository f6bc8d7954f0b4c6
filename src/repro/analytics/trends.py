"""Query trends: daily volumes and rising queries per application.

The Conclusions observe that each application's usage stream is topic-
focused; beyond static profiles (:mod:`aggregation`), designers want to
see *movement*: daily query volume and which queries are accelerating
("rising"). Rising score follows the classic two-window ratio with
additive smoothing, so brand-new queries score high but a single
occurrence can't dominate.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DailyVolume", "RisingQuery", "TrendReport", "compute_trends"]

_DAY_MS = 86_400_000


@dataclass(frozen=True)
class DailyVolume:
    day: int          # days since the epoch passed to compute_trends
    queries: int
    clicks: int


@dataclass(frozen=True)
class RisingQuery:
    query: str
    recent_count: int
    previous_count: int
    score: float      # smoothed recent/previous ratio


@dataclass(frozen=True)
class TrendReport:
    app_id: str
    daily: tuple        # DailyVolume, ascending by day
    rising: tuple       # RisingQuery, descending by score


def compute_trends(log, app_id: str, now_ms: int,
                   window_days: int = 7, epoch_ms: int = 0,
                   smoothing: float = 1.0,
                   top_n: int = 10) -> TrendReport:
    """Build a :class:`TrendReport` from the query/click log.

    ``window_days`` sets both the recent and the previous comparison
    window; queries older than two windows are ignored for the rising
    computation but still count toward daily volumes.
    """
    queries = log.queries_for_app(app_id)
    clicks = log.clicks_for_app(app_id)

    volumes: dict[int, list[int]] = {}
    for event in queries:
        day = (event.timestamp_ms - epoch_ms) // _DAY_MS
        volumes.setdefault(day, [0, 0])[0] += 1
    for click in clicks:
        day = (click.timestamp_ms - epoch_ms) // _DAY_MS
        volumes.setdefault(day, [0, 0])[1] += 1
    daily = tuple(
        DailyVolume(day, counts[0], counts[1])
        for day, counts in sorted(volumes.items())
    )

    window_ms = window_days * _DAY_MS
    recent_start = now_ms - window_ms
    previous_start = now_ms - 2 * window_ms
    recent: dict[str, int] = {}
    previous: dict[str, int] = {}
    for event in queries:
        key = event.query.strip().lower()
        if event.timestamp_ms >= recent_start:
            recent[key] = recent.get(key, 0) + 1
        elif event.timestamp_ms >= previous_start:
            previous[key] = previous.get(key, 0) + 1

    rising = []
    for key, count in recent.items():
        before = previous.get(key, 0)
        score = (count + smoothing) / (before + smoothing)
        rising.append(RisingQuery(
            query=key, recent_count=count, previous_count=before,
            score=round(score, 4),
        ))
    rising.sort(key=lambda r: (-r.score, -r.recent_count, r.query))
    return TrendReport(app_id=app_id, daily=daily,
                       rising=tuple(rising[:top_n]))
