"""Scheduled refresh of registered data feeds.

The paper's dynamic-data story ("real-time data freshness") needs more
than one-shot uploads: RSS feeds are polled, crawls re-run, HTTP drops
re-fetched. The :class:`RefreshScheduler` tracks refreshable feeds with
per-feed intervals against the simulated clock; ``run_due()`` executes
whatever is due and reports per-feed outcomes, isolating failures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.contracts import ContractManager
from repro.errors import DuplicateError, ReproError
from repro.telemetry import Telemetry

__all__ = ["RefreshOutcome", "ScheduledFeed", "RefreshScheduler"]


@dataclass(frozen=True)
class RefreshOutcome:
    feed_id: str
    ran: bool
    unchanged: bool = False
    inserted: int = 0
    updated: int = 0
    error: str = ""


@dataclass
class ScheduledFeed:
    feed_id: str
    interval_ms: int
    action: object              # zero-arg callable -> IngestReport
    last_run_ms: int = -1
    failures: int = 0
    #: Generation key bumped when a run changes rows (see
    #: :mod:`repro.gateway.generations`); empty disables the bump.
    generation_key: str = ""

    def due(self, now_ms: int) -> bool:
        return self.last_run_ms < 0 or \
            now_ms - self.last_run_ms >= self.interval_ms


class RefreshScheduler:
    """Owns the refresh calendar for one tenant's feeds."""

    def __init__(self, clock, generations=None, telemetry=None,
                 contracts: ContractManager | None = None) -> None:
        self._clock = clock
        self._feeds: dict[str, ScheduledFeed] = {}
        self._generations = generations
        self._telemetry = telemetry or Telemetry.disabled()
        #: The :class:`~repro.contracts.ContractManager` (an empty one
        #: of its own when none is given): freshness SLAs are judged
        #: after every scheduler pass, so a feed that stops (or keeps
        #: failing) goes stale on the same clock that drives its
        #: refreshes.
        self._contracts = contracts or ContractManager(
            clock, telemetry=self._telemetry)

    def register(self, feed_id: str, interval_ms: int, action,
                 generation_key: str = "") -> None:
        """Register ``action`` (a zero-arg ingest callable) under
        ``feed_id`` to run every ``interval_ms`` simulated ms.

        ``generation_key`` marks which cached data a successful refresh
        invalidates; actions built on a generation-wired
        :class:`~repro.ingest.pipeline.DatasetIngestor` already bump
        their table's key and can leave this empty.
        """
        if feed_id in self._feeds:
            raise DuplicateError(f"feed already scheduled: {feed_id}")
        if interval_ms <= 0:
            raise ValueError("refresh interval must be positive")
        self._feeds[feed_id] = ScheduledFeed(
            feed_id, interval_ms, action,
            generation_key=generation_key,
        )

    def due_feeds(self) -> list[str]:
        now = self._clock.now_ms
        return sorted(fid for fid, feed in self._feeds.items()
                      if feed.due(now))

    def run_due(self) -> list[RefreshOutcome]:
        """Run every due feed; failures are isolated per feed.

        A :class:`~repro.errors.ReproError` from a feed action — the
        readers turn malformed input into an
        :class:`~repro.errors.IngestError` — fails that feed only. Any
        other exception is a bug and propagates. Success resets the
        feed's ``failures`` streak; every run emits a
        ``refresh.complete`` / ``refresh.failed`` event. After the
        pass, contracted feeds get their freshness SLAs re-judged.
        """
        outcomes = []
        for feed_id in self.due_feeds():
            feed = self._feeds[feed_id]
            feed.last_run_ms = self._clock.now_ms
            try:
                report = feed.action()
            except ReproError as exc:
                feed.failures += 1
                self._emit("refresh.failed", feed,
                           error=str(exc), failures=feed.failures)
                outcomes.append(RefreshOutcome(
                    feed_id=feed_id, ran=True, error=str(exc),
                ))
                continue
            feed.failures = 0
            outcome = RefreshOutcome(
                feed_id=feed_id,
                ran=True,
                unchanged=getattr(report, "unchanged", False),
                inserted=getattr(report, "inserted", 0),
                updated=getattr(report, "updated", 0),
            )
            if (self._generations is not None and feed.generation_key
                    and not outcome.unchanged
                    and (outcome.inserted or outcome.updated)):
                self._generations.bump(feed.generation_key)
            self._emit("refresh.complete", feed,
                       unchanged=outcome.unchanged,
                       inserted=outcome.inserted,
                       updated=outcome.updated)
            outcomes.append(outcome)
        self._contracts.check_freshness()
        return outcomes

    def _emit(self, kind: str, feed: ScheduledFeed, **fields) -> None:
        self._telemetry.events.emit(kind, feed=feed.feed_id, **fields)

    def run_all_for(self, duration_ms: int,
                    tick_ms: int | None = None) -> list:
        """Advance the clock through ``duration_ms``, refreshing on the
        way; returns the concatenated outcomes of each tick."""
        tick = tick_ms or min(
            (f.interval_ms for f in self._feeds.values()),
            default=duration_ms,
        )
        outcomes = []
        elapsed = 0
        while elapsed < duration_ms:
            step = min(tick, duration_ms - elapsed)
            self._clock.advance(step)
            elapsed += step
            outcomes.extend(self.run_due())
        return outcomes
