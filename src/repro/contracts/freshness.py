"""Freshness-SLA tracking for contracted feeds.

Each contract with a :class:`~repro.contracts.contract.FreshnessSLA`
gets a tracked feed: the refresh scheduler reports every successful
refresh, the tracker judges staleness against the simulated clock, and
crossings are edge-triggered — one ``contract.stale`` event when a feed
exceeds its ``max_staleness_ms``, one ``contract.fresh`` when it
recovers. Every check also records a good/bad observation into the
platform freshness error budget so sustained staleness burns the same
multi-window alerts the query SLOs use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.telemetry import Telemetry

from .contract import FreshnessSLA

__all__ = ["FeedFreshness", "FreshnessTracker"]


@dataclass
class FeedFreshness:
    """Live freshness state for one (tenant, table) feed."""

    tenant_id: str
    table: str
    sla: FreshnessSLA
    last_refresh_ms: int
    stale: bool = False
    stale_since_ms: int | None = None
    checks: int = 0
    stale_checks: int = 0

    def staleness_ms(self, now_ms: int) -> int:
        return max(0, now_ms - self.last_refresh_ms)

    def status(self, now_ms: int) -> dict:
        return {
            "tenant": self.tenant_id,
            "table": self.table,
            "staleness_ms": self.staleness_ms(now_ms),
            "max_staleness_ms": self.sla.max_staleness_ms,
            "stale": self.stale,
            "stale_since_ms": self.stale_since_ms,
            "checks": self.checks,
            "stale_checks": self.stale_checks,
        }


class FreshnessTracker:
    """Judges every bound feed's staleness on the simulated clock."""

    def __init__(self, clock, telemetry=None, budget=None,
                 alerter=None) -> None:
        self.clock = clock
        self.telemetry = telemetry or Telemetry.disabled()
        #: Platform-wide freshness :class:`~repro.slo.ErrorBudget`
        #: (one good/bad observation per feed per check) and its
        #: burn-rate alerter; both optional.
        self.budget = budget
        self.alerter = alerter
        self._feeds: dict[tuple, FeedFreshness] = {}

    def bind(self, tenant_id: str, table: str,
             sla: FreshnessSLA) -> FeedFreshness:
        """Start tracking one feed; the clock starts now."""
        key = (tenant_id, table)
        feed = FeedFreshness(tenant_id, table, sla,
                             last_refresh_ms=self.clock.now_ms)
        self._feeds[key] = feed
        # The callback indirects through the feed map so
        # re-registering a contract rebinds the gauge too.
        self.telemetry.metrics.gauge(
            "contract_staleness_ms",
            fn=lambda key=key: float(
                self._feeds[key].staleness_ms(self.clock.now_ms)
            ) if key in self._feeds else 0.0,
            tenant=tenant_id, table=table)
        return feed

    def unbind(self, tenant_id: str, table: str) -> None:
        """Stop tracking one feed (if tracked); its gauge reads 0."""
        self._feeds.pop((tenant_id, table), None)

    def feed(self, tenant_id: str, table: str) -> FeedFreshness | None:
        return self._feeds.get((tenant_id, table))

    def feeds(self) -> list:
        return list(self._feeds.values())

    def mark_refreshed(self, tenant_id: str, table: str) -> None:
        """A successful refresh just landed for this feed."""
        feed = self._feeds.get((tenant_id, table))
        if feed is None:
            return
        feed.last_refresh_ms = self.clock.now_ms
        # Recovery is declared on the next check() pass so event order
        # stays scheduler-driven and deterministic.

    def check(self) -> list:
        """Judge every feed now; returns the currently-stale ones."""
        now = self.clock.now_ms
        stale_feeds = []
        for feed in self._feeds.values():
            feed.checks += 1
            is_stale = feed.staleness_ms(now) > feed.sla.max_staleness_ms
            if is_stale:
                feed.stale_checks += 1
                stale_feeds.append(feed)
            if is_stale and not feed.stale:
                feed.stale = True
                feed.stale_since_ms = now
                self._emit("contract.stale", feed, now)
            elif not is_stale and feed.stale:
                feed.stale = False
                feed.stale_since_ms = None
                self._emit("contract.fresh", feed, now)
            if self.budget is not None:
                self.budget.record(now, not is_stale)
        if self.alerter is not None and self._feeds:
            self.alerter.check(now)
        return stale_feeds

    def _emit(self, kind: str, feed: FeedFreshness,
              now_ms: int) -> None:
        self.telemetry.events.emit(
            kind,
            tenant=feed.tenant_id,
            table=feed.table,
            staleness_ms=feed.staleness_ms(now_ms),
            max_staleness_ms=feed.sla.max_staleness_ms,
        )
        if kind == "contract.stale":
            self.telemetry.metrics.counter(
                "contract_stale_total", table=feed.table).inc()
