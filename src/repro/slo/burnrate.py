"""Multi-window burn-rate alerting over one error budget.

The classic SRE construction: alert only when *both* a fast and a slow
window burn above threshold. The fast window makes detection quick and
recovery visible; the slow window stops a brief blip from paging. Both
windows run on simulated time, so an identical workload produces
identical alert timestamps — the alert stream is part of the
deterministic replay contract, not a side effect of scheduling.

Alerts are edge-triggered: one ``slo.burn`` event when the condition
becomes true, one ``slo.burn_cleared`` when it stops, with the active
state queryable in between (the autoscaler reads it every tick).
"""

from __future__ import annotations

from repro.slo.objectives import ErrorBudget, SLODefinition
from repro.telemetry.events import NULL_EVENTS
from repro.telemetry.metrics import NULL_METRICS

__all__ = ["BurnRateAlerter"]


class BurnRateAlerter:
    """Edge-triggered fast+slow burn alerting for one SLO."""

    __slots__ = ("slo", "budget", "_events", "_metrics", "active",
                 "alerts")

    def __init__(self, slo: SLODefinition, budget: ErrorBudget,
                 events=NULL_EVENTS, metrics=NULL_METRICS) -> None:
        self.slo = slo
        self.budget = budget
        self._events = events
        self._metrics = metrics
        self.active = False
        #: Every transition, newest last:
        #: ``{"at_ms", "kind": "fire"|"clear", "fast_burn", "slow_burn"}``
        self.alerts: list[dict] = []

    def check(self, now_ms: int) -> bool:
        """Re-evaluate at ``now_ms``; returns the (new) active state."""
        fast_burn, slow_burn = self.budget.burn_rates(now_ms)
        firing = (
            self.budget.fast.total >= self.slo.min_events
            and fast_burn >= self.slo.burn_threshold
            and slow_burn >= self.slo.burn_threshold
        )
        if firing and not self.active:
            self.active = True
            self._transition("fire", now_ms, fast_burn, slow_burn)
        elif not firing and self.active:
            self.active = False
            self._transition("clear", now_ms, fast_burn, slow_burn)
        return self.active

    def _transition(self, kind: str, now_ms: int, fast_burn: float,
                    slow_burn: float) -> None:
        status = self.budget.status(now_ms)
        self.alerts.append({
            "at_ms": now_ms,
            "kind": kind,
            "fast_burn": round(fast_burn, 4),
            "slow_burn": round(slow_burn, 4),
        })
        self._events.emit(
            "slo.burn" if kind == "fire" else "slo.burn_cleared",
            slo=self.slo.name,
            tenant=self.slo.tenant,
            fast_burn=round(fast_burn, 4),
            slow_burn=round(slow_burn, 4),
            budget_remaining=status["budget_remaining"],
        )
        if kind == "fire":
            self._metrics.counter("slo_burn_alerts_total",
                                  slo=self.slo.name).inc()

    def fired(self) -> list[dict]:
        """The ``fire`` transitions only, oldest first."""
        return [a for a in self.alerts if a["kind"] == "fire"]
