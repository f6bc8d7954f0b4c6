"""The SLO engine: judge every query, alert on burn, retain anomalies.

One :class:`SLOEngine` sits beside a platform's
:class:`~repro.telemetry.Telemetry` bundle. The runtime reports every
finished query (tenant, latency, degradation, completeness, trace id);
the engine judges it against each matching objective, records the
verdicts into rolling error budgets, re-evaluates the multi-window
burn-rate alerts, and — only when the query was anomalous — captures
its full span tree and correlated events into the flight recorder.

The clean path does no span fetching and no event scanning: one
histogram observation, a few deque appends, and the edge-triggered
alert checks. That is the whole per-query cost when nothing is wrong,
which is what keeps the layer inside its ≤5% overhead budget.

A platform without ``slo=`` has no engine: ``Symphony.slo`` is ``None``
and the runtime skips the hook.
"""

from __future__ import annotations

from repro.slo.burnrate import BurnRateAlerter
from repro.slo.explain import Attribution, explain_spans
from repro.slo.objectives import ErrorBudget, SLOConfig
from repro.slo.recorder import FlightRecord, FlightRecorder

__all__ = ["SLOEngine"]


class SLOEngine:
    """Judgment layer over one telemetry bundle."""

    def __init__(self, telemetry, config: SLOConfig | None = None
                 ) -> None:
        self.telemetry = telemetry
        self.config = config or SLOConfig()
        self.clock = telemetry.clock
        self.slos = self.config.build_slos()
        self._trackers = [
            (slo, budget := ErrorBudget(slo), BurnRateAlerter(
                slo, budget,
                events=telemetry.events, metrics=telemetry.metrics,
            ))
            for slo in self.slos
        ]
        # Externally-driven objectives (e.g. contract freshness) are
        # reported alongside the query-judged ones but never fed by
        # observe() — their owners record into the budget themselves.
        self._external: list = []
        self.recorder = FlightRecorder(self.config.recorder_capacity)
        self._latency = telemetry.metrics.histogram(
            "slo_query_latency_ms")
        self._observed = 0
        self._slow_threshold: float | None = None

    # -- the per-query hook ---------------------------------------------------

    def observe(self, *, tenant: str, latency_ms: float,
                degraded: bool = False, errored: bool = False,
                completeness: float = 1.0, trace_id: str = "",
                start_ms: int = 0, end_ms: int = 0
                ) -> FlightRecord | None:
        """Judge one finished query; returns its record if retained."""
        now = self.clock.now_ms
        self._observed += 1
        self._latency.observe(latency_ms)
        # The slow-tail gate compares against a cached rolling
        # quantile refreshed every 32 queries — recomputing (and
        # re-sorting) per query would eat the overhead budget for
        # a threshold that moves slowly anyway.
        if (self._observed % 32 == 1
                and self._latency.count
                >= self.config.slow_min_samples):
            self._slow_threshold = self._latency.quantile(
                self.config.slow_quantile)
        reasons: list[str] = []
        if errored:
            reasons.append("error")
        if degraded:
            reasons.append("degraded")
        if (self._slow_threshold is not None
                and latency_ms > self._slow_threshold):
            reasons.append("slow")
        for slo, budget, alerter in self._trackers:
            if not slo.matches(tenant):
                continue
            good = slo.judge(latency_ms, degraded, errored,
                             completeness)
            budget.record(now, good)
            alerter.check(now)
            if not good:
                reasons.append(f"slo:{slo.name}")
        anomalous = bool(reasons)
        self.recorder.note_seen(anomalous)
        if not anomalous:
            every = self.config.clean_sample_every
            if not (every
                    and self.recorder.stats.clean_seen % every == 0):
                return None
            reasons = ["sampled"]
        record = FlightRecord(
            query_id=trace_id,
            tenant=tenant,
            start_ms=start_ms,
            end_ms=end_ms or now,
            latency_ms=round(latency_ms, 3),
            degraded=degraded,
            errored=errored,
            completeness=round(completeness, 4),
            reasons=tuple(reasons),
            spans=self._capture_spans(trace_id),
            events=self._capture_events(start_ms, end_ms or now),
        )
        self.recorder.record(record)
        return record

    def _capture_spans(self, trace_id: str) -> tuple:
        if not trace_id:
            return ()
        return tuple(
            s.to_dict()
            for s in self.telemetry.tracer.trace_spans(trace_id)
        )

    def _capture_events(self, start_ms: int, end_ms: int) -> tuple:
        if not start_ms:
            return ()
        return tuple(
            e.to_dict() for e in self.telemetry.events.events
            if start_ms <= e.timestamp_ms <= end_ms
        )

    # -- external objectives --------------------------------------------------

    def adopt_tracker(self, slo, budget, alerter) -> None:
        """Report an externally-driven objective in status/alerts.

        The owner keeps recording into ``budget`` and calling
        ``alerter.check`` itself; the engine only folds the tracker
        into :meth:`burning`, :meth:`alerts`, :meth:`status`, and
        :meth:`report` so operators see one consolidated view.
        """
        self._external.append((slo, budget, alerter))

    def _all_trackers(self) -> list:
        return self._trackers + self._external

    # -- alert state ----------------------------------------------------------

    def burning(self) -> bool:
        """Is any burn-rate alert currently firing?"""
        return any(alerter.active
                   for __, __, alerter in self._all_trackers())

    def alerts(self) -> list[dict]:
        """Every alert transition, ordered by time then SLO name."""
        out = []
        for slo, __, alerter in self._all_trackers():
            for alert in alerter.alerts:
                out.append(dict(alert, slo=slo.name,
                                tenant=slo.tenant))
        return sorted(out, key=lambda a: (a["at_ms"], a["slo"]))

    def first_burn_ms(self) -> int | None:
        """Timestamp of the earliest ``slo.burn`` firing, if any."""
        fire_times = [a["at_ms"] for a in self.alerts()
                      if a["kind"] == "fire"]
        return min(fire_times) if fire_times else None

    # -- diagnosis ------------------------------------------------------------

    def explain(self, query_id: str) -> Attribution | None:
        """Attribute a recorded (or still-traced) query's wall time."""
        spans: list = list(self.telemetry.tracer.trace_spans(query_id))
        if not spans:
            record = self.recorder.get(query_id)
            if record is not None:
                spans = [dict(s) for s in record.spans]
        if not spans:
            return None
        return explain_spans(spans, query_id=query_id)

    def worst_record(self) -> FlightRecord | None:
        """The slowest anomalous retained query."""
        breaching = self.recorder.breaching()
        if not breaching:
            return None
        return max(breaching,
                   key=lambda r: (r.latency_ms, -r.start_ms))

    # -- reporting ------------------------------------------------------------

    def status(self) -> dict:
        now = self.clock.now_ms
        return {
            "objectives": [
                dict(budget.status(now), kind=slo.kind,
                     alerting=alerter.active)
                for slo, budget, alerter in self._all_trackers()
            ],
            "alerts": self.alerts(),
            "recorder": self.recorder.stats.as_dict(),
            "observed": self._observed,
        }

    def report(self) -> str:
        status = self.status()
        lines = ["SLO report", "=========="]
        lines.append("")
        lines.append(f"{'objective':<22} {'kind':<13} {'events':>6} "
                     f"{'bad':>4} {'fast':>7} {'slow':>7} "
                     f"{'budget':>7}  state")
        for obj in status["objectives"]:
            name = obj["slo"] + (f"[{obj['tenant']}]" if obj["tenant"]
                                 else "")
            state = "BURNING" if obj["alerting"] else "ok"
            lines.append(
                f"{name:<22} {obj['kind']:<13} {obj['events']:>6} "
                f"{obj['bad']:>4} {obj['fast_burn']:>7.2f} "
                f"{obj['slow_burn']:>7.2f} "
                f"{obj['budget_remaining'] * 100:>6.1f}%  {state}"
            )
        lines.append("")
        alerts = status["alerts"]
        lines.append(f"Alerts ({len(alerts)}):")
        if alerts:
            for alert in alerts:
                lines.append(
                    f"  t={alert['at_ms']} {alert['kind']:<5} "
                    f"{alert['slo']:<14} fast={alert['fast_burn']:.2f} "
                    f"slow={alert['slow_burn']:.2f}"
                )
        else:
            lines.append("  (none)")
        lines.append("")
        rec = status["recorder"]
        lines.append(
            f"Flight recorder: {rec['retained']} retained of "
            f"{rec['seen']} seen ({rec['anomalous']} anomalous, "
            f"clean retention {rec['clean_retention'] * 100:.1f}%, "
            f"{rec['evicted']} evicted)"
        )
        breaching = self.recorder.breaching()
        if breaching:
            lines.append("Breaching queries (newest last):")
            for record in breaching[-10:]:
                lines.append(
                    f"  {record.query_id}  {record.latency_ms:>8.1f}ms"
                    f"  [{', '.join(record.reasons)}]"
                )
        return "\n".join(lines)
