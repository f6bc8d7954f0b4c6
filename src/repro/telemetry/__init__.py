"""``repro.telemetry`` — the platform's observability layer.

Three coordinated instruments behind one :class:`Telemetry` bundle:

* :class:`~repro.telemetry.trace.Tracer` — hierarchical spans (query →
  stage → per-source → per-shard → per-replica) with parent-child
  context carried in a context variable, timed off
  :class:`~repro.util.SimClock` so span trees replay identically.
* :class:`~repro.telemetry.metrics.MetricsRegistry` — counters, gauges,
  and streaming histograms (p50/p95/p99) for cache behaviour, circuit
  breakers, gateway sheds, per-shard latency, and degradation.
* :class:`~repro.telemetry.events.EventLog` — structured, timestamped
  facts (state transitions, rejections, failovers) with a JSONL
  exporter and a Prometheus-style text exposition.

Construct ``Symphony(..., telemetry=True)`` to wire all of it through
the query pipeline and cluster; the default is :meth:`Telemetry.disabled`,
whose no-op tracer keeps the hot path allocation-free.
"""

from __future__ import annotations

from repro.telemetry.events import (
    NULL_EVENTS,
    EventLog,
    NullEventLog,
    TelemetryEvent,
)
from repro.telemetry.export import (
    dump_jsonl,
    load_jsonl,
    render_report,
    telemetry_lines,
)
from repro.telemetry.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.telemetry.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    build_span_forest,
    render_span_tree,
)
from repro.util import SimClock

__all__ = [
    "Telemetry",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "build_span_forest",
    "render_span_tree",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_METRICS",
    "DEFAULT_BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "EventLog",
    "NullEventLog",
    "NULL_EVENTS",
    "TelemetryEvent",
    "telemetry_lines",
    "dump_jsonl",
    "load_jsonl",
    "render_report",
]


class Telemetry:
    """Tracer + metrics + events sharing one clock.

    One bundle per platform instance; every instrumented subsystem
    receives the same bundle so a query's spans, the cache's gauges,
    and the breaker's events all land in one exportable session.
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        self.enabled = True
        self.tracer = Tracer(self.clock)
        self.metrics = MetricsRegistry()
        self.events = EventLog(clock=self.clock, metrics=self.metrics)

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared no-op bundle (stateless, safe to share)."""
        return _DISABLED

    # -- convenience wiring ---------------------------------------------------

    def bind_result_cache(self, cache) -> None:
        """Expose a :class:`~repro.gateway.cache.ResultCache`'s stats as
        callback gauges, so exports always see current values."""
        for stat in ("hits", "misses", "ttl_evictions",
                     "lru_evictions", "entries"):
            self.metrics.gauge(
                f"result_cache_{stat}",
                fn=(lambda c=cache, s=stat: c.stats()[s]),
            )

    # -- export ---------------------------------------------------------------

    def data(self) -> dict:
        """Live session data in the same shape :func:`load_jsonl` returns."""
        return {
            "spans": [s.to_dict() for s in self.tracer.spans],
            "events": [e.to_dict() for e in self.events.events],
            "metrics": self.metrics.snapshot(),
            "events_dropped": self.events.dropped,
        }

    def report(self) -> str:
        return render_report(self.data())

    def export_jsonl(self, path) -> int:
        """Write the session as JSONL; returns the line count."""
        with open(path, "w", encoding="utf-8") as fh:
            return dump_jsonl(self, fh)

    def render_prometheus(self) -> str:
        return self.metrics.render_prometheus()


class _DisabledTelemetry(Telemetry):
    """Null bundle: shared singletons, nothing recorded."""

    def __init__(self) -> None:  # noqa: super().__init__ intentionally skipped
        self.clock = SimClock()
        self.enabled = False
        self.tracer = NULL_TRACER
        self.metrics = NULL_METRICS
        self.events = NULL_EVENTS


_DISABLED = _DisabledTelemetry()
