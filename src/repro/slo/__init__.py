"""``repro.slo`` — the judgment layer over telemetry.

PR 2 made the platform *emit* telemetry; this package makes it *judge*
what it emitted, the way an operated service must:

* :class:`~repro.slo.objectives.SLODefinition` /
  :class:`~repro.slo.objectives.ErrorBudget` — per-tenant and
  platform-wide objectives over latency, availability, and result
  completeness, tracked as rolling error budgets on simulated time;
* :class:`~repro.slo.burnrate.BurnRateAlerter` — multi-window
  (fast ~5m + slow ~1h) burn-rate alerting, edge-triggered
  ``slo.burn`` / ``slo.burn_cleared`` events, fully deterministic;
* :class:`~repro.slo.recorder.FlightRecorder` — a bounded ring that
  retains full span trees + correlated events only for anomalous
  queries (errored, degraded, slowest-tail, SLO-breaching);
* :func:`~repro.slo.explain.explain_spans` — per-query latency
  attribution across queue wait, pipeline stages, sources, shard and
  replica fan-out, and services.

Construct ``Symphony(slo=True)`` (or pass an
:class:`~repro.slo.objectives.SLOConfig`) to wire the engine into the
runtime and autoscaler; without it ``Symphony.slo`` is ``None`` and no
query is judged.
"""

from __future__ import annotations

from repro.slo.burnrate import BurnRateAlerter
from repro.slo.engine import SLOEngine
from repro.slo.explain import Attribution, explain_spans
from repro.slo.objectives import ErrorBudget, SLOConfig, SLODefinition
from repro.slo.recorder import FlightRecord, FlightRecorder

__all__ = [
    "SLODefinition",
    "SLOConfig",
    "ErrorBudget",
    "BurnRateAlerter",
    "FlightRecord",
    "FlightRecorder",
    "Attribution",
    "explain_spans",
    "SLOEngine",
]
