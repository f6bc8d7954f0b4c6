"""Experiment X15 — governed ingest is vigilant.

The shared drifted-feed scenario (:mod:`repro.contracts.scenario`): a
products feed that turns bad mid-stream must have its schema drift
flagged within one refresh interval, its violating rows quarantined
(and replayable exactly once under a widened contract), and its
freshness SLA breach alerted within one refresh interval of the
deadline passing.

Every number is a count or simulated-clock milliseconds, so the
``x15_contracts`` artifact is deterministic. What enforcement costs in
wall-clock time is ``contracts.apply_ms_per_row`` (beside
``ingest_rows_per_s``) on the ``catalog_churn`` workload of
``benchmarks/e2e/``.
"""

from __future__ import annotations


def measure_governance() -> dict:
    """The shared drifted-feed scenario end to end."""
    from repro.contracts.scenario import (
        INTERVAL_MS,
        MAX_STALENESS_MS,
        run_drifted_feed,
    )
    from repro.core.platform import Symphony

    symphony = Symphony(slo=True)
    report = run_drifted_feed(symphony)
    return {
        "scenario_ok": report.ok,
        "refresh_interval_ms": INTERVAL_MS,
        "max_staleness_ms": MAX_STALENESS_MS,
        "drifted_at_ms": report.drifted_at_ms,
        "drift_detected_ms": report.drift_detected_ms,
        "stale_breach_ms": report.stale_breach_ms,
        "stale_event_ms": report.stale_event_ms,
        "quarantined": report.quarantined,
        "replayed": report.replayed,
        "requarantined": report.requarantined,
    }


def verdicts(governance: dict) -> dict:
    interval = governance["refresh_interval_ms"]
    return {
        "scenario_invariants": governance["scenario_ok"],
        "drift_within_one_interval": (
            governance["drift_detected_ms"] is not None
            and governance["drifted_at_ms"] is not None
            and governance["drift_detected_ms"]
            <= governance["drifted_at_ms"] + interval),
        "bad_rows_quarantined": governance["quarantined"] == 3,
        "replay_recovers_fixed_rows": (
            governance["replayed"] == 1
            and governance["requarantined"] == 2),
        "staleness_alert_within_one_interval": (
            governance["stale_event_ms"] is not None
            and governance["stale_breach_ms"] is not None
            and governance["stale_event_ms"]
            <= governance["stale_breach_ms"] + interval),
    }


def format_artifact(governance: dict) -> str:
    checks = verdicts(governance)
    ok = all(checks.values())
    lines = [
        "X15 — data contracts: drift, quarantine, freshness",
        "",
        "  governance (drifted products feed, "
        f"{governance['refresh_interval_ms']} ms refresh interval)",
        f"    drift: fed at {governance['drifted_at_ms']} ms, "
        f"detected at {governance['drift_detected_ms']} ms",
        f"    quarantined          : {governance['quarantined']} rows",
        f"    replay (v2 contract) : {governance['replayed']} recovered,"
        f" {governance['requarantined']} re-quarantined",
        f"    staleness: breach at {governance['stale_breach_ms']} ms, "
        f"alerted at {governance['stale_event_ms']} ms"
        f"  (SLA {governance['max_staleness_ms']} ms)",
        "",
    ]
    for name, passed in checks.items():
        lines.append(f"  [{'x' if passed else ' '}] {name}")
    lines += [
        "",
        f"  {'PASS' if ok else 'FAIL'}: governed ingest "
        f"{'catches drift, quarantines, and alerts' if ok else 'FAILED a claim above'}",
    ]
    return "\n".join(lines)


def test_contracts_bench():
    """Pytest entry point: record the artifact, enforce every claim."""
    from benchmarks.conftest import record_artifact

    governance = measure_governance()
    record_artifact("x15_contracts", format_artifact(governance))
    checks = verdicts(governance)
    assert all(checks.values()), checks

