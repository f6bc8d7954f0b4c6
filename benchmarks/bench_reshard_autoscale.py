"""Experiment X11 — autoscaler shedding latency on a hot shard.

Drives the control plane through the two remediation rungs of its
escalation ladder on a 2-shard cluster and verifies the ISSUE's
acceptance bars:

* slow replica — one replica of shard 0 starts serving every read
  ~90 ms late; the autoscaler adds a replica, hedged reads route
  around the slow node, and the shard's latency collapses;
* overloaded shard — every replica of shard 0 slows in proportion to
  the shard's document count; replicas are already at the policy
  ceiling, so the autoscaler splits the shard, the handoff halves its
  load, and the latency drops back inside the dead band;
* convergence — once remediated, the final ticks produce no further
  scaling actions (hysteresis + cooldown prevent flapping).

Latencies are simulated-clock milliseconds from the cluster response,
so the ``x11_reshard_autoscale`` artifact is deterministic. What a
cluster search costs in wall-clock time with the control plane
installed is ``cluster.coordinator_self_ms_per_search`` on the
``gateway_allon`` workload of ``benchmarks/e2e/``.
"""

from __future__ import annotations

import statistics

QUERIES = ("news", "game", "travel", "wine review", "video", "classic")
TICKS = 30
BASELINE_TICKS = 3          # ticks 0-2: clean cluster, no faults
OVERLOAD_TICK = 13          # phase 2 begins: whole shard overloaded
SLOW_NODE_MS = 90.0         # phase 1: one replica serves this late
QUIET_TICKS = 5             # final window that must see no actions
LATENCY_HIGH_MS = 40.0
LATENCY_LOW_MS = 2.0


def _build_cluster(web, telemetry=None, hedge=None, clock=None):
    from repro.cluster import ClusterConfig, build_clustered_engine

    return build_clustered_engine(
        web,
        config=ClusterConfig(num_shards=2, replicas_per_shard=1),
        clock=clock, telemetry=telemetry, hedge=hedge,
    )


def run_autoscale_scenario(web) -> dict:
    """Tick the autoscaler through both remediation rungs."""
    from repro.controlplane import (
        Autoscaler,
        AutoscalerPolicy,
        ShardLifecycleManager,
    )
    from repro.resilience.hedging import HedgePolicy
    from repro.telemetry import Telemetry
    from repro.util import SimClock

    clock = SimClock()
    telemetry = Telemetry(clock=clock)
    engine = _build_cluster(
        web, telemetry=telemetry, clock=clock,
        hedge=HedgePolicy(latency_quantile=0.5, min_observations=8,
                          fallback_threshold_ms=25.0),
    )
    # Size handoff batches to the corpus so the split completes in a
    # handful of ticks regardless of the web spec driving the run.
    batch = max(64, engine.shard_doc_count(0) // 8)
    lifecycle = ShardLifecycleManager(engine, telemetry=telemetry,
                                      batch_size=batch)
    policy = AutoscalerPolicy(
        latency_high_ms=LATENCY_HIGH_MS, latency_low_ms=LATENCY_LOW_MS,
        breach_rounds=2, cooldown_ticks=2, min_replicas=1,
        max_replicas=2, max_shards=4, split_min_docs=1,
        merge_max_docs=0,
    )
    autoscaler = Autoscaler(engine, lifecycle, telemetry=telemetry,
                            policy=policy)
    # Overload magnitude scales with the hot shard's document count so
    # a split (which halves the shard) genuinely sheds the latency.
    overload_per_doc = (1.5 * (LATENCY_HIGH_MS - 15.0)
                        / engine.shard_doc_count(0))

    def drain(replica):
        while replica.take_latency_ms() > 0:
            pass

    rows = []
    for tick in range(TICKS):
        # Re-arm the fault each tick at the *current* magnitude: drain
        # whatever the last tick left queued, then queue enough delays
        # to cover every attempt (stats + exec + hedge backups) this
        # tick, so stale magnitudes never outlive a topology change.
        hot = engine.groups[0]
        for replica in hot.replicas:
            drain(replica)
        if tick >= OVERLOAD_TICK:
            spike = overload_per_doc * engine.shard_doc_count(0)
            for replica in hot.replicas:
                replica.inject_latency(spike, count=32)
        elif tick >= BASELINE_TICKS:
            hot.replicas[0].inject_latency(SLOW_NODE_MS, count=32)
        elapsed = [engine.search("web", q).elapsed_ms
                   for q in QUERIES]
        decision = autoscaler.tick()
        rows.append({
            "tick": tick,
            "mean_ms": statistics.fmean(elapsed),
            "max_ms": max(elapsed),
            "action": decision.action,
            "reason": decision.reason,
            "acted": decision.acted,
            "shards": engine.num_shards,
            "hot_replicas": len(engine.groups[0].replicas),
        })

    def phase_mean(ticks):
        return statistics.fmean(rows[t]["mean_ms"] for t in ticks)

    actions = [(r["tick"], r["action"]) for r in rows if r["acted"]]
    slow_onset = phase_mean(range(BASELINE_TICKS, BASELINE_TICKS + 2))
    slow_settled = phase_mean(range(OVERLOAD_TICK - 3, OVERLOAD_TICK))
    overload_onset = phase_mean(range(OVERLOAD_TICK, OVERLOAD_TICK + 2))
    settled = phase_mean(range(TICKS - QUIET_TICKS, TICKS))
    return {
        "rows": rows,
        "actions": actions,
        "baseline_ms": phase_mean(range(BASELINE_TICKS)),
        "slow_onset_ms": slow_onset,
        "slow_settled_ms": slow_settled,
        "overload_onset_ms": overload_onset,
        "settled_ms": settled,
        "quiet": not any(r["acted"]
                         for r in rows[TICKS - QUIET_TICKS:]),
        "shards": engine.num_shards,
        "topology_version": engine.topology_version,
        "reshards": len(
            telemetry.events.by_kind("reshard.complete")
        ),
    }


def format_artifact(scenario) -> str:
    lines = [
        "X11 — autoscaler on a hot shard "
        "(2 shards x 1 replica, slow node then overload)",
        "",
        "  tick  mean      max       shards  replicas[0]  action",
    ]
    for row in scenario["rows"]:
        marker = " *" if row["acted"] else ""
        lines.append(
            f"  {row['tick']:4d}  {row['mean_ms']:7.1f}ms "
            f"{row['max_ms']:7.1f}ms  {row['shards']:6d}  "
            f"{row['hot_replicas']:11d}  {row['action']}{marker}"
        )
    actions = [action for __, action in scenario["actions"]]
    replica_ok = ("add_replica" in actions
                  and scenario["slow_settled_ms"]
                  < 0.5 * scenario["slow_onset_ms"])
    split_ok = ("split" in actions
                and scenario["reshards"] >= 1
                and scenario["settled_ms"]
                < 0.7 * scenario["overload_onset_ms"]
                and scenario["settled_ms"] < LATENCY_HIGH_MS)
    quiet_ok = scenario["quiet"]
    lines += [
        "",
        f"  actions: "
        + (", ".join(f"tick {t}: {a}"
                     for t, a in scenario["actions"]) or "none"),
        f"  topology: {scenario['shards']} shards, "
        f"version {scenario['topology_version']}, "
        f"{scenario['reshards']} reshard(s) completed",
        f"  latency: baseline {scenario['baseline_ms']:.1f}ms | "
        f"slow node {scenario['slow_onset_ms']:.1f} -> "
        f"{scenario['slow_settled_ms']:.1f}ms | "
        f"overload {scenario['overload_onset_ms']:.1f} -> "
        f"{scenario['settled_ms']:.1f}ms",
        "",
        f"  {'PASS' if replica_ok else 'FAIL'}: added replica + "
        "hedging halves the slow-node latency",
        f"  {'PASS' if split_ok else 'FAIL'}: shard split sheds the "
        "overload back inside the dead band",
        f"  {'PASS' if quiet_ok else 'FAIL'}: no scaling actions in "
        f"the final {QUIET_TICKS} ticks (no flapping)",
    ]
    return "\n".join(lines)


def test_reshard_autoscale(bench_web):
    """Pytest entry point: record the artifact, enforce the bars."""
    from benchmarks.conftest import record_artifact

    scenario = run_autoscale_scenario(bench_web)
    record_artifact("x11_reshard_autoscale", format_artifact(scenario))
    actions = [action for __, action in scenario["actions"]]
    assert "add_replica" in actions
    assert "split" in actions
    assert scenario["reshards"] >= 1
    assert (scenario["slow_settled_ms"]
            < 0.5 * scenario["slow_onset_ms"])
    assert (scenario["settled_ms"]
            < 0.7 * scenario["overload_onset_ms"])
    assert scenario["settled_ms"] < LATENCY_HIGH_MS
    assert scenario["quiet"]

