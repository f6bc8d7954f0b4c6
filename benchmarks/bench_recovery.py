"""Experiment X14 — crash recovery is bounded by backlog and checkpoints.

Two claims, one artifact:

1. **Catch-up is linear in the WAL backlog** — with automatic
   checkpoints off (baseline snapshot only), a crashed replica's
   simulated catch-up time grows linearly with the number of WAL
   records it missed: fitting catch-up vs backlog across a sweep must
   give R² ≥ 0.98 with a positive slope.
2. **Checkpoints bound replay** — with a checkpoint cadence of K
   records, recovery at the largest backlog replays fewer than K
   records and is strictly cheaper than the checkpoint-free recovery
   of the same backlog.

Catch-up is simulated-clock milliseconds, so the ``x14_recovery``
artifact is deterministic. What the WAL append and the automatic
checkpoints cost in wall-clock time is
``durability.append_ms_per_doc`` / ``durability.checkpoint_ms_total``
(beside ``cluster.write_ms_per_doc``) on the ``catalog_churn`` workload
of ``benchmarks/e2e/``.
"""

from __future__ import annotations

CRASH_SHARD = 0
CRASH_REPLICA = 1
BACKLOG_SWEEP = (40, 80, 160, 320)   # docs ingested while crashed
CHECKPOINT_EVERY = 32


def _build(web, durability=None):
    from repro.cluster import ClusterConfig
    from repro.core.platform import Symphony

    return Symphony(
        web=web, use_authority=False,
        cluster=ClusterConfig(num_shards=2, replicas_per_shard=2),
        durability=durability,
    )


def _ingest(engine, start: int, count: int, token: str) -> None:
    from repro.searchengine.documents import FieldedDocument
    from repro.searchengine.engine import Vertical

    for number in range(start, start + count):
        engine.add_document(Vertical.WEB, FieldedDocument(
            f"{token}-{number}",
            {"title": f"{token} payload {number}",
             "url": f"http://{token}.example/{number}"},
            None,
        ))


def _crash_recover(web, docs: int, checkpoint_every: int) -> dict:
    """One crash/recover cycle; returns the recovery facts."""
    from repro.durability import DurabilityConfig

    symphony = _build(web, DurabilityConfig(
        checkpoint_every=checkpoint_every))
    durability = symphony.durability
    wal_at_crash = durability.wal.last_lsn(CRASH_SHARD)
    durability.crash_replica(CRASH_SHARD, CRASH_REPLICA)
    _ingest(symphony.engine, 0, docs, f"backlog{docs}")
    backlog = durability.wal.last_lsn(CRASH_SHARD) - wal_at_crash
    report = durability.recover_replica(CRASH_SHARD, CRASH_REPLICA)
    return {
        "backlog_records": backlog,
        "records_replayed": report.records_replayed,
        "catch_up_ms": round(report.catch_up_ms, 3),
        "digest_match": report.digest_match,
    }


def _linear_fit(xs, ys) -> tuple:
    """Least-squares ``(slope, intercept, r_squared)``."""
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        return 0.0, mean_y, 0.0
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_total = sum((y - mean_y) ** 2 for y in ys)
    ss_residual = sum((y - (slope * x + intercept)) ** 2
                      for x, y in zip(xs, ys))
    r_squared = 1.0 - (ss_residual / ss_total if ss_total else 0.0)
    return slope, intercept, r_squared


def measure_catch_up(web) -> dict:
    """Claims 1 and 2: the backlog sweep, with and without
    checkpoints."""
    no_checkpoint = [_crash_recover(web, docs, checkpoint_every=0)
                     for docs in BACKLOG_SWEEP]
    backlogs = [run["backlog_records"] for run in no_checkpoint]
    catch_ups = [run["catch_up_ms"] for run in no_checkpoint]
    slope, intercept, r_squared = _linear_fit(backlogs, catch_ups)
    checkpointed = _crash_recover(web, BACKLOG_SWEEP[-1],
                                  checkpoint_every=CHECKPOINT_EVERY)
    return {
        "sweep": no_checkpoint,
        "slope_ms_per_record": round(slope, 4),
        "intercept_ms": round(intercept, 3),
        "r_squared": round(r_squared, 6),
        "checkpointed": checkpointed,
        "checkpoint_every": CHECKPOINT_EVERY,
    }


def verdicts(catch_up: dict) -> dict:
    checkpointed = catch_up["checkpointed"]
    full_replay = catch_up["sweep"][-1]
    return {
        "all_recoveries_converged": all(
            run["digest_match"] is True
            for run in catch_up["sweep"] + [checkpointed]
        ),
        "catch_up_linear_in_backlog": (
            catch_up["r_squared"] >= 0.98
            and catch_up["slope_ms_per_record"] > 0
        ),
        "checkpoint_bounds_replay": (
            checkpointed["records_replayed"]
            < catch_up["checkpoint_every"]
            <= full_replay["records_replayed"]
        ),
        "checkpoint_cheaper_than_full_replay": (
            checkpointed["catch_up_ms"] < full_replay["catch_up_ms"]
        ),
    }


def format_artifact(catch_up: dict) -> str:
    checks = verdicts(catch_up)
    ok = all(checks.values())
    lines = [
        "X14 — crash recovery: catch-up bounded by backlog and "
        "checkpoints",
        "",
        "  catch-up vs WAL backlog (no checkpoints past the baseline)",
        "    backlog   replayed   catch-up",
    ]
    for run in catch_up["sweep"]:
        lines.append(
            f"    {run['backlog_records']:>7}   "
            f"{run['records_replayed']:>8}   "
            f"{run['catch_up_ms']:>8.1f} sim ms"
        )
    checkpointed = catch_up["checkpointed"]
    lines += [
        f"    linear fit           : "
        f"{catch_up['slope_ms_per_record']:.3f} ms/record "
        f"+ {catch_up['intercept_ms']:.1f} ms "
        f"(R^2 {catch_up['r_squared']:.4f})",
        "",
        f"  with checkpoints every {catch_up['checkpoint_every']} "
        "records (same largest backlog)",
        f"    records replayed     : "
        f"{checkpointed['records_replayed']}"
        f"  (vs {catch_up['sweep'][-1]['records_replayed']} without)",
        f"    catch-up             : "
        f"{checkpointed['catch_up_ms']:.1f} sim ms"
        f"  (vs {catch_up['sweep'][-1]['catch_up_ms']:.1f} without)",
        "",
    ]
    for name, passed in checks.items():
        lines.append(f"  [{'x' if passed else ' '}] {name}")
    lines += [
        "",
        f"  {'PASS' if ok else 'FAIL'}: recovery is "
        f"{'checkpoint-bounded and linear in backlog' if ok else 'FAILING a claim above'}",
    ]
    return "\n".join(lines)


def test_recovery_bench(bench_web):
    """Pytest entry point: record the artifact, enforce every claim."""
    from benchmarks.conftest import record_artifact

    catch_up = measure_catch_up(bench_web)
    record_artifact("x14_recovery", format_artifact(catch_up))
    checks = verdicts(catch_up)
    assert all(checks.values()), checks

