"""Experiment X3 — cluster scatter-gather scaling and fault tolerance.

The clustered engine partitions each vertical across shards and fans a
query out in parallel, so the simulated per-query latency is driven by
the *largest* shard's candidate set instead of the whole corpus. This
bench regenerates two artifacts:

* per-query simulated latency vs shard count (1/2/4/8) over a mixed
  query workload — latency must fall as shards are added;
* a replica-kill run: with every replica of one shard dead, queries
  complete with ``degraded=True`` partial results instead of raising.
"""

import pytest

from repro.cluster import ClusterConfig, build_clustered_engine
from repro.searchengine.engine import build_engine

from benchmarks.conftest import record_artifact

SHARD_COUNTS = (1, 2, 4, 8)


def workload(web):
    games = web.entities["video_games"][:3]
    return [*games, "wine tasting notes", "review", "news update"]


@pytest.fixture(scope="module")
def clusters(bench_web):
    return {
        n: build_clustered_engine(
            bench_web, ClusterConfig(num_shards=n, replicas_per_shard=1)
        )
        for n in SHARD_COUNTS
    }


def test_latency_vs_shard_count(benchmark, bench_web, clusters):
    single = build_engine(bench_web)
    queries = workload(bench_web)

    def sweep():
        costs = {
            0: sum(single.search("web", q).elapsed_ms for q in queries)
        }
        for n, cluster in clusters.items():
            costs[n] = sum(
                cluster.search("web", q).elapsed_ms for q in queries
            )
        return {n: total / len(queries) for n, total in costs.items()}

    costs = benchmark.pedantic(sweep, rounds=3, iterations=1)

    lines = [
        "Per-query simulated latency vs shard count "
        f"({len(queries)}-query mixed workload, web vertical)",
        f"{'shards':>7} {'avg_ms':>8} {'speedup':>8}",
    ]
    baseline = costs[0]
    for n in sorted(costs):
        label = "1 (mono)" if n == 0 else str(n)
        lines.append(f"{label:>7} {costs[n]:>8.2f} "
                     f"{baseline / costs[n]:>7.2f}x")
    record_artifact("x3_cluster_shard_scaling", "\n".join(lines))

    # A 1-shard cluster pays the same bill as the single-node engine...
    assert costs[1] == pytest.approx(costs[0], rel=0.01)
    # ...and latency drops monotonically as shards are added, because
    # the per-shard candidate scan shrinks while the base cost is paid
    # once (max over shards, not sum).
    ordered = [costs[n] for n in SHARD_COUNTS]
    assert ordered == sorted(ordered, reverse=True)
    assert costs[8] < costs[1]


def test_replica_kill_degrades_gracefully(bench_web):
    cluster = build_clustered_engine(
        bench_web, ClusterConfig(num_shards=4, replicas_per_shard=2)
    )
    queries = workload(bench_web)
    healthy_totals = {
        q: cluster.search("web", q).total_matches for q in queries
    }

    lines = ["Replica-kill fault run (4 shards x 2 replicas)"]

    # One replica down: failover inside the group, full results.
    cluster.kill_replica(0, 0)
    one_down = [cluster.search("web", q) for q in queries]
    assert all(not r.degraded for r in one_down)
    assert [r.total_matches for r in one_down] == \
        [healthy_totals[q] for q in queries]
    lines.append("kill shard-0/replica-0     -> degraded=False, "
                 "failover served full results")

    # The whole shard down: partial results, flagged, no exception.
    cluster.kill_replica(0, 1)
    for query in queries:
        response = cluster.search("web", query)
        assert response.degraded
        assert response.failed_shards == (0,)
        assert response.shards_ok == 3
        assert response.total_matches <= healthy_totals[query]
        lines.append(
            f"kill shard-0 entirely      -> degraded=True  "
            f"{response.total_matches:>3}/{healthy_totals[query]:>3}"
            f" matches  {query!r}"
        )

    # Revive one replica: service is whole again.
    cluster.revive_replica(0, 1)
    revived = cluster.search("web", queries[0])
    assert not revived.degraded
    assert revived.total_matches == healthy_totals[queries[0]]
    lines.append("revive shard-0/replica-1   -> degraded=False, "
                 "full results restored")

    record_artifact("x3_cluster_replica_kill", "\n".join(lines))
