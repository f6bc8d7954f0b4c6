"""``repro.cluster`` — sharded, replicated search-index cluster.

Document-partitioned shards, N-way replica groups with health tracking
and failover, parallel scatter-gather query execution under
corpus-wide statistics the coordinator caches per vertical (one
round for a query whose terms it has seen), and a facade that is a
drop-in replacement for the single-node
:class:`~repro.searchengine.engine.SearchEngine`.
"""

from repro.cluster.engine import (
    ClusterConfig,
    ClusteredSearchEngine,
    ClusterSearchResponse,
    build_clustered_engine,
)
from repro.cluster.executor import (
    ScatterGatherExecutor,
    ShardOutcome,
    merge_ranked,
)
from repro.cluster.replica import IndexState, ReplicaGroup, ShardReplica
from repro.cluster.sharding import (
    HASH_SPACE,
    RouteMap,
    ShardRange,
    ShardRouter,
    route_hash,
)

__all__ = [
    "HASH_SPACE",
    "RouteMap",
    "ShardRange",
    "route_hash",
    "ClusterConfig",
    "ClusterSearchResponse",
    "ClusteredSearchEngine",
    "build_clustered_engine",
    "ScatterGatherExecutor",
    "ShardOutcome",
    "merge_ranked",
    "IndexState",
    "ReplicaGroup",
    "ShardReplica",
    "ShardRouter",
]
