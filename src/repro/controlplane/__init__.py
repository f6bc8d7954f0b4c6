"""``repro.controlplane`` — online resharding and autoscaling.

The cluster (:mod:`repro.cluster`) serves queries over a fixed layout;
this package changes that layout *live*. A
:class:`~repro.controlplane.lifecycle.ShardLifecycleManager` performs
online shard splits and merges — batched document handoff, dual writes
whose copies are read only on their owner, and an atomic route-map
cutover that also bumps the gateway's ``cluster-topology`` cache
generation — and a
:class:`~repro.controlplane.autoscaler.Autoscaler` closes the loop,
turning the cluster's own per-shard latency telemetry into replica and
topology decisions with hysteresis and cooldown.

Wire it with ``Symphony(..., cluster=..., telemetry=True,
controlplane=True)``, or drive it directly against a
:class:`~repro.cluster.engine.ClusteredSearchEngine`.
"""

from repro.controlplane.autoscaler import (
    AutoscaleDecision,
    Autoscaler,
    AutoscalerPolicy,
)
from repro.controlplane.lifecycle import (
    CLEANUP,
    COMPLETE,
    COPY,
    CUTOVER,
    Migration,
    ShardLifecycleManager,
)

__all__ = [
    "Autoscaler",
    "AutoscaleDecision",
    "AutoscalerPolicy",
    "Migration",
    "ShardLifecycleManager",
    "COPY",
    "CUTOVER",
    "CLEANUP",
    "COMPLETE",
]
