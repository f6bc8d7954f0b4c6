"""repro.federation — federated meta-search with rank fusion.

A lab beside the platform, which the platform itself does not know: one
query fanned across heterogeneous backends — the local (clustered)
engine and the Table I baseline platforms through their own facades —
with the results normalized into one schema, URL-deduplicated, and
rank-fused (RRF / CombSUM / CombMNZ). Fan-out runs under the resilience
layer's deadlines and retries, degrading to partial fusion when a
backend fails. The query-generator lab
(:mod:`repro.federation.querygen`) phrases the query per backend —
keyword, fielded, entity-expanded — and keeps per-strategy
precision/cost ledgers, after Endrullis et al.'s generator evaluation.
:meth:`FederationExecutor.for_platform` builds the executor over a
platform's engine; ``repro federation`` and bench X12 drive it.
"""

from repro.federation.executor import (
    BackendOutcome,
    FederationExecutor,
    FederationPolicy,
    FederationResult,
)
from repro.federation.fusion import (
    FUSION_METHODS,
    FederatedItem,
    FusedItem,
    comb_mnz,
    comb_sum,
    fuse,
    reciprocal_rank_fusion,
)
from repro.federation.querygen import (
    STRATEGY_NAMES,
    EntityExpandedGenerator,
    FieldedGenerator,
    KeywordGenerator,
    QueryGenerator,
    QueryGeneratorLab,
    StrategyStats,
    get_generator,
)
from repro.federation.registry import (
    Backend,
    BackendRegistry,
    EngineBackend,
    baseline_backend,
)

__all__ = [
    "FUSION_METHODS",
    "STRATEGY_NAMES",
    "Backend",
    "BackendOutcome",
    "BackendRegistry",
    "EngineBackend",
    "EntityExpandedGenerator",
    "FederatedItem",
    "FederationExecutor",
    "FederationPolicy",
    "FederationResult",
    "FieldedGenerator",
    "FusedItem",
    "KeywordGenerator",
    "QueryGenerator",
    "QueryGeneratorLab",
    "StrategyStats",
    "baseline_backend",
    "comb_mnz",
    "comb_sum",
    "fuse",
    "get_generator",
    "reciprocal_rank_fusion",
]
