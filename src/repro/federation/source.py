"""FederatedSearchSource: federation as a drag-onto-canvas data source.

Wraps a :class:`~repro.federation.executor.FederationExecutor` in the
core ``DataSource`` contract so the designer can bind a federated
meta-search to an application exactly like any single-engine vertical.
The runtime's deadline rides in through ``query.context`` and the
``degraded`` flag propagates partial fusion to the response trace.

``generation_keys`` is what the runtime's and the gateway's caches call
to stamp a cached federated result with the generation of *every*
backend the query can touch — re-ingest on any one of them invalidates
mid-TTL.
"""

from __future__ import annotations

from repro.core.datasources import (
    DataSource,
    SourceItem,
    SourceKind,
    SourceQuery,
    SourceResult,
)

__all__ = ["FederatedSearchSource"]


class FederatedSearchSource(DataSource):
    """A meta-search over a subset of the executor's backend registry."""

    def __init__(self, source_id: str, name: str, executor,
                 backend_ids: tuple = (), fusion: str = "",
                 query_strategy: str = "") -> None:
        super().__init__(source_id, name, SourceKind.FEDERATED)
        self._executor = executor
        # () federates over every registered backend, resolved per query
        # so late registrations are picked up.
        self.backend_ids = tuple(backend_ids)
        self.fusion = fusion
        self.query_strategy = query_strategy

    @property
    def executor(self):
        return self._executor

    def fields(self) -> list[str]:
        return ["title", "url", "snippet", "site", "backends",
                "fused_score"]

    def describe(self) -> dict:
        described = super().describe()
        described["backends"] = list(
            self.backend_ids or self._executor.registry.ids()
        )
        described["fusion"] = self.fusion \
            or self._executor.policy.fusion
        return described

    def generation_keys(self) -> tuple:
        """Union of generation keys across every backend this source
        can touch."""
        ids = self.backend_ids or None
        return self._executor.registry.generation_keys(ids)

    def search(self, query: SourceQuery) -> SourceResult:
        result = self._executor.search(
            query.text,
            backend_ids=self.backend_ids or None,
            count=query.offset + query.count,
            deadline=query.context.get("deadline"),
            context=query.context,
            strategy=self.query_strategy
            or query.context.get("query_strategy", ""),
            fusion=self.fusion,
        )
        window = result.items[query.offset:query.offset + query.count]
        items = tuple(
            SourceItem(
                item_id=fused.url,
                title=fused.title,
                url=fused.url,
                snippet=fused.snippet,
                score=fused.fused_score,
                fields={
                    "site": fused.site,
                    "backends": ",".join(fused.backends),
                    "fused_score": fused.fused_score,
                    **fused.fields,
                },
            )
            for fused in window
        )
        return SourceResult(
            self.source_id, items, result.total_matches,
            degraded=bool(result.degraded),
        )
