"""Scatter-gather over shards.

Runs one task per shard, in task order, on the calling thread —
isolating each shard's failure into its outcome — and merges the
shards' already-sorted result lists with a heap so gathering top-k
costs O(k log num_shards), not a global re-sort.  Shards are parallel
only in the *simulated* cost model (the engine charges the slowest
shard to the sim clock); nothing here starts a thread or reads real
time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ReproError
from repro.searchengine.ranking import by_score_then_id

__all__ = ["ShardOutcome", "ScatterGatherExecutor", "merge_ranked"]


@dataclass
class ShardOutcome:
    """The result (or failure) of one shard's task."""

    shard_id: int
    value: object = None
    error: ReproError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class ScatterGatherExecutor:
    """Runs shard tasks one after another, isolating failures."""

    def scatter(self, tasks: dict) -> dict:
        """Run ``{shard_id: thunk}`` in dict order on the calling thread.

        Returns ``{shard_id: ShardOutcome}``; a thunk that raises a
        :class:`~repro.errors.ReproError` (every injected or simulated
        fault is one) yields a failed outcome instead of propagating, so
        one dead shard cannot fail the query and later shards still run.
        Any other exception is a bug and propagates.  Spans opened
        inside a thunk parent under the caller's current span.
        """
        outcomes: dict[int, ShardOutcome] = {}
        for shard_id, thunk in tasks.items():
            try:
                outcomes[shard_id] = ShardOutcome(shard_id, value=thunk())
            except ReproError as exc:
                outcomes[shard_id] = ShardOutcome(shard_id, error=exc)
        return outcomes


def merge_ranked(shard_lists: dict):
    """Heap-merge per-shard ``[(doc_id, score)]`` lists.

    Each input list must already be ordered by (score desc, doc_id) —
    the order :func:`repro.searchengine.engine.rank_candidates`
    produces. Yields ``(doc_id, score, shard_id)`` in that same global
    order; consume lazily (e.g. ``islice``) for top-k.
    """
    def tag(scored, shard_id):
        for doc_id, score in scored:
            yield doc_id, score, shard_id

    return heapq.merge(
        *(tag(scored, shard_id)
          for shard_id, scored in shard_lists.items()),
        key=by_score_then_id,
    )
