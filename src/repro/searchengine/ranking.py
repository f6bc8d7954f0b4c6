"""Ranking: BM25 scoring, PageRank link authority, and score blending.

The web vertical blends BM25 text relevance with a link-authority prior;
the news vertical blends BM25 with recency. Both blends are ablatable (see
DESIGN.md §6) by zeroing the respective weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from bisect import bisect_left
from heapq import heapify, heappop
from operator import itemgetter, neg

from repro.searchengine.stats import CorpusStats

__all__ = ["BM25Parameters", "BM25Scorer", "by_score_then_id", "pagerank",
           "recency_boost"]


@dataclass(frozen=True)
class BM25Parameters:
    """Okapi BM25 free parameters plus per-field boosts."""

    k1: float = 1.2
    b: float = 0.75
    field_boosts: dict = field(default_factory=dict)  # field -> multiplier

    def boost(self, field_name: str) -> float:
        return self.field_boosts.get(field_name, 1.0)


def by_score_then_id(entry) -> tuple:
    """Sort key of every ranked list: score descending, then doc id.

    Works on any ``(doc_id, score, ...)`` tuple, so the cluster's heap
    merge orders shard lists by the same key that sorted them.
    """
    return (-entry[1], entry[0])


_SCORE = itemgetter(1)

#: A term's postings are walked while they are fewer than this many
#: times the candidates; past it each candidate is found by bisection.
_WALK = 4


class BM25Scorer:
    """Scores documents of one index for one query's bag of terms.

    Constructed per query. BM25 mixes corpus-wide statistics (document
    count, document frequency, average field length) with per-document
    ones (term frequency, field length): the first come from ``stats``
    — the index's own :class:`CorpusStats` when omitted, the merged
    ones when the index is a shard of a cluster — the second always
    from ``index``. Everything that does not depend on the document is
    resolved here, once; :meth:`rank` only walks postings.
    """

    def __init__(self, index, fields: list[str],
                 params: BM25Parameters | None, terms,
                 stats: CorpusStats | None = None) -> None:
        params = params or BM25Parameters()
        if stats is None:
            stats = CorpusStats.collect(index, fields, terms)
        self._k1, self._b = params.k1, params.b
        # A query with nothing to score (filters only) gives every
        # candidate relevance 1.0, so a blend ranks on the prior alone.
        self._base = 0.0 if terms else 1.0
        # Per scored field: (length by ordinal, average length,
        # [(boost * idf, ordinals, frequencies, lo, hi)] per query term it
        # holds, its postings the [lo, hi) items of the two).
        self._plan = []
        self._ids = index.doc_ids()
        n = stats.doc_count
        for field_name in fields:
            avg_len = stats.average_field_length(field_name)
            if avg_len == 0:
                continue
            boost = params.boost(field_name)
            weighted = []
            for term in terms:
                ords, tfs, lo, hi = index.postings(field_name, term)
                if lo == hi:
                    continue
                df = stats.doc_frequency.get((field_name, term), 0)
                # BM25+ style floor keeps idf positive for common terms.
                idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                weighted.append((boost * idf, ords, tfs, lo, hi))
            if weighted:
                self._plan.append(
                    (index.field_lengths(field_name), avg_len, weighted)
                )

    def rank(self, candidates, prior=None, weight: float = 0.0,
             limit: int | None = None) -> list:
        """The best ``limit`` (all when ``None``) of ``candidates``, a
        set of ordinals, as ``[(doc_id, score)]``, score desc then doc
        id.

        Term-at-a-time: each (field, term) adds its BM25 contribution to
        one accumulator, fields outer and terms inner, so every document's
        sum is added in one fixed order. ``prior`` maps ``doc_id`` to a
        value in [0, 1] (absent ids read 0.0); with it the ranked score
        is ``relevance * (1.0 + weight * prior[doc_id])``.
        """
        acc = dict.fromkeys(candidates, self._base)
        size = len(acc)
        if not size:
            return []
        k1, b = self._k1, self._b
        k1_plus = k1 + 1.0
        one_minus_b = 1.0 - b
        for lengths, avg_len, weighted in self._plan:
            for term_weight, ords, tfs, lo, hi in weighted:
                # Walk the postings unless they are several times the
                # candidates; then find each candidate by bisection.
                if hi - lo < _WALK * size:
                    for ordinal, tf in zip(ords[lo:hi], tfs[lo:hi]):
                        if ordinal in acc:
                            norm = k1 * (one_minus_b
                                         + b * lengths[ordinal] / avg_len)
                            acc[ordinal] += term_weight * (
                                tf * k1_plus / (tf + norm))
                else:
                    for ordinal in acc:
                        i = bisect_left(ords, ordinal, lo, hi)
                        if i < hi and ords[i] == ordinal:
                            tf = tfs[i]
                            norm = k1 * (one_minus_b
                                         + b * lengths[ordinal] / avg_len)
                            acc[ordinal] += term_weight * (
                                tf * k1_plus / (tf + norm))
        ids = self._ids
        if limit is None or limit >= size:
            if prior is not None:
                get = prior.get
                for ordinal, relevance in acc.items():
                    acc[ordinal] = relevance * (
                        1.0 + weight * get(ids[ordinal], 0.0))
            # Stable sorts by id, then by score desc: by_score_then_id.
            ranked = sorted(zip(map(ids.__getitem__, acc), acc.values()))
            ranked.sort(key=_SCORE, reverse=True)
            return ranked
        # Bounded: heapify (-score, ordinal) and pop ``limit``, then every
        # entry tied with the last; only those are ordered by
        # (-score, doc id), by_score_then_id's order. Negation is exact,
        # so the blend folds in bit for bit.
        if prior is None:
            keyed = list(zip(map(neg, acc.values()), acc))
        else:
            get = prior.get
            keyed = [(-relevance * (1.0 + weight * get(ids[ordinal], 0.0)),
                      ordinal)
                     for ordinal, relevance in acc.items()]
        heapify(keyed)
        top = list(map(heappop, [keyed] * limit))
        while top and keyed and keyed[0][0] == top[-1][0]:
            top.append(heappop(keyed))
        selected = sorted([(negated, ids[ordinal])
                           for negated, ordinal in top])
        return [(doc_id, -negated) for negated, doc_id in selected[:limit]]


def pagerank(graph: dict, damping: float = 0.85,
             iterations: int = 40, tolerance: float = 1e-9) -> dict:
    """Power-iteration PageRank over an adjacency dict ``node -> [targets]``.

    Dangling nodes redistribute uniformly. Returns a probability
    distribution over all nodes appearing as keys or targets.
    """
    nodes = set(graph)
    for targets in graph.values():
        nodes.update(targets)
    if not nodes:
        return {}
    ordered = sorted(nodes)
    n = len(ordered)
    rank = {node: 1.0 / n for node in ordered}
    out_degree = {node: len(graph.get(node, [])) for node in ordered}
    for _ in range(iterations):
        dangling_mass = sum(
            rank[node] for node in ordered if out_degree[node] == 0
        )
        next_rank = {
            node: (1.0 - damping) / n + damping * dangling_mass / n
            for node in ordered
        }
        for node in ordered:
            targets = graph.get(node, [])
            if not targets:
                continue
            share = damping * rank[node] / len(targets)
            for target in targets:
                next_rank[target] += share
        delta = sum(abs(next_rank[node] - rank[node]) for node in ordered)
        rank = next_rank
        if delta < tolerance:
            break
    return rank


def recency_boost(published_ms: int, now_ms: int,
                  half_life_days: float = 30.0) -> float:
    """Exponential-decay freshness in (0, 1]; 1.0 for just-published."""
    if published_ms <= 0:
        return 0.0
    age_days = max(0.0, (now_ms - published_ms) / 86_400_000.0)
    return 0.5 ** (age_days / half_life_days)
