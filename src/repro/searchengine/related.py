"""Related-searches mining from the query log.

The "searches related to ..." strip under a result list. Two signals,
blended: queries sharing analyzed terms with the input (content
similarity via Jaccard over term sets), and queries issued in the same
sessions (behavioural co-occurrence). Frequency breaks ties so popular
reformulations surface first.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.searchengine.analysis import Analyzer

__all__ = ["RelatedSearch", "RelatedSearches"]


@dataclass(frozen=True)
class RelatedSearch:
    query: str
    score: float
    shared_terms: int


class RelatedSearches:
    """Builds its model once from a log; ``related(query)`` is cheap."""

    def __init__(self, log, analyzer: Analyzer | None = None,
                 session_weight: float = 0.5) -> None:
        self._analyzer = analyzer or Analyzer()
        self._session_weight = session_weight
        self._term_sets: dict[str, frozenset] = {}
        self._frequency: dict[str, int] = {}
        self._by_session: dict[str, set] = {}
        for event in log.queries:
            key = event.query.strip().lower()
            if not key:
                continue
            if key not in self._term_sets:
                self._term_sets[key] = frozenset(
                    self._analyzer.analyze(key)
                )
            self._frequency[key] = self._frequency.get(key, 0) + 1
            if event.session_id:
                self._by_session.setdefault(
                    event.session_id, set()
                ).add(key)
        # query -> set of queries co-issued in some session
        self._cooccurring: dict[str, set] = {}
        for queries in self._by_session.values():
            for query in queries:
                self._cooccurring.setdefault(query, set()).update(
                    q for q in queries if q != query
                )

    def related(self, query_text: str,
                count: int = 5) -> list[RelatedSearch]:
        """Related past queries for ``query_text``, best first."""
        key = query_text.strip().lower()
        terms = frozenset(self._analyzer.analyze(key))
        session_neighbors = self._cooccurring.get(key, set())
        max_frequency = max(self._frequency.values(), default=1)
        scored = []
        for candidate, candidate_terms in self._term_sets.items():
            if candidate == key:
                continue
            union = terms | candidate_terms
            overlap = len(terms & candidate_terms)
            jaccard = overlap / len(union) if union else 0.0
            session_bonus = (self._session_weight
                             if candidate in session_neighbors else 0.0)
            if jaccard == 0.0 and session_bonus == 0.0:
                continue
            popularity = self._frequency[candidate] / max_frequency
            score = jaccard + session_bonus + 0.1 * popularity
            scored.append(RelatedSearch(
                query=candidate,
                score=round(score, 6),
                shared_terms=overlap,
            ))
        scored.sort(key=lambda r: (-r.score, r.query))
        return scored[:count]
