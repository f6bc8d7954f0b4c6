"""Faceted counts over keyword fields.

Specialized sites live and die by facets ("results by site / topic /
year"); the designer uses them to understand a source's distribution
before configuring restrictions, and applications can display them next
to results. Facets are computed over the *full* candidate set of a
query, not just the returned page.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError
from repro.searchengine.engine import SearchOptions, evaluate_candidates
from repro.searchengine.query import parse_query

__all__ = ["FacetCount", "FacetResult", "compute_facets"]


@dataclass(frozen=True)
class FacetCount:
    value: str
    count: int


@dataclass(frozen=True)
class FacetResult:
    field: str
    counts: tuple  # FacetCount, descending by count then value

    def top(self, n: int = 5) -> list:
        return list(self.counts[:n])

    @classmethod
    def of(cls, field_name: str, buckets: dict) -> "FacetResult":
        """The result for ``{value: count}`` buckets."""
        return cls(field_name, tuple(
            FacetCount(value, count)
            for value, count in sorted(
                buckets.items(), key=lambda pair: (-pair[1], pair[0]))))


def compute_facets(vindex, query_text: str, facet_fields) -> dict:
    """Facet counts for ``query_text`` over the given keyword fields.

    The candidates are the ones a search of the vertical ``vindex``
    (a :class:`~repro.searchengine.engine.VerticalIndex`) would rank.
    Returns ``{field: FacetResult}``. Facet fields must be stored on
    documents (keyword or plain); values are bucketed verbatim
    (lowercased), missing values land in ``"(none)"``.
    """
    if not facet_fields:
        raise QueryError("no facet fields requested")
    candidates = evaluate_candidates(vindex, parse_query(query_text),
                                     SearchOptions(), 0)
    stored = vindex.index.stored
    results = {}
    for field_name in facet_fields:
        buckets: dict[str, int] = {}
        for ordinal in candidates:
            raw = stored(ordinal).fields.get(field_name)
            value = (str(raw).lower() if raw not in (None, "")
                     else "(none)")
            buckets[value] = buckets.get(value, 0) + 1
        results[field_name] = FacetResult.of(field_name, buckets)
    return results
