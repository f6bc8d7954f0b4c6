"""Linear-scan answer check.

Recomputes a query's match set without the index: every document's
token sets come from the public :class:`Analyzer` (memoised per token,
which is equivalent because analysis is per-token), and term / AND /
OR / ``site:`` queries are evaluated by scanning them. Phrase queries
are outside its scope and answer ``None``.
"""

from __future__ import annotations

from repro.searchengine.analysis import Analyzer, tokenize
from repro.searchengine.query import (
    AndNode,
    FilterNode,
    OrNode,
    TermNode,
    parse_query,
)

__all__ = ["ScanOracle"]


class ScanOracle:
    """Match sets over ``{doc_id: (site, [text of each searched field])}``."""

    def __init__(self, documents: dict) -> None:
        self._analyzer = Analyzer()
        self._memo: dict[str, tuple] = {}
        self._sites = {doc_id: site.lower()
                       for doc_id, (site, _) in documents.items()}
        self._tokens = {
            doc_id: frozenset(
                term for text in texts for token in tokenize(text)
                for term in self._terms(token))
            for doc_id, (_, texts) in documents.items()
        }

    def _terms(self, token: str) -> tuple:
        terms = self._memo.get(token)
        if terms is None:
            terms = self._memo[token] = tuple(
                self._analyzer.analyze(token))
        return terms

    def matches(self, query_text: str):
        """Doc ids matching ``query_text``, or ``None`` when the query
        uses syntax the scan does not cover."""
        return self._eval(parse_query(query_text))

    def _eval(self, node):
        if isinstance(node, TermNode):
            terms = [term for token in tokenize(node.text)
                     for term in self._terms(token)]
            return {doc_id for doc_id, tokens in self._tokens.items()
                    if any(term in tokens for term in terms)}
        if isinstance(node, FilterNode) and node.field == "site":
            value = node.value.lower()
            return {doc_id for doc_id, site in self._sites.items()
                    if site == value}
        if isinstance(node, (AndNode, OrNode)):
            parts = [self._eval(child) for child in node.children]
            if any(part is None for part in parts):
                return None
            if isinstance(node, AndNode):
                return set.intersection(*parts)
            return set.union(*parts)
        return None
