"""Positional inverted index with per-field postings.

Supports incremental adds and deletes, text fields (analyzed, positional)
and keyword fields (exact match), and exposes the statistics BM25 needs
(document frequency, term frequency, field lengths).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DuplicateError, NotFoundError
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument, FieldMode

__all__ = ["InvertedIndex", "Posting"]


@dataclass(frozen=True)
class Posting:
    """Occurrences of one term in one document's field."""

    doc_id: str
    positions: tuple[int, ...]

    @property
    def term_frequency(self) -> int:
        return len(self.positions)


class InvertedIndex:
    """A multi-field positional inverted index.

    ``field_modes`` fixes which fields are analyzed text vs exact keywords;
    fields not listed default to TEXT. All structures are plain dicts so
    behaviour is easy to audit and deterministic to iterate (insertion
    order).
    """

    def __init__(self, analyzer: Analyzer | None = None,
                 field_modes: dict | None = None) -> None:
        self.analyzer = analyzer or Analyzer()
        self.field_modes = dict(field_modes or {})
        # postings[field][term] -> {doc_id: Posting}
        self._postings: dict[str, dict[str, dict[str, Posting]]] = {}
        # keyword[field][value] -> set of doc ids
        self._keyword: dict[str, dict[str, set]] = {}
        self._docs: dict[str, FieldedDocument] = {}
        self._field_lengths: dict[str, dict[str, int]] = {}
        self._total_field_length: dict[str, int] = {}
        #: Bumped by every add / remove; whatever is derived from the
        #: index's contents compares it to know it went stale.
        self.mutations = 0

    # -- lifecycle -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def add(self, document: FieldedDocument) -> None:
        """Index ``document``; raises :class:`DuplicateError` on id reuse."""
        if document.doc_id in self._docs:
            raise DuplicateError(f"document already indexed: "
                                 f"{document.doc_id}")
        self._docs[document.doc_id] = document
        self.mutations += 1
        for name, value in document.fields.items():
            if value is None:
                continue
            mode = self.field_modes.get(name, FieldMode.TEXT)
            if mode == FieldMode.KEYWORD:
                self._add_keyword(name, str(value), document.doc_id)
            else:
                self._add_text(name, str(value), document.doc_id)

    def upsert(self, document: FieldedDocument) -> None:
        """Replace any existing document with the same id, then add."""
        if document.doc_id in self._docs:
            self.remove(document.doc_id)
        self.add(document)

    def remove(self, doc_id: str) -> None:
        if doc_id not in self._docs:
            raise NotFoundError(f"document not indexed: {doc_id}")
        del self._docs[doc_id]
        self.mutations += 1
        for term_map in self._postings.values():
            empty_terms = []
            for term, by_doc in term_map.items():
                by_doc.pop(doc_id, None)
                if not by_doc:
                    empty_terms.append(term)
            for term in empty_terms:
                del term_map[term]
        for value_map in self._keyword.values():
            for docs in value_map.values():
                docs.discard(doc_id)
        for name, lengths in self._field_lengths.items():
            length = lengths.pop(doc_id, 0)
            self._total_field_length[name] -= length

    # -- ingestion internals --------------------------------------------------

    def _add_text(self, name: str, value: str, doc_id: str) -> None:
        tokens = self.analyzer.analyze_with_positions(value)
        by_term: dict[str, list[int]] = {}
        for term, position in tokens:
            by_term.setdefault(term, []).append(position)
        term_map = self._postings.setdefault(name, {})
        for term, positions in by_term.items():
            term_map.setdefault(term, {})[doc_id] = Posting(
                doc_id, tuple(positions)
            )
        lengths = self._field_lengths.setdefault(name, {})
        lengths[doc_id] = len(tokens)
        self._total_field_length[name] = (
            self._total_field_length.get(name, 0) + len(tokens)
        )

    def _add_keyword(self, name: str, value: str, doc_id: str) -> None:
        value_map = self._keyword.setdefault(name, {})
        value_map.setdefault(value.lower(), set()).add(doc_id)

    # -- lookups ---------------------------------------------------------------

    def document(self, doc_id: str) -> FieldedDocument:
        try:
            return self._docs[doc_id]
        except KeyError:
            raise NotFoundError(f"document not indexed: {doc_id}") from None

    def all_doc_ids(self) -> set:
        return set(self._docs)

    def postings(self, name: str, term: str) -> dict[str, Posting]:
        """Postings for an *already analyzed* term in a text field."""
        return self._postings.get(name, {}).get(term, {})

    def keyword_matches(self, name: str, value: str) -> set:
        return set(self._keyword.get(name, {}).get(value.lower(), set()))

    def document_frequency(self, name: str, term: str) -> int:
        return len(self.postings(name, term))

    def field_lengths(self, name: str) -> dict[str, int]:
        """Analyzed token count per doc id of one text field (live view)."""
        return self._field_lengths.get(name, {})

    def field_length(self, name: str, doc_id: str) -> int:
        return self.field_lengths(name).get(doc_id, 0)

    def average_field_length(self, name: str) -> float:
        lengths = self._field_lengths.get(name)
        if not lengths:
            return 0.0
        return self._total_field_length.get(name, 0) / len(lengths)

    def total_field_length(self, name: str) -> int:
        """Sum of analyzed token counts across all docs with the field."""
        return self._total_field_length.get(name, 0)

    def field_doc_count(self, name: str) -> int:
        """How many documents carry the (text) field ``name``."""
        return len(self._field_lengths.get(name, {}))

    def term_frequencies(self, name: str) -> dict[str, int]:
        """Document frequency per term of one text field (copied)."""
        term_map = self._postings.get(name, {})
        return {term: len(by_doc) for term, by_doc in term_map.items()}

    def text_fields(self) -> list[str]:
        return sorted(self._postings)

    def keyword_fields(self) -> list[str]:
        return sorted(self._keyword)

    def vocabulary_size(self, name: str) -> int:
        return len(self._postings.get(name, {}))

    # -- phrase support ----------------------------------------------------------

    def phrase_matches(self, name: str, terms: list[str]) -> set:
        """Doc ids where ``terms`` appear consecutively in field ``name``.

        Consecutive means adjacent positions in the analyzed stream, which
        tolerates removed stopwords between the words of the original text.
        """
        if not terms:
            return set()
        if len(terms) == 1:
            return set(self.postings(name, terms[0]))
        candidate_postings = [self.postings(name, term) for term in terms]
        if not all(candidate_postings):
            return set()
        docs = set(candidate_postings[0])
        for by_doc in candidate_postings[1:]:
            docs &= set(by_doc)
        matched = set()
        for doc_id in docs:
            first_positions = set(candidate_postings[0][doc_id].positions)
            for start in sorted(first_positions):
                if self._phrase_at(candidate_postings, doc_id, start):
                    matched.add(doc_id)
                    break
        return matched

    @staticmethod
    def _phrase_at(candidate_postings, doc_id, start) -> bool:
        expected = start
        for by_doc in candidate_postings[1:]:
            positions = by_doc[doc_id].positions
            following = [p for p in positions if p > expected]
            if not following or min(following) > expected + 2:
                # Allow one stopword-sized gap between consecutive terms.
                return False
            expected = min(following)
        return True
