"""Positional inverted index with per-field postings.

Supports incremental adds and deletes, text fields (analyzed, positional)
and keyword fields (exact match), and exposes the statistics BM25 needs
(document frequency, term frequency, field lengths).
"""

from __future__ import annotations

from repro.errors import DuplicateError, NotFoundError
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument, FieldMode

__all__ = ["InvertedIndex", "POSITIONS_MEMO_SIZE"]

_NO_DOCS: frozenset = frozenset()

#: Most distinct position tuples :data:`_POSITIONS_MEMO` shares. Once it
#: is full, new tuples are stored unshared; nothing is ever evicted, so a
#: shared value never changes. A few MB at worst, and far more than the
#: distinct position lists of a corpus, which are mostly short.
POSITIONS_MEMO_SIZE = 65_536

#: Each position tuple filed so far, mapped to itself: equal tuples
#: become one object across terms, fields, documents, shards, replicas
#: and tenant tables. One per process; never persisted.
_POSITIONS_MEMO: dict[tuple, tuple] = {}


def _shared(positions: tuple) -> tuple:
    """The memo's copy of ``positions``, filing it there while there is
    room. A lost race between two threads files an equal tuple twice,
    which costs sharing, never correctness."""
    shared = _POSITIONS_MEMO.get(positions)
    if shared is not None:
        return shared
    if len(_POSITIONS_MEMO) < POSITIONS_MEMO_SIZE:
        _POSITIONS_MEMO[positions] = positions
    return positions


def _filed(value):
    """What the index files of a field value: its ``str``, or nothing
    for ``None``."""
    return None if value is None else str(value)


def _changed(fields: dict, other: dict) -> dict:
    """The entries of ``fields`` that ``other`` files differently; an
    absent field files as ``None`` does."""
    return {name: value for name, value in fields.items()
            if _filed(value) != _filed(other.get(name))}


class InvertedIndex:
    """A multi-field positional inverted index.

    ``field_modes`` fixes which fields are analyzed text vs exact keywords;
    fields not listed default to TEXT. All structures are plain dicts so
    behaviour is easy to audit and deterministic to iterate (insertion
    order).

    Precondition: a :class:`FieldedDocument`'s ``fields`` are not mutated
    after :meth:`add`. :meth:`remove` and :meth:`upsert` keep no
    per-document term list; they re-analyze the stored field values to
    find the document's postings, so they must still be the values that
    were indexed.
    """

    def __init__(self, analyzer: Analyzer | None = None,
                 field_modes: dict | None = None) -> None:
        self.analyzer = analyzer or Analyzer()
        self.field_modes = dict(field_modes or {})
        # postings[field][term] -> {doc_id: sorted positions}; the term
        # frequency is the tuple's length
        self._postings: dict[str, dict[str, dict[str, tuple]]] = {}
        # keyword[field][value] -> set of doc ids
        self._keyword: dict[str, dict[str, set]] = {}
        self._docs: dict[str, FieldedDocument] = {}
        self._field_lengths: dict[str, dict[str, int]] = {}
        self._total_field_length: dict[str, int] = {}
        #: Bumped by every add / upsert / remove; whatever is derived
        #: from the index's contents compares it to know it went stale.
        self.mutations = 0

    # -- lifecycle -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def add(self, document: FieldedDocument) -> None:
        """Index ``document``; raises :class:`DuplicateError` on id reuse."""
        doc_id = document.doc_id
        if doc_id in self._docs:
            raise DuplicateError(f"document already indexed: {doc_id}")
        self._docs[doc_id] = document
        self.mutations += 1
        self._file(doc_id, document.fields)

    def upsert(self, document: FieldedDocument) -> None:
        """Index ``document``, replacing any stored under its id.

        A new id is an :meth:`add`. For a stored one only the fields
        whose filed value changed are taken out and filed again: those
        absent or ``None`` on exactly one side, or whose ``str`` differs
        (``1``, ``1.0`` and ``True`` are equal but file differently).
        The rest keep their postings, keyword entries and lengths. The
        stored document is replaced and ``mutations`` bumped once.
        """
        doc_id = document.doc_id
        stored = self._docs.get(doc_id)
        if stored is None:
            self.add(document)
            return
        self._docs[doc_id] = document
        self.mutations += 1
        before, after = stored.fields, document.fields
        self._unfile(doc_id, _changed(before, after))
        self._file(doc_id, _changed(after, before))

    def remove(self, doc_id: str) -> None:
        """Take ``doc_id`` out; raises :class:`NotFoundError` if absent.

        O(terms of the removed document): the stored document is
        re-analyzed and only the buckets it is filed under are touched.
        A term, keyword value or field whose last document leaves is
        deleted, so the index is a function of the documents in it.
        """
        document = self._docs.pop(doc_id, None)
        if document is None:
            raise NotFoundError(f"document not indexed: {doc_id}")
        self.mutations += 1
        self._unfile(doc_id, document.fields)

    # -- ingestion internals --------------------------------------------------

    def _file(self, doc_id: str, fields: dict) -> None:
        """File ``doc_id`` under what ``fields`` holds."""
        keywords, texts = self._entries(fields)
        for name, value in keywords:
            value_map = self._keyword.setdefault(name, {})
            value_map.setdefault(value, set()).add(doc_id)
        for name, by_term, length in texts:
            term_map = self._postings.setdefault(name, {})
            for term, positions in by_term.items():
                term_map.setdefault(term, {})[doc_id] = _shared(
                    tuple(positions))
            self._field_lengths.setdefault(name, {})[doc_id] = length
            self._total_field_length[name] = (
                self._total_field_length.get(name, 0) + length
            )

    def _unfile(self, doc_id: str, fields: dict) -> None:
        """Take ``doc_id`` out of what ``fields`` filed it under."""
        keywords, texts = self._entries(fields)
        for name, value in keywords:
            value_map = self._keyword[name]
            docs = value_map[value]
            docs.remove(doc_id)
            if not docs:
                del value_map[value]
                if not value_map:
                    del self._keyword[name]
        for name, by_term, length in texts:
            term_map = self._postings[name]
            for term in by_term:
                by_doc = term_map[term]
                del by_doc[doc_id]
                if not by_doc:
                    del term_map[term]
            lengths = self._field_lengths[name]
            del lengths[doc_id]
            self._total_field_length[name] -= length
            if not lengths:
                del self._postings[name]
                del self._field_lengths[name]
                del self._total_field_length[name]

    def _entries(self, fields: dict) -> tuple[list, list]:
        """What ``fields`` are filed under: ``(keywords, texts)``.

        ``keywords`` holds ``(field, lowered value)`` and ``texts``
        ``(field, {term: [positions]}, token count)``, one per non-null
        field. ``_file`` files exactly these and ``_unfile`` takes
        exactly these out again, so the two cannot disagree.
        """
        keywords, texts = [], []
        for name, value in fields.items():
            if value is None:
                continue
            mode = self.field_modes.get(name, FieldMode.TEXT)
            if mode == FieldMode.KEYWORD:
                keywords.append((name, str(value).lower()))
                continue
            tokens = self.analyzer.analyze_with_positions(str(value))
            by_term: dict[str, list[int]] = {}
            for term, position in tokens:
                by_term.setdefault(term, []).append(position)
            texts.append((name, by_term, len(tokens)))
        return keywords, texts

    # -- lookups ---------------------------------------------------------------

    def document(self, doc_id: str) -> FieldedDocument:
        try:
            return self._docs[doc_id]
        except KeyError:
            raise NotFoundError(f"document not indexed: {doc_id}") from None

    def all_doc_ids(self) -> set:
        return set(self._docs)

    def postings(self, name: str, term: str) -> dict[str, tuple]:
        """``{doc_id: positions}`` of an *already analyzed* term in a text
        field: the sorted token positions, whose count is the term
        frequency. A live view — read it, do not mutate it."""
        return self._postings.get(name, {}).get(term, {})

    def keyword_matches(self, name: str, value: str) -> set:
        """Doc ids whose keyword field ``name`` equals ``value`` (case-
        insensitively). A live view — read it, do not mutate it."""
        return self._keyword.get(name, {}).get(value.lower(), _NO_DOCS)

    def document_frequency(self, name: str, term: str) -> int:
        return len(self.postings(name, term))

    def field_lengths(self, name: str) -> dict[str, int]:
        """Analyzed token count per doc id of one text field (live view)."""
        return self._field_lengths.get(name, {})

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

    def vocabulary_size(self, name: str) -> int:
        return len(self._postings.get(name, {}))

    # -- phrase support ----------------------------------------------------------

    def phrase_matches(self, name: str, terms, offsets=None) -> set:
        """Doc ids where ``terms`` appear in order in field ``name``.

        ``offsets`` are the terms' positions in the phrase itself, as
        :meth:`Analyzer.analyze_with_positions` reports them (consecutive
        when omitted). Two consecutive terms match when the document holds
        them at most one position further apart than the phrase does: the
        stop-words the phrase has between them, plus one more.
        """
        if not terms:
            return set()
        by_docs = [self.postings(name, term) for term in terms]
        docs = by_docs[0].keys()
        if len(terms) == 1:
            return set(docs)
        for by_doc in by_docs[1:]:
            docs = docs & by_doc.keys()
        if offsets is None:
            offsets = range(len(terms))
        # Each later term's postings, with the steps it may stand after
        # the term before it.
        later = [(by_doc, range(1, b - a + 2))
                 for by_doc, a, b in zip(by_docs[1:], offsets, offsets[1:])]
        matched = set()
        for doc_id in docs:
            for start in by_docs[0][doc_id]:
                if self._phrase_at(doc_id, start, later):
                    matched.add(doc_id)
                    break
        return matched

    @staticmethod
    def _phrase_at(doc_id, start, later) -> bool:
        """Whether the terms chain from ``start``, each step taking the
        nearest next occurrence within its reach."""
        expected = start
        for by_doc, steps in later:
            following = by_doc[doc_id]
            for step in steps:
                if expected + step in following:
                    expected += step
                    break
            else:
                return False
        return True
