"""Positional inverted index: document ordinals, sealed flat segments
and a small mutable tail.

Every document gets a dense ordinal when it is filed; readers work in
ordinals and doc ids appear only at the boundary (:meth:`document`,
:meth:`ordinal`, :meth:`doc_ids`). Per text field the index keeps:

- a **sealed segment**: every term's postings laid out flat — sorted
  ordinals, term frequencies and positions with offsets — behind one
  term -> slot map, built in one pass and never changed;
- a **tail**: ``{term: {ordinal: positions}}`` for what was filed since
  the seal, plus **tombstones**, the ordinals whose sealed postings in
  the field are no longer current (the document left, or an upsert
  re-filed the field);
- the field length of every ordinal, its total and document count.

Keyword fields keep a set of ordinals per lowered value. A bulk build
(:meth:`load`) files straight into new segments, field by field. Once
more than :data:`TAIL_DOCS` documents were written since the seal, the
write merges the tail into new segments and renumbers the ordinals
densely. Until its next write the index remembers its last
:data:`PHRASE_MEMO` phrase results.

Storage types. Ordinals are one flat tuple per field whose items are
the index's own ordinal ints, shared by every posting of a document:
8 bytes a posting, and walking a slice allocates nothing (an
``array`` would allocate an int per ordinal above 256 on every read).
Term frequencies, offsets, positions and slot bounds are unsigned
arrays of the narrowest typecode their largest value fits, chosen at
each seal: frequencies and title positions take one byte an item, and
small values read back as cached ints.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict
from functools import partial
from itertools import accumulate, chain, count

from repro.errors import DuplicateError, NotFoundError
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument, FieldMode

__all__ = ["InvertedIndex", "PHRASE_MEMO", "TAIL_DOCS"]

#: Most documents written (added, re-filed or removed) since the last
#: seal that the tail holds; the write that passes it merges the tail
#: into new segments. A merge costs one pass over the index's postings,
#: so a small value merges often and a large one keeps more postings in
#: dicts, which cost several times their sealed size.
TAIL_DOCS = 256

#: Most phrase results an index remembers until its next write, oldest
#: out first. A phrase reads each document's positions out of the packed
#: arrays, which costs more than a position tuple did, and the
#: supplemental look-ups of a result repeat its phrase across bindings.
PHRASE_MEMO = 256

#: Typecodes of the flat arrays: a seal packs each unsigned array
#: (frequencies, offsets, positions, bounds) in the first of ``_NARROW``
#: whose largest value fits; route hashes are signed 64-bit, which holds
#: the 63-bit hash space.
_UINT, _HASH = "I", "q"
_NARROW = (("B", 1 << 8), ("H", 1 << 16), (_UINT, 1 << 32))
assert [array(code).itemsize for code, __ in _NARROW] == [1, 2, 4]
assert array(_HASH).itemsize == 8

_NO_DOCS: frozenset = frozenset()


class _Segment:
    """One text field's sealed postings.

    The postings of slot ``s`` are items ``bounds[s]:bounds[s + 1]`` of
    ``ords`` (ascending) and ``tfs``; posting ``i``'s positions are
    ``positions[starts[i]:starts[i + 1]]``.
    """

    __slots__ = ("slots", "bounds", "ords", "tfs", "starts", "positions")

    def __init__(self, slots: dict, bounds: array, ords: tuple,
                 tfs: array, starts: array, positions: array) -> None:
        self.slots, self.bounds, self.ords = slots, bounds, ords
        self.tfs, self.starts, self.positions = tfs, starts, positions

    def span(self, term: str) -> tuple[int, int]:
        """``(lo, hi)`` of ``term``'s postings; empty when absent."""
        slot = self.slots.get(term)
        return (0, 0) if slot is None else (self.bounds[slot],
                                             self.bounds[slot + 1])


_EMPTY = _Segment({}, array("B", [0]), (), array("B"), array("B", [0]),
                  array("B"))


class _Field:
    """A text field: its segment; ``dead``, the ordinals whose sealed
    postings here are not current, and ``dead_df``, how many of each
    term's are; its tail; and the token count by ordinal (``None`` where
    the field is absent), their total and count."""

    __slots__ = ("segment", "dead", "dead_df", "tail", "lengths", "total",
                 "count")

    def __init__(self, size: int) -> None:
        self.segment, self.dead, self.dead_df, self.tail = \
            _EMPTY, set(), {}, {}
        self.lengths, self.total, self.count = [None] * size, 0, 0

    def live(self, term: str) -> bool:
        """Whether every sealed posting of ``term`` is current and the
        tail holds none: its postings are one slice of the segment."""
        return not self.dead_df.get(term) and term not in self.tail


#: What a read of a field no document holds sees; never written.
_NO_FIELD = _Field(0)


#: Types whose equal values always have equal ``str``: an upsert takes
#: such a field as unchanged without filing either value.
_EXACT = (str, int, bool, type(None))


def _changed(before: dict, after: dict) -> list:
    """The names of the fields ``before`` and ``after`` file differently;
    an absent field files as ``None`` does. ``1``, ``1.0`` and ``True``
    are equal but file differently."""
    return [name for name in dict.fromkeys(chain(before, after))
            if not _same(before.get(name), after.get(name))]


def _same(old, new) -> bool:
    """Whether the index files ``old`` and ``new`` alike."""
    return old is new or (type(old) is type(new) and type(old) in _EXACT
                          and old == new) or _filed(old) == _filed(new)


def _filed(value):
    """What the index files of a field value: its ``str``, or nothing
    for ``None``."""
    return None if value is None else str(value)


class InvertedIndex:
    """A multi-field positional inverted index over document ordinals.

    ``field_modes`` fixes which fields are analyzed text vs exact keywords;
    fields not listed default to TEXT. ``route_key``, given on a shard's
    index, maps a doc id to its routing hash, which is kept by ordinal
    so :meth:`routed` never hashes.

    Precondition: a :class:`FieldedDocument`'s ``fields`` are not mutated
    after :meth:`add`. :meth:`remove` and :meth:`upsert` keep no
    per-document term list; they re-analyze the stored field values to
    find the document's postings, so they must still be the values that
    were indexed.
    """

    def __init__(self, analyzer: Analyzer | None = None,
                 field_modes: dict | None = None, route_key=None) -> None:
        self.analyzer = analyzer or Analyzer()
        self.field_modes = dict(field_modes or {})
        self._route_key = route_key
        # by ordinal: the stored document and its id (None once removed)
        self._docs: list = []
        self._ids: list = []
        self._ords: dict[str, int] = {}
        self._route = None if route_key is None else array(_HASH)
        self._fields: dict[str, _Field] = {}
        # keyword[field][lowered value] -> set of ordinals
        self._keyword: dict[str, dict[str, set]] = {}
        # ordinals below this were filed when the segments were sealed
        self._sealed = 0
        # ordinals written since the seal
        self._touched: set = set()
        # (field, terms, offsets) -> the ordinals the phrase matches,
        # the last PHRASE_MEMO of them since the last write
        self._phrases: dict = {}
        #: Bumped by every add / upsert / remove; whatever is derived
        #: from the index's contents compares it to know it went stale.
        self.mutations = 0

    # -- lifecycle -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ords)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._ords

    def add(self, document: FieldedDocument) -> None:
        """Index ``document``; raises :class:`DuplicateError` on id reuse."""
        ordinal = self._admit(document)
        self._file(ordinal, document.fields)
        self._wrote(ordinal)

    def load(self, documents) -> None:
        """Index every document of ``documents``: new ids are filed
        straight into new segments, one field at a time, then each
        stored id (or one the batch repeats) is an :meth:`upsert`."""
        fresh, stored = [], []
        for document in documents:
            if document.doc_id in self._ords:
                stored.append(document)
            else:
                fresh.append(self._admit(document))
                self._file(fresh[-1], document.fields, texts=False)
        self._seal(fresh)
        for document in stored:
            self.upsert(document)

    def upsert(self, document: FieldedDocument) -> None:
        """Index ``document``, replacing any stored under its id.

        A new id is an :meth:`add`. For a stored one only the fields
        whose filed value changed are taken out and filed again: those
        absent or ``None`` on exactly one side, or whose ``str`` differs
        (``1``, ``1.0`` and ``True`` are equal but file differently).
        A sealed field is tombstoned for this document alone. The rest
        keep their postings, keyword entries and lengths. The stored
        document is replaced and ``mutations`` bumped once.
        """
        ordinal = self._ords.get(document.doc_id)
        if ordinal is None:
            self.add(document)
            return
        before, after = self._docs[ordinal].fields, document.fields
        self._docs[ordinal] = document
        self.mutations += 1
        names = _changed(before, after)
        self._unfile(ordinal, {name: before[name] for name in names
                               if name in before})
        self._file(ordinal, {name: after[name] for name in names
                             if name in after})
        if names:
            self._wrote(ordinal)

    def remove(self, doc_id: str) -> None:
        """Take ``doc_id`` out; raises :class:`NotFoundError` if absent.

        O(terms of the removed document): the stored document is
        re-analyzed and only its postings are touched — tail entries go,
        sealed ones are tombstoned until the next merge.
        """
        ordinal = self._ords.pop(doc_id, None)
        if ordinal is None:
            raise NotFoundError(f"document not indexed: {doc_id}")
        document = self._docs[ordinal]
        self._docs[ordinal] = self._ids[ordinal] = None
        self.mutations += 1
        self._unfile(ordinal, document.fields)
        self._wrote(ordinal)

    def seal(self) -> None:
        """Merge the tail into new segments, dropping tombstoned postings
        and renumbering the ordinals densely."""
        self._seal(())

    # -- ingestion internals --------------------------------------------------

    def _admit(self, document: FieldedDocument) -> int:
        """A new ordinal for ``document``, stored but not yet filed."""
        doc_id = document.doc_id
        if doc_id in self._ords:
            raise DuplicateError(f"document already indexed: {doc_id}")
        ordinal = self._ords[doc_id] = len(self._docs)
        self._docs.append(document)
        self._ids.append(doc_id)
        if self._route is not None:
            self._route.append(self._route_key(doc_id))
        for field_state in self._fields.values():
            field_state.lengths.append(None)
        self.mutations += 1
        return ordinal

    def _wrote(self, ordinal: int) -> None:
        self._phrases.clear()
        self._touched.add(ordinal)
        if len(self._touched) > TAIL_DOCS:
            self.seal()

    def _field(self, name: str) -> _Field:
        field_state = self._fields.get(name)
        if field_state is None:
            field_state = self._fields[name] = _Field(len(self._docs))
        return field_state

    def _file(self, ordinal: int, fields: dict, texts: bool = True) -> None:
        """File ``ordinal`` under what ``fields`` holds; text fields go
        to the tail (a bulk load leaves them to the seal)."""
        for name, value in fields.items():
            if value is None:
                continue
            if self.field_modes.get(name) == FieldMode.KEYWORD:
                self._keyword.setdefault(name, {}).setdefault(
                    str(value).lower(), set()).add(ordinal)
            elif texts:
                field_state = self._field(name)
                by_term, length = self._terms(value)
                for term, positions in by_term.items():
                    field_state.tail.setdefault(term, {})[ordinal] = \
                        tuple(positions)
                if ordinal < self._sealed:
                    field_state.dead.add(ordinal)
                field_state.lengths[ordinal] = length
                field_state.total += length
                field_state.count += 1

    def _unfile(self, ordinal: int, fields: dict) -> None:
        """Take ``ordinal`` out of what ``fields`` filed it under."""
        for name, value in fields.items():
            if value is None:
                continue
            if self.field_modes.get(name) == FieldMode.KEYWORD:
                value_map, key = self._keyword[name], str(value).lower()
                value_map[key].remove(ordinal)
                if not value_map[key]:
                    del value_map[key]
                continue
            field_state = self._fields[name]
            by_term, length = self._terms(value)
            if ordinal < self._sealed and ordinal not in field_state.dead:
                field_state.dead.add(ordinal)
                for term in by_term:
                    field_state.dead_df[term] = \
                        field_state.dead_df.get(term, 0) + 1
            else:
                for term in by_term:
                    by_ordinal = field_state.tail[term]
                    del by_ordinal[ordinal]
                    if not by_ordinal:
                        del field_state.tail[term]
            field_state.lengths[ordinal] = None
            field_state.total -= length
            field_state.count -= 1

    def _terms(self, value) -> tuple[dict, int]:
        """``({term: [positions]}, token count)`` of a text value."""
        tokens = self.analyzer.analyze_with_positions(str(value))
        by_term: dict[str, list[int]] = {}
        for term, position in tokens:
            by_term.setdefault(term, []).append(position)
        return by_term, len(tokens)

    # -- sealing ----------------------------------------------------------------

    def _seal(self, fresh) -> None:
        """Lay every text field out anew: its live sealed postings, its
        tail and the text of the ``fresh`` ordinals (filed nowhere yet),
        then renumber the ordinals densely."""
        live = [ordinal for ordinal, doc_id in enumerate(self._ids)
                if doc_id is not None]
        renumber = None if len(live) == len(self._ids) else {
            old: new for new, old in enumerate(live)}
        for name in dict.fromkeys(chain(self._fields, (
                name for ordinal in fresh
                for name, value in self._docs[ordinal].fields.items()
                if value is not None
                and self.field_modes.get(name) != FieldMode.KEYWORD))):
            field_state = self._field(name)
            self._seal_field(field_state, self._grouped(name, field_state,
                                                        fresh), renumber)
            if not field_state.count:
                del self._fields[name]
        if renumber is not None:
            self._docs = [self._docs[ordinal] for ordinal in live]
            self._ids = [self._ids[ordinal] for ordinal in live]
            self._ords = dict(zip(self._ids, count()))
            if self._route is not None:
                self._route = array(_HASH, map(self._route.__getitem__,
                                               live))
            for field_state in self._fields.values():
                field_state.lengths = list(map(
                    field_state.lengths.__getitem__, live))
            for value_map in self._keyword.values():
                for value, docs in value_map.items():
                    value_map[value] = set(map(renumber.__getitem__, docs))
        self._sealed = len(self._docs)
        self._touched.clear()
        self._phrases.clear()

    def _grouped(self, name: str, field_state: _Field, fresh) -> dict:
        """``{term: (ordinals, frequencies, positions)}`` of field
        ``name`` over the ``fresh`` ordinals, ascending; their lengths
        are filed as they are read."""
        grouped: dict[str, tuple] = defaultdict(lambda: ([], [], []))
        for ordinal in fresh:
            value = self._docs[ordinal].fields.get(name)
            if value is None:
                continue
            by_term, length = self._terms(value)
            for term, positions in by_term.items():
                postings = grouped[term]
                postings[0].append(ordinal)
                postings[1].append(len(positions))
                postings[2].extend(positions)
            field_state.lengths[ordinal] = length
            field_state.total += length
            field_state.count += 1
        return grouped

    def _seal_field(self, field_state: _Field, grouped: dict,
                    renumber) -> None:
        """Build ``field_state``'s new segment from its old one (less
        the tombstoned postings), its tail and ``grouped``."""
        old, tail = field_state.segment, field_state.tail
        # (term, ordinals, frequencies, positions), in slot order
        parts = []
        for term in dict.fromkeys(chain(old.slots, tail)):
            lo, hi = old.span(term)
            if field_state.live(term):
                part = (old.ords[lo:hi], old.tfs[lo:hi],
                        old.positions[old.starts[lo]:old.starts[hi]])
            else:
                entries = sorted(chain(
                    ((old.ords[i], old.positions[old.starts[i]:
                                                 old.starts[i + 1]])
                     for i in range(lo, hi)
                     if old.ords[i] not in field_state.dead),
                    tail.get(term, {}).items()))
                part = ([ordinal for ordinal, __ in entries],
                        [len(plist) for __, plist in entries],
                        list(chain.from_iterable(
                            plist for __, plist in entries)))
            if term in grouped:
                part = tuple(list(chain(a, b))
                             for a, b in zip(part, grouped.pop(term)))
            if part[0]:
                parts.append((term, *part))
        parts.extend((term, *fresh) for term, fresh in grouped.items())
        terms, ords, tfs, positions = zip(*parts) if parts else ([],) * 4
        flat_ords = chain.from_iterable(ords)
        if renumber is not None:
            flat_ords = map(renumber.__getitem__, flat_ords)
        flat_tfs = array(_UINT, chain.from_iterable(tfs))
        field_state.segment = _Segment(
            dict(zip(terms, count())),
            _packed(array(_UINT, accumulate(map(len, ords), initial=0))),
            tuple(flat_ords), _packed(flat_tfs),
            _packed(array(_UINT, accumulate(flat_tfs, initial=0))),
            _packed(array(_UINT, chain.from_iterable(positions))))
        field_state.dead, field_state.dead_df, field_state.tail = \
            set(), {}, {}

    # -- the doc-id boundary -----------------------------------------------------

    def document(self, doc_id: str) -> FieldedDocument:
        return self._docs[self.ordinal(doc_id)]

    def all_doc_ids(self) -> set:
        return set(self._ords)

    def ordinal(self, doc_id: str) -> int:
        try:
            return self._ords[doc_id]
        except KeyError:
            raise NotFoundError(f"document not indexed: {doc_id}") from None

    def doc_ids(self) -> list:
        """Doc id by ordinal, ``None`` where removed (live view)."""
        return self._ids

    # -- lookups by ordinal -----------------------------------------------------

    def stored(self, ordinal: int) -> FieldedDocument:
        """The document filed under a live ``ordinal``."""
        return self._docs[ordinal]

    def ordinals(self) -> set:
        """Every live ordinal, as a new set."""
        return set(self._ords.values())

    def matching(self, name: str, term: str, within=None) -> set:
        """Ordinals whose text field ``name`` holds the *already
        analyzed* ``term``, among ``within`` (``None``: all), as a new
        set."""
        field_state = self._fields.get(name, _NO_FIELD)
        lo, hi = field_state.segment.span(term)
        ords = field_state.segment.ords
        if within is None:
            docs = set(ords[lo:hi])
        elif len(within) * 16 < hi - lo:    # few against many: bisect
            docs = {ordinal for ordinal in within
                    if (i := bisect_left(ords, ordinal, lo, hi)) < hi
                    and ords[i] == ordinal}
        else:
            docs = within.intersection(ords[lo:hi])
        if field_state.dead_df.get(term):
            docs -= field_state.dead
        extra = field_state.tail.get(term)
        if extra:
            docs.update(extra if within is None
                        else within.intersection(extra))
        return docs

    def postings(self, name: str, term: str) -> tuple:
        """``(ordinals, frequencies, lo, hi)``: an *already analyzed*
        term's live postings in a text field are ``ordinals[lo:hi]``,
        ascending, with ``frequencies[lo:hi]``. A view, uncopied: read
        it, do not mutate it."""
        field_state = self._fields.get(name, _NO_FIELD)
        segment = field_state.segment
        lo, hi = segment.span(term)
        if field_state.live(term):
            return segment.ords, segment.tfs, lo, hi
        pairs = sorted(chain(
            ((ordinal, tf) for ordinal, tf
             in zip(segment.ords[lo:hi], segment.tfs[lo:hi])
             if ordinal not in field_state.dead),
            ((ordinal, len(plist)) for ordinal, plist
             in field_state.tail.get(term, {}).items())))
        ords, tfs = zip(*pairs) if pairs else ((), ())
        return ords, tfs, 0, len(ords)

    def positions(self, name: str, term: str, ordinal: int):
        """Sorted token positions of ``term`` in ``ordinal``'s field
        ``name``; empty when it holds none."""
        return self._positions_of(name, term)(ordinal)

    def _positions_of(self, name: str, term: str):
        """``ordinal -> positions`` of ``term`` in field ``name``, its
        postings looked up once."""
        field_state = self._fields.get(name, _NO_FIELD)
        tail, dead = field_state.tail.get(term, {}), field_state.dead
        segment, sealed = field_state.segment, self._sealed
        ords, starts, positions = segment.ords, segment.starts, \
            segment.positions
        lo, hi = segment.span(term)

        def look(ordinal):
            if ordinal >= sealed or ordinal in dead:
                return tail.get(ordinal, ())
            i = bisect_left(ords, ordinal, lo, hi)
            return positions[starts[i]:starts[i + 1]] \
                if i < hi and ords[i] == ordinal else ()
        return look

    def keyword_matches(self, name: str, value: str) -> set:
        """Ordinals whose keyword field ``name`` equals ``value`` (case-
        insensitively). A live view — read it, do not mutate it."""
        return self._keyword.get(name, {}).get(value.lower(), _NO_DOCS)

    def routed(self, ordinals, ranges) -> set:
        """The ``ordinals`` whose route hash lies in one of ``ranges``,
        ``(low, high)`` pairs; only a shard's index keeps hashes."""
        return {ordinal for ordinal in ordinals
                if any(low <= self._route[ordinal] < high
                       for low, high in ranges)}

    def document_frequency(self, name: str, term: str) -> int:
        field_state = self._fields.get(name, _NO_FIELD)
        lo, hi = field_state.segment.span(term)
        return (hi - lo - field_state.dead_df.get(term, 0)
                + len(field_state.tail.get(term, ())))

    def field_lengths(self, name: str) -> list:
        """Analyzed token count by ordinal of one text field, ``None``
        where the document lacks it (live view)."""
        return self._fields.get(name, _NO_FIELD).lengths

    def total_field_length(self, name: str) -> int:
        """Sum of analyzed token counts across all docs with the field."""
        return self._fields.get(name, _NO_FIELD).total

    def field_doc_count(self, name: str) -> int:
        """How many documents carry the (text) field ``name``."""
        return self._fields.get(name, _NO_FIELD).count

    def term_frequencies(self, name: str) -> dict[str, int]:
        """Document frequency per term of one text field (copied), terms
        with none left out."""
        field_state = self._fields.get(name, _NO_FIELD)
        bounds = field_state.segment.bounds
        frequencies = dict(zip(field_state.segment.slots,
                               map(int.__sub__, bounds[1:], bounds)))
        for term, dead in field_state.dead_df.items():
            frequencies[term] -= dead
        for term, by_ordinal in field_state.tail.items():
            frequencies[term] = frequencies.get(term, 0) + len(by_ordinal)
        return {term: df for term, df in frequencies.items() if df}

    def text_fields(self) -> list[str]:
        return sorted(name for name, field_state in self._fields.items()
                      if field_state.count)

    # -- phrase support ----------------------------------------------------------

    def phrase_matches(self, name: str, terms, offsets=None,
                       within=None) -> set:
        """Ordinals, among ``within`` (``None``: all), where ``terms``
        appear in order in field ``name``.

        ``offsets`` are the terms' positions in the phrase itself, as
        :meth:`Analyzer.analyze_with_positions` reports them (consecutive
        when omitted). Two consecutive terms match when the document holds
        them at most one position further apart than the phrase does: the
        stop-words the phrase has between them, plus one more.
        """
        if within is not None:
            return self._phrase(name, terms, offsets, within)
        key = (name, tuple(terms), tuple(offsets or ()))
        if key not in self._phrases:
            if len(self._phrases) >= PHRASE_MEMO:
                del self._phrases[next(iter(self._phrases))]
            self._phrases[key] = tuple(
                self._phrase(name, terms, offsets, None))
        return set(self._phrases[key])

    def _phrase(self, name: str, terms, offsets, within) -> set:
        # Intersect from the rarest term up.
        docs = within
        for term in sorted(dict.fromkeys(terms), key=partial(
                self.document_frequency, name)):
            docs = self.matching(name, term, docs)
            if not docs:
                return docs
        if len(terms) < 2:
            return docs or set()
        if offsets is None:
            offsets = range(len(terms))
        # Each later term's steps: how far after the term before it it
        # may stand.
        steps = [range(1, b - a + 2) for a, b in zip(offsets, offsets[1:])]
        looks = [self._positions_of(name, term) for term in terms]
        matched = set()
        for ordinal in docs:
            first, *later = [look(ordinal) for look in looks]
            following = list(zip(later, steps))
            for start in first:
                if _phrase_at(start, following):
                    matched.add(ordinal)
                    break
        return matched


def _packed(values) -> array:
    """``values`` in the narrowest unsigned typecode that holds them."""
    top = max(values, default=0)
    return array(next(code for code, limit in _NARROW if top < limit),
                 values)


def _phrase_at(start, later) -> bool:
    """Whether the terms chain from ``start``, each step taking the
    nearest next occurrence within its reach."""
    expected = start
    for following, steps in later:
        for step in steps:
            if expected + step in following:
                expected += step
                break
        else:
            return False
    return True
