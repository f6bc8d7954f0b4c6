"""Sealed segments and their tail read exactly like the dict index.

:class:`~tests.reference_index.DictIndex` is the index as it was: one
``{doc_id: positions}`` dict per (field, term). The product files by
document ordinal into flat sealed segments plus a mutable tail with
tombstones, merging past ``TAIL_DOCS`` writes (shrunk here so merges
happen within a few steps). Any interleaving of adds, removes,
field-level upserts, explicit seals and bulk loads must leave every
read equal to the reference's after every step: per-term postings with
positions, document frequencies, field lengths and totals, keyword and
phrase matches, and ``execute_query``'s top-k, scores bit for bit.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.searchengine import index as index_module
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument, FieldMode
from repro.searchengine.engine import (
    SearchOptions,
    VerticalIndex,
    execute_query,
)
from repro.searchengine.query import extract_terms, parse_query
from repro.searchengine.ranking import BM25Parameters

from tests.reference_index import (
    DictIndex,
    doc_ids,
    reads,
    reference_reads,
)
from tests.test_evaluator_equivalence import ReferenceEvaluator
from tests.test_ranking_equivalence import reference_rank

MODES = {"tag": FieldMode.KEYWORD}
FIELDS = ["title", "body"]
PARAMS = BM25Parameters(field_boosts={"title": 2.0})
WORDS = ("halo", "arena", "braid", "the", "odyssey", "arenas")
IDS = tuple(f"d{n}" for n in range(8))
QUERIES = ("halo", "halo arena", "braid OR odyssey", '"halo arena"',
           '"the arena"', "tag:x", "NOT halo", "title:odyssey",
           "halo tag:y")

phrases = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)
# 1, 1.0 and True are equal but file "1", "1.0" and "True".
values = st.one_of(phrases, st.sampled_from([None, "", 1, 1.0, True]))
field_sets = st.fixed_dictionaries(
    {}, optional={"title": values, "body": values,
                  "tag": st.sampled_from(["x", "X", "y", None])})


class SegmentMachine(RuleBasedStateMachine):
    """The product index beside the dict reference, written alike."""

    def __init__(self) -> None:
        super().__init__()
        self._small_tail = mock.patch.object(index_module, "TAIL_DOCS", 3)
        self._small_tail.start()
        self.vertical = VerticalIndex("test", FIELDS, PARAMS,
                                      field_modes=MODES)
        self.index = self.vertical.index
        self.reference = DictIndex(Analyzer(), MODES)

    def teardown(self) -> None:
        self._small_tail.stop()

    def stored(self) -> list:
        return sorted(self.reference.all_doc_ids())

    @rule(doc_id=st.sampled_from(IDS), fields=field_sets)
    def add(self, doc_id, fields):
        if doc_id in self.reference:
            return
        self.index.add(FieldedDocument(doc_id, fields))
        self.reference.add(FieldedDocument(doc_id, fields))

    @precondition(lambda self: len(self.reference))
    @rule(pick=st.integers(0, 100), changes=field_sets,
          dropped=st.sets(st.sampled_from(("title", "body", "tag"))))
    def upsert(self, pick, changes, dropped):
        doc_id = self.stored()[pick % len(self.stored())]
        fields = {**self.reference.document(doc_id).fields, **changes}
        document = FieldedDocument(doc_id, {
            name: value for name, value in fields.items()
            if name not in dropped})
        self.index.upsert(document)
        self.reference.upsert(document)

    @precondition(lambda self: len(self.reference))
    @rule(pick=st.integers(0, 100))
    def remove(self, pick):
        doc_id = self.stored()[pick % len(self.stored())]
        self.index.remove(doc_id)
        self.reference.remove(doc_id)

    @rule()
    def seal(self):
        self.index.seal()

    @rule(batch=st.lists(st.tuples(st.sampled_from(IDS), field_sets),
                         max_size=4))
    def load(self, batch):
        documents = [FieldedDocument(doc_id, fields)
                     for doc_id, fields in batch]
        self.index.load(documents)
        for document in documents:
            self.reference.upsert(document)

    @invariant()
    def every_read_equals_the_reference(self):
        assert len(self.index) == len(self.reference)
        assert reads(self.index) == reference_reads(self.reference)
        analyzer = self.index.analyzer
        for first in WORDS[:4]:
            for second in WORDS[:4]:
                analyzed = analyzer.analyze_with_positions(
                    f"{first} the {second}")
                terms = [term for term, __ in analyzed]
                offsets = [position for __, position in analyzed]
                for name in FIELDS:
                    assert doc_ids(self.index, self.index.phrase_matches(
                        name, terms, offsets)) == \
                        self.reference.phrase_matches(name, terms, offsets)

    @invariant()
    def every_page_equals_the_reference(self):
        for text in QUERIES:
            node = parse_query(text)
            terms = extract_terms(node, self.index.analyzer)
            candidates = ReferenceEvaluator(
                self.reference, FIELDS).candidates(node)
            expected = reference_rank(self.reference, FIELDS, PARAMS,
                                      terms, candidates)
            for limit in (1, 3, None):
                top, count = execute_query(self.vertical, node,
                                           SearchOptions(), terms, 0,
                                           limit=limit)
                assert count == len(candidates), text
                assert top == expected[:limit], (text, limit)


SegmentMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=25)
TestSegmentMachine = SegmentMachine.TestCase
