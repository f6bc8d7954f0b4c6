"""Tests for the positional inverted index."""

import sys

import pytest
from hypothesis import given, strategies as st

from repro.cluster import ClusterConfig, build_clustered_engine
from repro.errors import DuplicateError, NotFoundError
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument, FieldMode
from repro.searchengine.engine import Vertical
from repro.searchengine.index import InvertedIndex
from repro.searchengine.stats import CorpusStats

from tests.reference_index import doc_ids, reads


def average_field_length(index, name: str) -> float:
    """What BM25 reads for ``name``: the index's statistics, collected."""
    return CorpusStats.collect(index, (name,), ()).average_field_length(
        name)


def make_index(**field_modes):
    return InvertedIndex(Analyzer(), field_modes=field_modes)


def doc(doc_id, **fields):
    return FieldedDocument(doc_id=doc_id, fields=fields)


class TestLifecycle:
    def test_add_and_len(self):
        index = make_index()
        index.add(doc("d1", title="hello world"))
        assert len(index) == 1
        assert "d1" in index

    def test_duplicate_add_rejected(self):
        index = make_index()
        index.add(doc("d1", title="x"))
        with pytest.raises(DuplicateError):
            index.add(doc("d1", title="y"))

    def test_upsert_replaces(self):
        index = make_index()
        index.add(doc("d1", title="alpha"))
        index.upsert(doc("d1", title="beta"))
        assert not index.matching("title", "alpha")
        assert doc_ids(index, index.matching("title", "beta")) == {"d1"}

    def test_remove_clears_postings_and_lengths(self):
        index = make_index()
        index.add(doc("d1", title="gamma delta"))
        index.add(doc("d2", title="gamma"))
        index.remove("d1")
        assert "d1" not in index
        assert doc_ids(index, index.matching("title", "gamma")) == {"d2"}
        assert reads(index)["text"]["title"]["lengths"] == {"d2": 1}
        assert average_field_length(index, "title") == 1.0

    def test_remove_missing(self):
        with pytest.raises(NotFoundError):
            make_index().remove("nope")

    def test_document_roundtrip(self):
        index = make_index()
        original = doc("d1", title="x", body="y")
        index.add(original)
        assert index.document("d1") is original

    def test_none_fields_skipped(self):
        index = make_index()
        index.add(FieldedDocument("d1", {"title": None, "body": "real"}))
        assert not index.term_frequencies("title")
        assert index.matching("body", "real")


def structures(index):
    """Everything a reader can ask an index."""
    return reads(index)


class _NoWalk(dict):
    """A term (or keyword value) map that may be probed but not walked."""

    def _walked(self, *args):
        raise AssertionError("remove walked a whole field's map")

    __iter__ = items = values = keys = _walked


class TestRemoveTouchesOnlyTheDocument:
    DOCS = (
        doc("d1", title="Halo Odyssey", body="combat evolved again",
            site="a.example", topic="games"),
        doc("d2", title="Halo Wars", body="strategy combat",
            site="b.example", topic="games"),
        doc("d3", title="Wine Guide", body="", site="a.example",
            topic="wine", extra="only here"),
    )

    def build(self, docs=DOCS, sealed=False):
        index = make_index(site=FieldMode.KEYWORD, topic=FieldMode.KEYWORD)
        if sealed:
            index.load(docs)
        for document in () if sealed else docs:
            index.add(document)
        return index

    def test_emptied_keyword_bucket_is_deleted(self):
        index = self.build()
        index.remove("d3")
        assert "wine" not in index._keyword["topic"]
        assert {value: doc_ids(index, docs) for value, docs
                in index._keyword["site"].items()} == \
            {"a.example": {"d1"}, "b.example": {"d2"}}

    @pytest.mark.parametrize("victim", ["d1", "d2", "d3"])
    def test_remove_equals_never_added(self, victim, sealed=False):
        index = self.build(sealed=sealed)
        index.remove(victim)
        never = self.build([d for d in self.DOCS if d.doc_id != victim])
        assert structures(index) == structures(never)

    @pytest.mark.parametrize("victim", ["d1", "d2", "d3"])
    def test_sealed_remove_equals_never_added(self, victim):
        self.test_remove_equals_never_added(victim, sealed=True)

    @pytest.mark.parametrize("victim", ["d1", "d2", "d3"])
    def test_remove_then_readd_equals_never_removed(self, victim,
                                                     sealed=False):
        index = self.build(sealed=sealed)
        index.remove(victim)
        index.add(next(d for d in self.DOCS if d.doc_id == victim))
        assert structures(index) == structures(self.build())

    @pytest.mark.parametrize("victim", ["d1", "d2", "d3"])
    def test_sealed_remove_then_readd_equals_never_removed(self, victim):
        self.test_remove_then_readd_equals_never_removed(victim, sealed=True)

    def test_remove_does_not_walk_a_field_map(self, sealed=False):
        """Neither a tail's term map, a segment's term -> slot map nor a
        keyword field's value map is walked: a remove costs the terms
        of the document removed."""
        index = self.build(sealed=sealed)
        for field_state in index._fields.values():
            field_state.tail = _NoWalk(field_state.tail)
            segment = field_state.segment
            field_state.segment = type(segment)(
                _NoWalk(segment.slots), segment.bounds, segment.ords,
                segment.tfs, segment.starts, segment.positions)
        for name, value_map in index._keyword.items():
            index._keyword[name] = _NoWalk(value_map)
        index.remove("d1")
        assert "d1" not in index
        assert doc_ids(index, index.matching("title", "halo")) == {"d2"}
        assert not index.matching("title", "odyssey")
        assert doc_ids(index, index.keyword_matches("site", "a.example")) \
            == {"d3"}
        with pytest.raises(NotFoundError):
            index.remove("d1")

    def test_sealed_remove_does_not_walk_a_field_map(self):
        self.test_remove_does_not_walk_a_field_map(sealed=True)

    def test_docstring_states_the_precondition(self):
        text = " ".join(InvertedIndex.__doc__.split())
        assert "``fields`` are not mutated after :meth:`add`" in text


class TestTextPostings:
    def test_positions_recorded(self):
        index = make_index()
        index.add(doc("d1", body="alpha beta alpha"))
        ordinal = index.ordinal("d1")
        assert index.positions("body", "alpha", ordinal) == (0, 2)
        ords, tfs, lo, hi = index.postings("body", "alpha")
        assert (tuple(ords[lo:hi]), list(tfs[lo:hi])) == ((ordinal,), [2])
        index.seal()
        ordinal = index.ordinal("d1")
        assert tuple(index.positions("body", "alpha", ordinal)) == (0, 2)
        ords, tfs, lo, hi = index.postings("body", "alpha")
        assert (tuple(ords[lo:hi]), list(tfs[lo:hi])) == ((ordinal,), [2])

    def test_analysis_applied(self):
        index = make_index()
        index.add(doc("d1", body="The Reviews"))
        assert doc_ids(index, index.matching("body", "review")) == {"d1"}
        assert not index.matching("body", "the")

    def test_document_frequency(self):
        index = make_index()
        index.add(doc("d1", body="common word"))
        index.add(doc("d2", body="common other"))
        assert index.document_frequency("body", "common") == 2
        assert index.document_frequency("body", "word") == 1

    def test_average_field_length(self):
        index = make_index()
        index.add(doc("d1", body="one two three"))
        index.add(doc("d2", body="one"))
        assert average_field_length(index, "body") == 2.0

    def test_fields_listing(self):
        index = make_index(site=FieldMode.KEYWORD)
        index.add(doc("d1", title="x", site="a.example"))
        assert index.text_fields() == ["title"]
        assert doc_ids(index, index.keyword_matches("site", "a.example")) \
            == {"d1"}


class TestKeywordFields:
    def test_exact_match_case_insensitive(self):
        index = make_index(site=FieldMode.KEYWORD)
        index.add(doc("d1", site="GameSpot.com"))
        assert doc_ids(index, index.keyword_matches("site", "gamespot.com")) \
            == {"d1"}

    def test_no_tokenization(self):
        index = make_index(site=FieldMode.KEYWORD)
        index.add(doc("d1", site="gamespot.com"))
        assert index.keyword_matches("site", "gamespot") == set()

    def test_removed_from_keyword_index(self):
        index = make_index(site=FieldMode.KEYWORD)
        index.add(doc("d1", site="a.example"))
        index.remove("d1")
        assert index.keyword_matches("site", "a.example") == set()


class TestPhrases:
    def test_adjacent_phrase(self):
        index = make_index()
        index.add(doc("d1", body="combat evolved again"))
        index.add(doc("d2", body="evolved combat"))
        matched = index.phrase_matches(
            "body", index.analyzer.analyze("combat evolved")
        )
        assert doc_ids(index, matched) == {"d1"}

    def test_phrase_tolerates_stopword_gap(self):
        index = make_index()
        index.add(doc("d1", body="lord of rings"))
        matched = index.phrase_matches(
            "body", index.analyzer.analyze("lord rings")
        )
        assert doc_ids(index, matched) == {"d1"}

    def test_single_term_phrase(self):
        index = make_index()
        index.add(doc("d1", body="halo"))
        assert doc_ids(index, index.phrase_matches("body", ["halo"])) == \
            {"d1"}

    def test_empty_terms(self):
        assert make_index().phrase_matches("body", []) == set()

    def test_missing_term_short_circuits(self):
        index = make_index()
        index.add(doc("d1", body="alpha beta"))
        assert index.phrase_matches("body", ["alpha", "zzz"]) == set()


class TestPropertyBased:
    @given(st.lists(
        st.tuples(
            st.text(alphabet="abcdefg", min_size=1, max_size=6),
            st.lists(st.sampled_from(
                ["halo", "game", "review", "wine", "travel", "combat"]
            ), min_size=1, max_size=8),
        ),
        min_size=1, max_size=12, unique_by=lambda pair: pair[0],
    ))
    def test_df_equals_docs_containing_term(self, entries):
        index = make_index()
        for doc_id, words in entries:
            index.add(doc(doc_id, body=" ".join(words)))
        analyzer = index.analyzer
        for term_source in ("halo", "game", "review"):
            term = analyzer.analyze(term_source)[0]
            expected = sum(
                1 for __, words in entries
                if term in analyzer.analyze(" ".join(words))
            )
            assert index.document_frequency("body", term) == expected

    @given(st.lists(
        st.sampled_from(["halo", "game", "review", "wine"]),
        min_size=1, max_size=10,
    ))
    def test_add_remove_restores_empty(self, words):
        index = make_index()
        index.add(doc("d1", body=" ".join(words)))
        index.remove("d1")
        assert len(index) == 0
        for word in words:
            term = index.analyzer.analyze(word)[0]
            assert index.document_frequency("body", term) == 0
        assert average_field_length(index, "body") == 0.0




# -- the sealed layout ----------------------------------------------------------

#: Most bytes a sealed posting costs on the 2-shard TINY_SPEC cluster:
#: ordinal, frequency, offset and positions, plus its share of the term
#: map (28.6 there; the dict layout's postings and position tuples
#: cost 98).
SEALED_BYTES_PER_POSTING = 32


def segment_bytes(segment) -> int:
    return sum(sys.getsizeof(part) for part in (
        segment.slots, segment.bounds, segment.ords, segment.tfs,
        segment.starts, segment.positions))


@pytest.fixture(scope="module")
def replicated(tiny_web):
    """A 2-shard x 2-replica cluster, bulk-loaded into sealed segments."""
    return build_clustered_engine(
        tiny_web, ClusterConfig(num_shards=2, replicas_per_shard=2),
        use_authority=False)


class TestSealedLayout:
    def test_replicas_of_a_shard_share_one_segment(self, replicated):
        for group in replicated.groups:
            first, second = group.replicas
            for vertical in Vertical:
                mine = first.vertical(vertical).index._fields
                theirs = second.vertical(vertical).index._fields
                assert mine and mine.keys() == theirs.keys()
                for name, field_state in mine.items():
                    assert field_state.segment is theirs[name].segment
                    assert not field_state.tail and not field_state.dead

    def test_a_sealed_posting_costs_a_few_bytes(self, replicated):
        """A deterministic stand-in for peak RSS: ``sys.getsizeof`` over
        every segment, no clock and no process memory."""
        size = postings = 0
        for group in replicated.groups:
            for vertical in Vertical:
                index = group.replicas[0].vertical(vertical).index
                for field_state in index._fields.values():
                    size += segment_bytes(field_state.segment)
                    postings += len(field_state.segment.ords)
        assert postings > 10_000
        assert size <= SEALED_BYTES_PER_POSTING * postings
