"""Tests for the positional inverted index."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import ClusterConfig, build_clustered_engine
from repro.errors import DuplicateError, NotFoundError
from repro.searchengine import index as index_module
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument, FieldMode
from repro.searchengine.engine import Vertical, build_engine
from repro.searchengine.index import InvertedIndex
from repro.searchengine.stats import CorpusStats


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
        assert not index.postings("title", "alpha")
        assert "d1" in index.postings("title", "beta")

    def test_remove_clears_postings_and_lengths(self):
        index = make_index()
        index.add(doc("d1", title="gamma delta"))
        index.add(doc("d2", title="gamma"))
        index.remove("d1")
        assert "d1" not in index
        assert list(index.postings("title", "gamma")) == ["d2"]
        assert index.field_lengths("title").get("d1", 0) == 0
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
        assert index.vocabulary_size("title") == 0
        assert index.postings("body", "real")


def structures(index):
    """Everything an index derives from its documents."""
    return (index._postings, index._keyword, index._field_lengths,
            index._total_field_length)


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

    def build(self, docs=DOCS):
        index = make_index(site=FieldMode.KEYWORD, topic=FieldMode.KEYWORD)
        for document in docs:
            index.add(document)
        return index

    def test_emptied_keyword_bucket_is_deleted(self):
        index = self.build()
        index.remove("d3")
        assert "wine" not in index._keyword["topic"]
        assert index._keyword["site"] == {"a.example": {"d1"},
                                          "b.example": {"d2"}}

    @pytest.mark.parametrize("victim", ["d1", "d2", "d3"])
    def test_remove_equals_never_added(self, victim):
        index = self.build()
        index.remove(victim)
        never = self.build([d for d in self.DOCS if d.doc_id != victim])
        assert structures(index) == structures(never)

    @pytest.mark.parametrize("victim", ["d1", "d2", "d3"])
    def test_remove_then_readd_equals_never_removed(self, victim):
        index = self.build()
        index.remove(victim)
        index.add(next(d for d in self.DOCS if d.doc_id == victim))
        assert structures(index) == structures(self.build())

    def test_remove_does_not_walk_a_field_map(self):
        index = self.build()
        for maps in (index._postings, index._keyword):
            for name in maps:
                maps[name] = _NoWalk(maps[name])
        index.remove("d1")
        assert "d1" not in index
        assert list(index.postings("title", "halo")) == ["d2"]
        assert not index.postings("title", "odyssey")
        assert index.keyword_matches("site", "a.example") == {"d3"}
        with pytest.raises(NotFoundError):
            index.remove("d1")

    def test_docstring_states_the_precondition(self):
        text = " ".join(InvertedIndex.__doc__.split())
        assert "``fields`` are not mutated after :meth:`add`" in text


class TestTextPostings:
    def test_positions_recorded(self):
        index = make_index()
        index.add(doc("d1", body="alpha beta alpha"))
        positions = index.postings("body", "alpha")["d1"]
        assert positions == (0, 2)
        assert len(positions) == 2

    def test_analysis_applied(self):
        index = make_index()
        index.add(doc("d1", body="The Reviews"))
        assert "d1" in index.postings("body", "review")
        assert not index.postings("body", "the")

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
        assert index.keyword_matches("site", "a.example") == {"d1"}


class TestKeywordFields:
    def test_exact_match_case_insensitive(self):
        index = make_index(site=FieldMode.KEYWORD)
        index.add(doc("d1", site="GameSpot.com"))
        assert index.keyword_matches("site", "gamespot.com") == {"d1"}

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
        assert matched == {"d1"}

    def test_phrase_tolerates_stopword_gap(self):
        index = make_index()
        index.add(doc("d1", body="lord of rings"))
        matched = index.phrase_matches(
            "body", index.analyzer.analyze("lord rings")
        )
        assert matched == {"d1"}

    def test_single_term_phrase(self):
        index = make_index()
        index.add(doc("d1", body="halo"))
        assert index.phrase_matches("body", ["halo"]) == {"d1"}

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


# -- shared position tuples ---------------------------------------------------


def postings_entries(index):
    """Every ``(field, term, doc_id, positions)`` postings entry."""
    return [(name, term, doc_id, positions)
            for name, term_map in index._postings.items()
            for term, by_doc in term_map.items()
            for doc_id, positions in by_doc.items()]


def vertical_indexes(engine):
    return [engine.vertical(vertical).index for vertical in Vertical]


@pytest.fixture(scope="module")
def replicated(tiny_web):
    """A 2-shard x 2-replica cluster built against an empty memo."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(index_module, "_POSITIONS_MEMO", {})
        yield build_clustered_engine(
            tiny_web,
            ClusterConfig(num_shards=2, replicas_per_shard=2),
            use_authority=False,
        )


class TestSharedPositions:
    def test_replicas_of_a_shard_hold_the_same_objects(self, replicated):
        for group in replicated.groups:
            first, second = group.replicas
            for vertical in Vertical:
                mine = postings_entries(first.vertical(vertical).index)
                theirs = postings_entries(second.vertical(vertical).index)
                assert [entry[:3] for entry in mine] == \
                    [entry[:3] for entry in theirs]
                assert all(a[3] is b[3] for a, b in zip(mine, theirs))

    def test_distinct_position_objects_are_few(self, replicated):
        """A deterministic stand-in for peak RSS: unshared, every entry
        would be its own object."""
        every = [entry[3] for group in replicated.groups
                 for replica in group.replicas
                 for vertical in Vertical
                 for entry in postings_entries(
                     replica.vertical(vertical).index)]
        assert len({id(positions) for positions in every}) \
            <= 0.15 * len(every)

    def test_a_full_memo_stops_growing_and_changes_nothing(
            self, tiny_web, monkeypatch):
        monkeypatch.setattr(index_module, "_shared",
                            lambda positions: positions)
        reference = build_engine(tiny_web, use_authority=False)
        monkeypatch.undo()
        memo = {}
        monkeypatch.setattr(index_module, "_POSITIONS_MEMO", memo)
        monkeypatch.setattr(index_module, "POSITIONS_MEMO_SIZE", 64)
        shared = build_engine(tiny_web, use_authority=False)
        assert len(memo) == 64
        for mine, plain in zip(vertical_indexes(shared),
                               vertical_indexes(reference)):
            assert mine._postings == plain._postings
            # nothing filed is ever evicted or replaced
            for *_, positions in postings_entries(mine):
                if positions in memo:
                    assert memo[positions] is positions
