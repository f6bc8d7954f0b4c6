"""Tests for the query language: lexer, parser, evaluator."""

import string

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import QueryError
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument, FieldMode
from repro.searchengine.index import InvertedIndex
from repro.searchengine.query import (
    AndNode,
    FilterNode,
    NotNode,
    OrNode,
    PhraseNode,
    QueryEvaluator,
    TermNode,
    extract_terms,
    parse_query,
)

from tests.reference_index import doc_ids


class TestParser:
    def test_single_term(self):
        assert parse_query("halo") == TermNode("halo")

    def test_implicit_and(self):
        node = parse_query("halo review")
        assert isinstance(node, AndNode)
        assert node.children == (TermNode("halo"), TermNode("review"))

    def test_explicit_and_keyword(self):
        assert parse_query("halo AND review") == parse_query("halo review")

    def test_or(self):
        node = parse_query("halo OR zelda")
        assert isinstance(node, OrNode)

    def test_or_lowercase_is_term(self):
        # Only uppercase OR is the operator.
        node = parse_query("this or that")
        assert isinstance(node, AndNode)
        assert TermNode("or") in node.children

    def test_not(self):
        node = parse_query("NOT wine")
        assert node == NotNode(TermNode("wine"))

    def test_phrase(self):
        assert parse_query('"combat evolved"') == \
            PhraseNode("combat evolved")

    def test_filter(self):
        assert parse_query("site:gamespot.com") == \
            FilterNode("site", "gamespot.com")

    def test_filter_field_lowercased(self):
        assert parse_query("Site:IGN.com").field == "site"

    def test_parentheses_precedence(self):
        node = parse_query("(halo OR zelda) review")
        assert isinstance(node, AndNode)
        assert isinstance(node.children[0], OrNode)

    def test_or_binds_looser_than_and(self):
        node = parse_query("a b OR c d")
        assert isinstance(node, OrNode)
        assert all(isinstance(child, AndNode) for child in node.children)

    def test_complex_query(self):
        node = parse_query(
            '"Halo Odyssey" review site:gamespot.com NOT preview'
        )
        assert isinstance(node, AndNode)
        kinds = [type(child).__name__ for child in node.children]
        assert kinds == ["PhraseNode", "TermNode", "FilterNode",
                         "NotNode"]

    def test_empty_query_rejected(self):
        for bad in ("", "   "):
            with pytest.raises(QueryError):
                parse_query(bad)

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(QueryError):
            parse_query("(halo")

    def test_dangling_or_rejected(self):
        with pytest.raises(QueryError):
            parse_query("halo OR")

    @given(st.lists(st.sampled_from(
        ["halo", "zelda", "review", '"combat evolved"',
         "site:ign.com", "NOT", "OR", "(", ")"]
    ), min_size=1, max_size=8))
    def test_parser_never_crashes_unexpectedly(self, tokens):
        text = " ".join(tokens)
        try:
            node = parse_query(text)
        except QueryError:
            return
        assert node is not None


class TestExtractTerms:
    def test_positive_terms_only(self):
        analyzer = Analyzer()
        node = parse_query("halo reviews NOT previews")
        assert extract_terms(node, analyzer) == ["halo", "review"]

    def test_double_negation_restores(self):
        analyzer = Analyzer()
        node = parse_query("NOT NOT halo")
        assert extract_terms(node, analyzer) == ["halo"]

    def test_phrase_terms_included_once(self):
        analyzer = Analyzer()
        node = parse_query('"halo game" halo')
        assert extract_terms(node, analyzer) == ["halo", "game"]


@pytest.fixture()
def search_index():
    index = InvertedIndex(Analyzer(),
                          field_modes={"site": FieldMode.KEYWORD})
    docs = [
        ("d1", "Halo Odyssey Review", "the best halo game ever",
         "gamespot.com"),
        ("d2", "Zelda Guide", "zelda walkthrough and tips", "ign.com"),
        ("d3", "Halo and Zelda compared", "crossover combat evolved",
         "blog.example"),
        ("d4", "Wine pairings", "cabernet and merlot notes",
         "winespectator.example"),
    ]
    for doc_id, title, body, site in docs:
        index.add(FieldedDocument(
            doc_id, {"title": title, "body": body, "site": site}
        ))
    return index


class TestEvaluator:
    def evaluate(self, index, text):
        return doc_ids(index, QueryEvaluator(index, ["title", "body"])
                       .candidates(parse_query(text)))

    def test_term_across_fields(self, search_index):
        assert self.evaluate(search_index, "halo") == {"d1", "d3"}

    def test_implicit_and(self, search_index):
        assert self.evaluate(search_index, "halo zelda") == {"d3"}

    def test_or(self, search_index):
        assert self.evaluate(search_index, "zelda OR wine") == \
            {"d2", "d3", "d4"}

    def test_not(self, search_index):
        assert self.evaluate(search_index, "halo NOT zelda") == {"d1"}

    def test_phrase(self, search_index):
        assert self.evaluate(search_index, '"combat evolved"') == {"d3"}
        assert self.evaluate(search_index, '"evolved combat"') == set()

    def test_site_filter(self, search_index):
        assert self.evaluate(search_index, "halo site:gamespot.com") == \
            {"d1"}

    def test_site_filter_no_match(self, search_index):
        assert self.evaluate(search_index, "halo site:nowhere.example") \
            == set()

    def test_text_field_filter(self, search_index):
        assert self.evaluate(search_index, "title:zelda") == {"d2", "d3"}

    def test_stemmed_match(self, search_index):
        assert "d1" in self.evaluate(search_index, "reviews")

    def test_stopword_only_term_matches_nothing(self, search_index):
        assert self.evaluate(search_index, "the") == set()

    def test_and_short_circuit_empty(self, search_index):
        assert self.evaluate(search_index, "halo zzzzz") == set()

    def test_de_morgan_consistency(self, search_index):
        """NOT (a OR b) == NOT a AND NOT b over the candidate sets."""
        left = self.evaluate(search_index, "NOT (halo OR zelda)")
        right = self.evaluate(search_index, "NOT halo NOT zelda")
        assert left == right


class TestPhraseStopWords:
    """Between two phrase terms a document may hold the stop-words the
    phrase holds there, plus one more."""

    def evaluate(self, body, text):
        index = InvertedIndex(Analyzer())
        index.add(FieldedDocument("d1", {"body": body}))
        return doc_ids(index, QueryEvaluator(index, ["body"]).candidates(
            parse_query(text)))

    def test_phrase_with_internal_stop_words_matches_verbatim(self):
        body = "The Lord of the Rings returns"
        assert self.evaluate(body, '"lord of the rings"') == {"d1"}
        assert self.evaluate(body, '"lord of rings"') == {"d1"}
        assert self.evaluate(body, '"lord rings"') == set()
        assert self.evaluate(body, '"rings of the lord"') == set()

    @settings(max_examples=200)
    @given(st.lists(st.one_of(
        st.sampled_from(("the", "of", "a", "and", "it", "lord", "rings",
                         "halo", "Halo's", "x-ray", "e.g.", "--", "2001")),
        st.text(string.ascii_letters + string.digits + "-'.,:()!",
                min_size=1, max_size=8),
    ), min_size=1, max_size=30), st.data())
    def test_any_quoted_run_of_a_body_matches_it(self, words, data):
        start = data.draw(st.integers(0, len(words) - 1))
        end = data.draw(st.integers(start + 1, len(words)))
        run = " ".join(words[start:end])
        assume(Analyzer().analyze(run))
        assert self.evaluate(" ".join(words), f'"{run}"') == {"d1"}
