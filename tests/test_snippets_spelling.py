"""Tests for query-biased snippets and spelling suggestion."""

import pytest
from hypothesis import given, strategies as st

from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.index import InvertedIndex
from repro.searchengine.snippets import best_window, highlight
from repro.searchengine.spelling import SpellingCorrector, edit_distance


@pytest.fixture()
def analyzer():
    return Analyzer()


def window(text, terms, analyzer, width=30):
    """``best_window`` over the positions an index of ``text`` would
    hold for the analyzed ``terms``."""
    wanted = set(terms)
    hits = [position for term, position
            in analyzer.analyze_with_positions(text) if term in wanted]
    return best_window(text, hits, width)


class TestBestWindow:
    def test_window_centres_on_matches(self, analyzer):
        text = ("filler " * 40) + "the halo review everyone wanted " \
            + ("padding " * 40)
        snippet = window(text, ["halo", "review"], analyzer, width=10)
        assert "halo" in snippet and "review" in snippet
        assert snippet.startswith("… ")

    def test_leading_window_when_no_terms(self, analyzer):
        text = "alpha beta gamma delta"
        assert window(text, [], analyzer, width=2) == "alpha beta …"

    def test_no_match_falls_back_to_lead(self, analyzer):
        text = "alpha beta gamma delta epsilon"
        snippet = window(text, ["zzz"], analyzer, width=3)
        assert snippet == "alpha beta gamma …"

    def test_short_text_unmarked(self, analyzer):
        assert window("only four words here", ["words"],
                      analyzer, width=10) == "only four words here"

    def test_empty_text(self, analyzer):
        assert window("", ["x"], analyzer) == ""

    def test_stemmed_variants_count(self, analyzer):
        text = ("pad " * 30) + "many reviews praised it " + ("pad " * 30)
        snippet = window(text, ["review"], analyzer, width=8)
        assert "reviews" in snippet

    @given(st.lists(st.sampled_from(["halo", "game", "pad", "review"]),
                    min_size=1, max_size=60))
    def test_window_is_substring_of_text(self, words):
        analyzer = Analyzer()
        text = " ".join(words)
        snippet = window(text, ["halo"], analyzer, width=10)
        core = snippet.strip("… ").strip()
        assert core in text


class TestHighlight:
    def test_wraps_matches(self, analyzer):
        out = highlight("great halo review", ["halo"], analyzer)
        assert out == "great <b>halo</b> review"

    def test_stemmed_match_highlighted(self, analyzer):
        out = highlight("many reviews", ["review"], analyzer)
        assert "<b>reviews</b>" in out

    def test_no_terms_identity(self, analyzer):
        assert highlight("text", [], analyzer) == "text"

    def test_custom_tags(self, analyzer):
        out = highlight("halo", ["halo"], analyzer, "<em>", "</em>")
        assert out == "<em>halo</em>"


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("halo", "halo") == 0

    def test_substitution(self):
        assert edit_distance("halo", "hale") == 1

    def test_insertion_deletion(self):
        assert edit_distance("halo", "haloo") == 1
        assert edit_distance("halo", "hal") == 1

    def test_transposition_costs_two(self):
        assert edit_distance("halo", "ahlo") == 2

    def test_cap_early_exit(self):
        assert edit_distance("aaaa", "zzzzzzzz", cap=3) == 3

    @given(st.text(alphabet="abc", max_size=8),
           st.text(alphabet="abc", max_size=8))
    def test_symmetric(self, a, b):
        assert edit_distance(a, b, cap=10) == edit_distance(b, a,
                                                            cap=10)

    @given(st.text(alphabet="abc", max_size=8))
    def test_zero_iff_equal(self, a):
        assert edit_distance(a, a) == 0


class TestSpellingCorrector:
    @pytest.fixture()
    def index(self):
        idx = InvertedIndex(Analyzer())
        docs = [
            ("d1", "halo review game"),
            ("d2", "halo game console"),
            ("d3", "zelda game guide"),
            ("d4", "halo trailer"),
        ]
        for doc_id, body in docs:
            idx.add(FieldedDocument(doc_id, {"body": body}))
        return idx

    def test_corrects_typo_to_frequent_term(self, index):
        corrector = SpellingCorrector(index)
        assert corrector.suggest("halp") == "halo"

    def test_known_terms_untouched(self, index):
        corrector = SpellingCorrector(index)
        assert corrector.suggest("halo") is None

    def test_too_far_no_suggestion(self, index):
        corrector = SpellingCorrector(index)
        assert corrector.suggest("xxxxxxxxxx") is None

    def test_frequency_breaks_ties(self, index):
        # "galo" is distance 1 from "halo"(freq 3) and "game"(... no,
        # distance 2). halo wins by distance anyway; check frequency
        # preference between zelda(1)/game(3)-adjacent typos.
        corrector = SpellingCorrector(index, min_frequency=1)
        assert corrector.suggest("gamr") == "game"

    def test_min_frequency_filters_rare_terms(self, index):
        strict = SpellingCorrector(index, min_frequency=3)
        assert not strict.known("zelda")  # appears once only

    def test_suggest_query_partial_correction(self, index):
        corrector = SpellingCorrector(index)
        corrected = corrector.suggest_query(["halp", "game"])
        assert corrected == ["halo", "game"]
        assert corrector.suggest_query(["halo", "game"]) is None


class TestEngineIntegration:
    def test_zero_hit_query_gets_suggestion(self, engine, small_web):
        response = engine.search("web", "reviw zzqqxx")
        assert response.total_matches == 0
        assert response.suggestion is not None
        assert "review" in response.suggestion

    def test_hit_query_has_no_suggestion(self, engine, small_web):
        entity = small_web.entities["video_games"][0]
        response = engine.search("web", entity)
        assert response.suggestion is None

    def test_snippets_contain_query_terms(self, engine, small_web):
        entity = small_web.entities["video_games"][0]
        response = engine.search("web", f'"{entity}" review')
        head = entity.split()[0].lower()
        assert any(head in r.snippet.lower() for r in response.results)
