"""Tests for query-biased snippets and spelling suggestion."""

import pytest
from hypothesis import given, strategies as st

from repro.searchengine import snippets
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.index import InvertedIndex
from repro.searchengine.snippets import CAPTION_MEMO_SIZE, best_window
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


    def test_second_caption_of_a_body_tokenizes_nothing(self, monkeypatch):
        text = "a half-life -- review of İstanbul's café, e.g. 3.5/5 " * 4
        calls = []
        tokenize = snippets.tokenize

        def spy(word):
            calls.append(word)
            return tokenize(word)

        monkeypatch.setattr(snippets, "tokenize", spy)
        snippets._word_table.cache_clear()
        first = best_window(text, [3, 40], width=5)
        assert calls
        del calls[:]
        assert best_window(text, [3, 40], width=5) == first
        assert best_window(text, [7], width=9) != first
        assert calls == []

    def test_memo_keeps_the_most_recent_bodies(self):
        snippets._word_table.cache_clear()
        for n in range(CAPTION_MEMO_SIZE + 10):
            best_window(f"body number {n}", [2], width=2)
        info = snippets._word_table.cache_info()
        assert info.currsize == CAPTION_MEMO_SIZE
        assert info.misses == CAPTION_MEMO_SIZE + 10
        best_window(f"body number {CAPTION_MEMO_SIZE + 9}", [0], width=2)
        assert snippets._word_table.cache_info().hits == 1

    def test_positions_outside_the_body_are_ignored(self):
        text = "alpha beta gamma delta epsilon zeta"
        lead = "alpha beta …"
        assert best_window(text, [-1], width=2) == lead
        assert best_window(text, [-6, -2], width=2) == lead
        assert best_window(text, [6, 99], width=2) == lead
        assert best_window(text, [-1, 5, 6], width=2) == "… epsilon zeta"

    def test_hit_positions_may_be_a_generator(self):
        text = "alpha beta gamma delta epsilon zeta"
        hits = (position for position in (3, 4))
        assert best_window(text, hits, width=2) == "… delta epsilon …"

    def test_late_hit_in_a_body_past_two_byte_word_indices(self):
        size = (1 << 16) + 50
        words = [f"w{n}" for n in range(size)]
        words[-10] = "half-life"    # two tokens: token p + 1 is word p after it
        text = " ".join(words)
        got = best_window(text, [size - 3], width=3)
        assert got == f"… w{size - 6} w{size - 5} w{size - 4} …"
        assert snippets._word_table(text).itemsize == 4

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
