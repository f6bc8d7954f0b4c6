"""Tests for BM25, PageRank, recency boosting, and score blending."""

import pytest
from hypothesis import given, strategies as st

from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.index import InvertedIndex
from repro.searchengine.ranking import (
    BM25Parameters,
    BM25Scorer,
    pagerank,
    recency_boost,
)
from tests.test_ranking_equivalence import blend_scores


@pytest.fixture()
def index():
    idx = InvertedIndex(Analyzer())
    docs = [
        ("short", "halo review"),
        ("long", "halo " + "filler " * 60 + "review"),
        ("repeat", "halo halo halo review"),
        ("other", "zelda walkthrough guide"),
        ("common", "game game game game"),
    ]
    for doc_id, body in docs:
        idx.add(FieldedDocument(doc_id, {"body": body}))
    return idx


def score(index, doc_id, terms, params=None):
    """BM25 of one ``body`` for one query (the scorer is per query)."""
    [(__, value)] = BM25Scorer(index, ["body"], params,
                               terms).rank({index.ordinal(doc_id)})
    return value


class TestBM25:
    def test_matching_beats_nonmatching(self, index):
        assert score(index, "short", ["halo"]) > 0
        assert score(index, "other", ["halo"]) == 0

    def test_term_frequency_saturates(self, index):
        """More occurrences help, but sub-linearly (k1 saturation)."""
        single = score(index, "short", ["halo"])
        triple = score(index, "repeat", ["halo"])
        assert triple > single
        assert triple < 3 * single

    def test_length_normalization_prefers_short(self, index):
        assert score(index, "short", ["halo"]) > \
            score(index, "long", ["halo"])

    def test_rare_terms_weigh_more(self, index):
        """idf: 'zelda' (df=1) outweighs 'halo' (df=3) in its own doc."""
        zelda = score(index, "other", ["zelda"])
        halo = score(index, "short", ["halo"])
        assert zelda > halo

    def test_field_boost_scales(self, index):
        plain = score(index, "short", ["halo"], BM25Parameters())
        boosted = score(index, "short", ["halo"],
                        BM25Parameters(field_boosts={"body": 2.0}))
        assert boosted == pytest.approx(2.0 * plain)

    def test_multi_term_additive(self, index):
        both = score(index, "short", ["halo", "review"])
        assert both == pytest.approx(
            score(index, "short", ["halo"])
            + score(index, "short", ["review"])
        )

    def test_idf_positive_even_for_ubiquitous_term(self):
        idx = InvertedIndex(Analyzer())
        for i in range(5):
            idx.add(FieldedDocument(f"d{i}", {"body": "halo everywhere"}))
        assert score(idx, "d0", ["halo"]) > 0


class TestPageRank:
    def test_empty_graph(self):
        assert pagerank({}) == {}

    def test_probability_distribution(self):
        graph = {"a": ["b"], "b": ["c"], "c": ["a"]}
        ranks = pagerank(graph)
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_cycle_uniform(self):
        graph = {"a": ["b"], "b": ["c"], "c": ["a"]}
        ranks = pagerank(graph)
        assert ranks["a"] == pytest.approx(ranks["b"], abs=1e-9)
        assert ranks["b"] == pytest.approx(ranks["c"], abs=1e-9)

    def test_authority_concentrates_on_popular_node(self):
        graph = {"a": ["hub"], "b": ["hub"], "c": ["hub"], "hub": ["a"]}
        ranks = pagerank(graph)
        assert ranks["hub"] == max(ranks.values())

    def test_dangling_nodes_handled(self):
        graph = {"a": ["sink"], "sink": []}
        ranks = pagerank(graph)
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)
        assert ranks["sink"] > ranks["a"]

    def test_targets_only_nodes_included(self):
        graph = {"a": ["b"]}
        ranks = pagerank(graph)
        assert "b" in ranks

    @given(st.dictionaries(
        st.sampled_from("abcdef"),
        st.lists(st.sampled_from("abcdef"), max_size=4),
        min_size=1, max_size=6,
    ))
    def test_always_sums_to_one(self, graph):
        ranks = pagerank(graph)
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-4)
        assert all(value >= 0 for value in ranks.values())


class TestRecencyBoost:
    DAY_MS = 86_400_000

    def test_fresh_is_one(self):
        now = 1_000 * self.DAY_MS
        assert recency_boost(now, now) == pytest.approx(1.0)

    def test_half_life(self):
        now = 1_000 * self.DAY_MS
        month_old = now - 30 * self.DAY_MS
        assert recency_boost(month_old, now, half_life_days=30) == \
            pytest.approx(0.5)

    def test_unknown_published_is_zero(self):
        assert recency_boost(0, 12345) == 0.0

    def test_future_clamped(self):
        now = 1_000 * self.DAY_MS
        assert recency_boost(now + self.DAY_MS, now) == 1.0

    def test_monotone_decreasing(self):
        now = 1_000 * self.DAY_MS
        boosts = [recency_boost(now - d * self.DAY_MS, now)
                  for d in range(0, 120, 10)]
        assert boosts == sorted(boosts, reverse=True)


class TestBlend:
    def test_zero_prior_identity(self):
        assert blend_scores(3.0, 0.0) == 3.0

    def test_prior_monotone(self):
        assert blend_scores(3.0, 1.0) > blend_scores(3.0, 0.5) > \
            blend_scores(3.0, 0.0)

    def test_zero_relevance_stays_zero(self):
        assert blend_scores(0.0, 1.0) == 0.0

    def test_weight_controls_magnitude(self):
        assert blend_scores(2.0, 1.0, prior_weight=0.5) == \
            pytest.approx(3.0)
