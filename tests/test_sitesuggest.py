"""Tests for Site Suggest: co-occurrence graph and suggestion ranking."""

import pytest

from repro.errors import ValidationError
from repro.searchengine.logs import ClickEvent, QueryLog
from repro.sitesuggest import SiteCooccurrenceGraph, SiteSuggest


def click(query, site):
    return ClickEvent(timestamp_ms=0, query=query,
                      url=f"http://{site}/page")


def build_log(pairs):
    """pairs: iterable of (query, [sites clicked])."""
    log = QueryLog()
    for query, sites in pairs:
        for site in sites:
            log.log_click(click(query, site))
    return log


@pytest.fixture()
def game_graph():
    # gamespot/ign co-click heavily; wine site co-clicks with neither.
    log = build_log([
        ("halo review", ["gamespot.com", "ign.com"]),
        ("zelda review", ["gamespot.com", "ign.com", "teamxbox.com"]),
        ("mario guide", ["ign.com", "teamxbox.com"]),
        ("combat tips", ["gamespot.com", "teamxbox.com"]),
        ("cabernet notes", ["winespectator.example",
                            "cellartracker.example"]),
    ])
    return SiteCooccurrenceGraph.from_query_log(log)


class TestGraph:
    def test_cooccurrence_weights(self, game_graph):
        assert game_graph.edge_weight("gamespot.com", "ign.com") == 2.0
        assert game_graph.edge_weight("ign.com", "gamespot.com") == 2.0

    def test_no_self_edges(self, game_graph):
        assert game_graph.edge_weight("ign.com", "ign.com") == 0.0

    def test_unrelated_sites_unconnected(self, game_graph):
        assert game_graph.edge_weight(
            "gamespot.com", "winespectator.example"
        ) == 0.0

    def test_degree(self, game_graph):
        site = "gamespot.com"
        out = sum(game_graph.edge_weight(site, other)
                  for other in game_graph.sites())
        into = sum(game_graph.edge_weight(other, site)
                   for other in game_graph.sites())
        assert out == into > 0

    def test_single_click_queries_add_no_edges(self):
        graph = SiteCooccurrenceGraph.from_query_log(
            build_log([("solo", ["only.example"])])
        )
        assert graph.sites() == []

    def test_pmi_positive_for_strong_pairs(self, game_graph):
        strong = game_graph.pmi("winespectator.example",
                                "cellartracker.example")
        weak = game_graph.pmi("gamespot.com", "winespectator.example")
        assert strong > weak == 0.0

    def test_blend_link_graph_adds_weak_edges(self, game_graph):
        before = game_graph.edge_weight("gamespot.com", "blog.example")
        game_graph.blend_link_graph(
            {"blog.example": {"gamespot.com": 4}}, weight=0.25
        )
        after = game_graph.edge_weight("gamespot.com", "blog.example")
        assert before == 0.0 and after == pytest.approx(1.0)

    def test_add_edge_ignores_nonpositive(self):
        graph = SiteCooccurrenceGraph()
        graph.add_edge("a", "b", 0.0)
        graph.add_edge("a", "b", -1.0)
        assert graph.sites() == []


class TestSuggest:
    def test_random_walk_finds_coclicked_sites(self, game_graph):
        suggestions = SiteSuggest(game_graph).suggest(
            ["gamespot.com"], count=3
        )
        sites = [s.site for s in suggestions]
        assert "ign.com" in sites
        assert "teamxbox.com" in sites
        assert "winespectator.example" not in sites

    def test_seeds_excluded_from_output(self, game_graph):
        suggestions = SiteSuggest(game_graph).suggest(
            ["gamespot.com", "ign.com"], count=5
        )
        assert {"gamespot.com", "ign.com"}.isdisjoint(
            s.site for s in suggestions
        )

    def test_scores_sorted_descending(self, game_graph):
        suggestions = SiteSuggest(game_graph).suggest(
            ["gamespot.com"], count=5
        )
        scores = [s.score for s in suggestions]
        assert scores == sorted(scores, reverse=True)

    def test_pmi_method(self, game_graph):
        suggestions = SiteSuggest(game_graph).suggest(
            ["winespectator.example"], count=3, method="pmi"
        )
        assert suggestions[0].site == "cellartracker.example"
        assert suggestions[0].method == "pmi"

    def test_multiple_seeds_paper_scenario(self, game_graph):
        """§II-B: seeds {gamespot, ign, teamxbox} — topical site comes
        back, off-topic doesn't."""
        suggestions = SiteSuggest(game_graph).suggest(
            ["gamespot.com", "ign.com", "teamxbox.com"], count=5
        )
        assert all("wine" not in s.site for s in suggestions)

    def test_unknown_seed_yields_empty(self, game_graph):
        assert SiteSuggest(game_graph).suggest(
            ["unknown.example"], count=3
        ) == []

    def test_no_seeds_rejected(self, game_graph):
        with pytest.raises(ValidationError):
            SiteSuggest(game_graph).suggest([])

    def test_unknown_method_rejected(self, game_graph):
        with pytest.raises(ValidationError):
            SiteSuggest(game_graph).suggest(["gamespot.com"],
                                            method="magic")

    def test_count_limits_output(self, game_graph):
        suggestions = SiteSuggest(game_graph).suggest(
            ["gamespot.com"], count=1
        )
        assert len(suggestions) == 1
