"""Experiment X5 — ranking ablation: BM25-only vs BM25 + link authority.

DESIGN.md §6: the web vertical blends BM25 text relevance with a
PageRank prior. The quality proxy: when searching for an entity with
review intent, the well-known high-authority sites (gamespot/ign/...)
should fill more of the top-3 with the prior enabled, without changing
the candidate set. Also times the blended ranking path.
"""

import pytest

from repro.searchengine.engine import SearchOptions, build_engine
from repro.simweb.vocab import topic_vocabulary

from benchmarks.conftest import record_artifact


@pytest.fixture(scope="module")
def engines(bench_web):
    return (build_engine(bench_web, use_authority=True),
            build_engine(bench_web, use_authority=False))


GENERIC_QUERIES = ("game review", "console game", "wine tasting notes",
                   "travel guide", "breaking report")


def mean_top10_site_authority(engine, web):
    """Average authority hint of the sites serving top-10 results.

    Generic queries leave many near-ties in text relevance, so the
    ordering choice among them is exactly what the prior decides.
    """
    values = []
    for query in GENERIC_QUERIES:
        response = engine.search("web", query, SearchOptions(count=10))
        for result in response.results:
            values.append(web.sites[result.site].authority_hint)
    return sum(values) / len(values)


def test_authority_prior_promotes_known_sites(benchmark, engines,
                                              bench_web):
    with_prior, without_prior = engines

    mean_with = benchmark.pedantic(
        mean_top10_site_authority, args=(with_prior, bench_web),
        rounds=3, iterations=1,
    )
    mean_without = mean_top10_site_authority(without_prior, bench_web)

    record_artifact(
        "x5_ranking_ablation",
        "Mean site authority of top-10 results on generic queries\n"
        f"BM25 + authority : {mean_with:.3f}\n"
        f"BM25 only        : {mean_without:.3f}\n"
        "(same candidate sets; only the ordering changes)",
    )
    # The prior pulls higher-authority sites upward...
    assert mean_with > mean_without

    # ...without changing the candidate set.
    entity = bench_web.entities["video_games"][0]
    a = with_prior.search("web", f'"{entity}"',
                          SearchOptions(count=100))
    b = without_prior.search("web", f'"{entity}"',
                             SearchOptions(count=100))
    assert set(a.urls()) == set(b.urls())

    # Well-known (high-authority) review sites still dominate focused
    # review queries under both configurations.
    well_known = set(topic_vocabulary("video_games").sites)
    for engine in engines:
        response = engine.search(
            "web", f'"{entity}" review', SearchOptions(count=3)
        )
        assert {r.site for r in response.results} <= well_known


def test_ranking_cost_of_blending(benchmark, engines):
    """Blending adds a dict lookup per candidate; the fixture times it."""
    with_prior, __ = engines

    def query_with():
        return with_prior.search("web", "game review",
                                 SearchOptions(count=10))

    response = benchmark(query_with)
    assert response.results
