"""The one search contract both engines implement.

``WebSearchSource`` and federation's ``EngineBackend`` call either
engine the same way — no ``getattr`` probe decides what to pass — so the
single-node and the clustered engine must agree on the signature, the
response shape, and how they name their data dependencies.
"""

from __future__ import annotations

import pytest

from repro.cluster import build_clustered_engine
from repro.core.datasources import SourceQuery, WebSearchSource
from repro.federation import EngineBackend
from repro.resilience import Deadline
from repro.searchengine.engine import SearchOptions, build_engine

BUILDERS = {
    "single_node": (build_engine, ()),
    "clustered": (build_clustered_engine, ("cluster-topology",)),
}


@pytest.fixture(params=sorted(BUILDERS))
def engine_and_keys(request, tiny_web):
    build, keys = BUILDERS[request.param]
    return build(tiny_web), keys


def test_search_accepts_deadline_and_reports_degraded(engine_and_keys,
                                                      tiny_web):
    engine, __ = engine_and_keys
    query = tiny_web.entities["video_games"][0]
    plain = engine.search("web", query, SearchOptions(count=3))
    budgeted = engine.search("web", query, SearchOptions(count=3),
                             deadline=Deadline(engine.clock, 10_000))
    assert plain.results
    assert budgeted.urls() == plain.urls()
    assert plain.degraded is False and budgeted.degraded is False


def test_generation_keys_are_the_engines_answer(engine_and_keys, tiny_web):
    engine, shared = engine_and_keys
    # Each vertical's own corpus, plus what every vertical shares.
    for vertical in ("web", "news"):
        keys = (f"corpus:{vertical}", *shared)
        assert engine.generation_keys(vertical) == keys
        assert WebSearchSource("s1", "Web", engine, vertical=vertical) \
            .generation_keys() == keys
        assert EngineBackend("local", engine, vertical=vertical) \
            .descriptor.generation_keys == keys
    # The source forwards the query's deadline to whichever engine.
    source = WebSearchSource("s1", "Web", engine)
    result = source.search(SourceQuery(
        text=tiny_web.entities["video_games"][0], count=2,
        context={"deadline": Deadline(engine.clock, 10_000)},
    ))
    assert result.items and not result.degraded
