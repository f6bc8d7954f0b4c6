"""The one search contract both engines implement.

``WebSearchSource`` calls either engine the same way — no ``getattr``
probe decides what to pass — so the single-node and the clustered
engine must agree on the signature, the response shape, and how they
name their data dependencies.
"""

from __future__ import annotations

import pytest

from repro.cluster import build_clustered_engine
from repro.core.datasources import SourceQuery, WebSearchSource
from repro.resilience import Deadline
from repro.searchengine.engine import SearchOptions, build_engine
from repro.util import SimClock

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
    # The source forwards the query's deadline to whichever engine.
    source = WebSearchSource("s1", "Web", engine)
    result = source.search(SourceQuery(
        text=tiny_web.entities["video_games"][0], count=2,
        context={"deadline": Deadline(engine.clock, 10_000)},
    ))
    assert result.items and not result.degraded


# -- search_many: N look-ups in one call --------------------------------------


class FrozenClock(SimClock):
    """A clock no charge moves: every search sees one instant, which is
    what a batch promises."""

    def advance(self, delta_ms: float) -> int:
        return self.now_ms


def _frozen(build, web):
    return build(web, clock=FrozenClock())


def _answer(response) -> tuple:
    return (response.urls(), [r.score for r in response.results],
            [r.snippet for r in response.results], response.total_matches,
            response.suggestion, response.degraded, response.elapsed_ms)


def _requests(web) -> list:
    games = web.entities["video_games"]
    return [
        ("web", games[0], SearchOptions(count=3)),
        ("web", games[1], SearchOptions(count=2, sites=("ign.com",))),
        ("web", games[0], SearchOptions(count=2, offset=1,
                                        augment_terms=("review",))),
        ("web", "zeldda legnds", SearchOptions(count=2)),   # no hit
        ("web", "site:gamespot.com", SearchOptions(count=2)),  # filter only
        ("news", games[2], SearchOptions(count=2, freshness_days=3650)),
    ]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_search_many_equals_searches_at_one_instant(name, tiny_web):
    build = BUILDERS[name][0]
    for vertical in ("web", "news"):
        batch = [(text, options) for v, text, options in _requests(tiny_web)
                 if v == vertical]
        single, many = _frozen(build, tiny_web), _frozen(build, tiny_web)
        expected = [single.search(vertical, text, options, app_id="a")
                    for text, options in batch]
        answered = many.search_many(vertical, batch, app_id="a")
        assert [_answer(r) for r in answered] == \
            [_answer(r) for r in expected]
        # Each request is its own logged search.
        assert [(e.query, e.app_id, e.result_urls)
                for e in many.log.queries] == \
            [(e.query, e.app_id, e.result_urls)
             for e in single.log.queries]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_search_many_answers_duplicates_and_sites_per_request(name,
                                                            tiny_web):
    engine = _frozen(BUILDERS[name][0], tiny_web)
    game = tiny_web.entities["video_games"][0]
    by_site = [(game, SearchOptions(count=5, sites=(site,)))
               for site in ("ign.com", "gamespot.com")]
    batch = [by_site[0], by_site[0], by_site[1]]
    answered = engine.search_many("web", batch)
    assert len(answered) == 3
    assert _answer(answered[0]) == _answer(answered[1])
    for response, (__, options) in zip(answered, batch):
        assert {r.site for r in response.results} <= set(options.sites)
        assert _answer(response) == _answer(
            engine.search("web", game, options))
    assert answered[0].urls() != answered[2].urls()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_search_many_of_nothing_does_nothing(name, tiny_web):
    engine = BUILDERS[name][0](tiny_web)
    before = engine.clock.now_ms
    assert engine.search_many("web", []) == []
    assert engine.clock.now_ms == before
    assert engine.log.queries == []


def test_search_many_charges_each_request_its_own_search(tiny_web):
    engine = build_clustered_engine(tiny_web)
    batch = [(text, SearchOptions(count=2))
             for text in tiny_web.entities["video_games"][:3]]
    start = engine.clock.now_ms
    answered = engine.search_many("web", batch)
    # The clock rounds each charge, so the batch pays their sum.
    assert engine.clock.now_ms - start == sum(
        int(round(r.elapsed_ms)) for r in answered)


def test_killed_shard_degrades_every_request_in_the_batch(tiny_web):
    engine = build_clustered_engine(tiny_web)
    engine.kill_replica(0, 0)
    batch = [(text, SearchOptions(count=3))
             for text in tiny_web.entities["video_games"][:3]]
    answered = engine.search_many("web", batch)
    assert [r.failed_shards for r in answered] == [(0,)] * 3
    assert all(r.degraded and r.shards_ok == 3 for r in answered)
    assert [_answer(r) for r in answered] == [
        _answer(engine.search("web", text, options))
        for text, options in batch]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_expired_deadline_gives_each_request_the_overrun_response(
        name, tiny_web):
    engine = BUILDERS[name][0](tiny_web)
    deadline = Deadline(engine.clock, 1)
    engine.clock.advance(5)
    batch = [(text, SearchOptions(count=2))
             for text in tiny_web.entities["video_games"][:2]]
    answered = engine.search_many("web", batch, deadline=deadline)
    expected = [engine.search("web", text, options, deadline=deadline)
                for text, options in batch]
    assert [_answer(r) for r in answered] == [_answer(r) for r in expected]
    if name == "clustered":
        # Nothing is scattered once the budget is gone; each request
        # is charged the fixed overhead and comes back empty.
        assert all(r.deadline_overrun and r.degraded and not r.results
                   and r.elapsed_ms == 12.0 for r in answered)
    else:
        # One node's search is one non-preemptible step.
        assert all(r.results and not r.degraded for r in answered)
