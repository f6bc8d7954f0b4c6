"""Every engine write advances its vertical's corpus generation.

A web or news look-up cached by the runtime's result cache or by the
gateway's response cache is stamped with the generation of the
vertical it read (``corpus:<vertical>``) and, on a cluster, with the
shard layout. So the next answer after an ``add_document`` or a
``remove_document`` reflects the write, for every tenant sharing the
look-up and on either path — while a write to one vertical leaves the
cached look-ups of every other vertical served.
"""

from repro.core.platform import Symphony
from repro.searchengine.engine import SearchOptions
from repro.searchengine.index import FieldedDocument

COUNT = 10


def host_source_app(sym, name, vertical):
    """An app whose one slot lists a ``vertical`` source's results;
    returns ``(app_id, source)``."""
    account = sym.register_designer(name)
    source = sym.add_web_source(f"{name}'s {vertical}", vertical)
    session = sym.designer().new_application(name, account.tenant.tenant_id)
    slot = session.drag_source_onto_app(source.source_id,
                                        max_results=COUNT)
    session.add_text(slot, "title")
    return sym.host(session), source


def served(response) -> list:
    return [view.item.item_id for view in response.views]


def story(doc_id, title) -> FieldedDocument:
    return FieldedDocument(doc_id=doc_id, fields={
        "url": doc_id, "title": title, "body": title,
        "site": "wire.example", "topic": "news",
    })


def test_news_writes_reach_every_tenant_on_both_paths(tiny_web):
    sym = Symphony(web=tiny_web, use_authority=False, cluster=2,
                   gateway=True)
    apps = []
    for name in ("Ann", "Bob"):
        apps.append(host_source_app(sym, name, "news")[0])
    assert len({sym.sources.get(binding.source_id).cache_identity
                for app_id in apps
                for binding in sym.apps.get(app_id).bindings}) == 1
    paths = (sym.query, sym.query_via_gateway)

    query = next(entity for entity in tiny_web.entities["video_games"]
                 if sym.engine.search("news", entity).results)
    before = served(sym.query(apps[0], query))
    assert before
    for app_id in apps:
        for path in paths:
            assert served(path(app_id, query)) == before

    sym.engine.add_document("news", story("http://wire.example/new",
                                          f"{query} {query}"))
    sym.engine.remove_document("news", before[0])
    expected = sym.engine.search("news", query,
                                 SearchOptions(count=COUNT)).urls()
    assert "http://wire.example/new" in expected
    assert before[0] not in expected
    for app_id in apps:
        for path in paths:
            assert served(path(app_id, query)) == expected, \
                (app_id, path.__name__)


def test_a_story_for_a_query_that_had_none(tiny_web):
    """The cached empty answer does not outlive the story that fills it."""
    sym = Symphony(web=tiny_web, use_authority=False, cluster=2,
                   gateway=True)
    app_id, __ = host_source_app(sym, "Ann", "news")
    for path in (sym.query, sym.query_via_gateway):
        assert served(path(app_id, "zzscoop")) == []
    sym.engine.add_document("news", story("http://wire.example/scoop",
                                          "zzscoop"))
    for path in (sym.query, sym.query_via_gateway):
        assert served(path(app_id, "zzscoop")) \
            == ["http://wire.example/scoop"]


class TestVerticalIsolation:
    def make(self, tiny_web):
        sym = Symphony(web=tiny_web, use_authority=False, cluster=2,
                       gateway=True, controlplane=True)
        app_id, __ = host_source_app(sym, "Ann", "web")
        return sym, app_id, tiny_web.entities["video_games"][0]

    @staticmethod
    def warm(sym, app_id, query):
        """Cache the look-up in both caches and prove both serve it."""
        for path in (sym.query, sym.query_via_gateway):
            path(app_id, query)
        assert sym.query(app_id, query).trace.cache_hits == 1
        hits = sym.gateway.cache.stats()["hits"]
        sym.query_via_gateway(app_id, query)
        assert sym.gateway.cache.stats()["hits"] == hits + 1

    def test_a_news_write_leaves_web_lookups_cached(self, tiny_web):
        sym, app_id, query = self.make(tiny_web)
        self.warm(sym, app_id, query)
        sym.engine.add_document("news", story("http://wire.example/a",
                                              query))
        sym.engine.remove_document("news", "http://wire.example/a")

        response = sym.query(app_id, query)
        assert (response.trace.cache_hits,
                response.trace.cache_misses) == (1, 0)
        hits = sym.gateway.cache.stats()["hits"]
        sym.query_via_gateway(app_id, query)
        assert sym.gateway.cache.stats()["hits"] == hits + 1
        # ... and a web write does not.
        sym.engine.add_document("web", story("http://wire.example/b",
                                             query))
        assert sym.query(app_id, query).trace.cache_hits == 0
        stale = sym.gateway.cache.stats()["stale_invalidations"]
        sym.query_via_gateway(app_id, query)
        assert sym.gateway.cache.stats()["stale_invalidations"] \
            == stale + 1

    def test_a_reshard_cutover_kills_both(self, tiny_web):
        sym, app_id, query = self.make(tiny_web)
        sym.controlplane.begin_split(0)
        while sym.controlplane.step() != "cutover":
            pass
        # The copy stream wrote through replicated_write; the look-up
        # cached after it is current until the route map flips.
        self.warm(sym, app_id, query)
        assert sym.controlplane.step() == "cleanup"

        assert sym.query(app_id, query).trace.cache_hits == 0
        stale = sym.gateway.cache.stats()["stale_invalidations"]
        sym.query_via_gateway(app_id, query)
        assert sym.gateway.cache.stats()["stale_invalidations"] \
            == stale + 1


def test_the_write_counter_is_the_registry(tiny_web):
    """A write moves its own vertical's generation, silently: no
    ``generation.bump`` event per document."""
    sym = Symphony(web=tiny_web, use_authority=False, cluster=2,
                   telemetry=True)
    sym.engine.add_document("news", story("http://wire.example/c", "c"))
    sym.engine.remove_document("news", "http://wire.example/c")
    assert sym.generations.current("corpus:news") == 2
    assert sym.generations.current("corpus:web") == 0
    assert sym.telemetry.events.by_kind("generation.bump") == []
