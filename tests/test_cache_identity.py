"""What the runtime's result cache keys an entry on.

An entry is keyed on the source's ``cache_identity`` — for a web source,
everything its search reads besides the query — plus the query, page
and the slot's search fields. Tenants whose web sources are configured
alike share their supplemental look-ups; anything else never shares,
and every answer served from the cache is the answer without it.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.datasources import WebSearchSource
from repro.core.platform import Symphony
from repro.services.samples import PricingService

from .conftest import make_inventory_csv

#: The reviews source every tenant starts from.
WEB = {"vertical": "web", "sites": ("gamespot.com", "ign.com"),
       "augment_terms": (), "freshness_days": None}
#: One changed value per configuration field.
VARIANTS = {"vertical": "news", "sites": ("ign.com",),
            "augment_terms": ("review",), "freshness_days": 30}


def engine_searches(sym) -> int:
    """Engine look-ups so far (``"app"`` events are customer queries)."""
    return sum(event.vertical != "app" for event in sym.engine.log.queries)


def host_tenant(sym, name, games, web=WEB):
    """A Fig. 2 app: the tenant's catalogue, each game driving a
    look-up on a reviews source configured by ``web``. Returns
    ``(app_id, reviews source)``."""
    account = sym.register_designer(name)
    sym.upload_http(account, "inventory.csv", make_inventory_csv(games),
                    "inventory", content_type="text/csv")
    inventory = sym.add_proprietary_source(account, "inventory",
                                           search_fields=("title",))
    reviews = sym.add_web_source(f"{name}'s reviews", **web)
    session = sym.designer().new_application(name, account.tenant.tenant_id)
    slot = session.drag_source_onto_app(inventory.source_id,
                                        max_results=3,
                                        search_fields=("title",))
    session.add_hyperlink(slot, "title", href_field="detail_url")
    session.drag_source_onto_result_layout(
        slot, reviews.source_id, drive_fields=("title",),
        heading="Reviews", max_results=2, query_suffix="review",
    )
    return sym.host(session), reviews


def answer(response) -> tuple:
    """Everything a customer sees of a response."""
    return (
        response.html,
        [(view.item.item_id,
          sorted((binding_id, result.source_id, result.total_matches,
                  [item.item_id for item in result.items])
                 for binding_id, result in view.supplemental.items()))
         for view in response.views],
        [ad.item_id for ad in response.ads],
    )


def supplemental_results(response):
    return [result for view in response.views
            for result in view.supplemental.values()]


class TestSharing:
    def test_alike_web_sources_share_entries(self, tiny_web):
        sym = Symphony(web=tiny_web, use_authority=False)
        games = tiny_web.entities["video_games"][:4]
        app_a, reviews_a = host_tenant(sym, "Ann", games)
        app_b, reviews_b = host_tenant(sym, "Bob", games)
        assert reviews_a.cache_identity == reviews_b.cache_identity
        assert reviews_a.generation_keys() == reviews_b.generation_keys()

        first = sym.query(app_a, games[0])
        searches = engine_searches(sym)
        assert searches > 0
        second = sym.query(app_b, games[0])
        assert engine_searches(sym) == searches
        # The shared hit is labelled with the asking source.
        assert supplemental_results(second)
        for result in supplemental_results(second):
            assert result.source_id == reviews_b.source_id
        for result in supplemental_results(first):
            assert result.source_id == reviews_a.source_id
        # ... and is otherwise the answer tenant A was given.
        assert [dataclasses.replace(r, source_id="")
                for r in supplemental_results(first)] == \
            [dataclasses.replace(r, source_id="")
             for r in supplemental_results(second)]

    def test_sources_that_differ_never_share(self, tiny_web):
        games = tiny_web.entities["video_games"][:4]
        for name, value in VARIANTS.items():
            sym = Symphony(web=tiny_web, use_authority=False)
            app_a, reviews_a = host_tenant(sym, "Ann", games)
            app_b, reviews_b = host_tenant(sym, "Bob", games,
                                           {**WEB, name: value})
            assert reviews_a.cache_identity != reviews_b.cache_identity
            sym.query(app_a, games[0])
            searches = engine_searches(sym)
            second = sym.query(app_b, games[0])
            assert second.trace.cache_hits == 0, name
            assert engine_searches(sym) - searches \
                == second.trace.cache_misses - 1, name   # less the primary

    def test_equal_identities_need_the_same_engine(self, tiny_web):
        sym = Symphony(web=tiny_web, use_authority=False)
        other = Symphony(web=tiny_web, use_authority=False)
        ours = sym.add_web_source("Reviews", **WEB)
        theirs = other.add_web_source("Reviews", **WEB)
        assert ours.cache_identity != theirs.cache_identity
        twin = WebSearchSource("twin", "Reviews", sym.engine, **WEB)
        assert twin.cache_identity == ours.cache_identity

    def test_non_web_sources_never_share(self, tiny_web):
        sym = Symphony(web=tiny_web, use_authority=False)
        account = sym.register_designer("Ann")
        games = tiny_web.entities["video_games"][:4]
        sym.upload_http(account, "inventory.csv",
                        make_inventory_csv(games), "inventory",
                        content_type="text/csv")
        sym.bus.register(PricingService(seed=2))
        sources = [
            sym.add_proprietary_source(account, "inventory",
                                       search_fields=("title",))
            for __ in range(2)
        ] + [
            sym.add_service_source("Pricing", "pricing",
                                   "GET /prices/{sku}", "sku",
                                   item_fields=("sku", "price"))
            for __ in range(2)
        ]
        for source in sources:
            assert source.cache_identity == source.source_id
        # Two sources on one table: the second app's query runs its own.
        apps = []
        for source in sources[:2]:
            session = sym.designer().new_application(
                source.source_id, account.tenant.tenant_id)
            slot = session.drag_source_onto_app(source.source_id)
            session.add_text(slot, "title")
            apps.append(sym.host(session))
        first = sym.query(apps[0], games[0])
        second = sym.query(apps[1], games[0])
        assert first.views and second.views
        assert second.trace.cache_hits == 0


class TestSearchFieldsKey:
    def test_apps_searching_different_fields_do_not_share(self, tiny_web):
        # Both apps bind one catalogue; one searches titles, the other
        # descriptions. The description app must not be served the
        # title app's answer.
        def host_and_query(cache_enabled):
            sym = Symphony(web=tiny_web, use_authority=False,
                           cache_enabled=cache_enabled)
            account = sym.register_designer("Ann")
            sym.upload_http(
                account, "catalogue.csv",
                b"title,description\n"
                b"Red Dragon,A carved figure\n"
                b"Blue Lamp,A lamp shaped like a red dragon figure\n",
                "catalogue", content_type="text/csv")
            source = sym.add_proprietary_source(
                account, "catalogue",
                search_fields=("title", "description"))
            titles = []
            for fields in (("title",), ("description",)):
                session = sym.designer().new_application(
                    fields[0], account.tenant.tenant_id)
                slot = session.drag_source_onto_app(
                    source.source_id, search_fields=fields)
                session.add_text(slot, "title")
                response = sym.query(sym.host(session), "dragon")
                titles.append([view.item.get("title")
                               for view in response.views])
            return titles

        assert host_and_query(True) == host_and_query(False) \
            == [["Red Dragon"], ["Blue Lamp"]]


tenants = st.lists(
    st.sampled_from((None,) + tuple(VARIANTS)), min_size=1, max_size=3)
streams = st.lists(st.integers(0, 5), min_size=1, max_size=8)


@settings(max_examples=12)
@given(tenants, streams)
def test_cached_answers_equal_uncached_ones(tiny_web, variants, stream):
    """Tenant 0 has the base reviews source; each later tenant's is
    equal to it (``None``) or differs in one field. Every query is
    answered twice, cache on then off, and the answers must agree."""
    sym = Symphony(web=tiny_web, use_authority=False)
    games = tiny_web.entities["video_games"][:6]
    apps = [host_tenant(sym, "T0", games)[0]] + [
        host_tenant(sym, f"T{n}", games,
                    WEB if name is None else {**WEB, name: VARIANTS[name]})[0]
        for n, name in enumerate(variants, 1)
    ]
    for step, game in enumerate(stream):
        app_id = apps[step % len(apps)]
        sym.runtime.cache_enabled = True
        cached = sym.query(app_id, games[game])
        sym.runtime.cache_enabled = False
        assert answer(cached) == answer(sym.query(app_id, games[game]))
