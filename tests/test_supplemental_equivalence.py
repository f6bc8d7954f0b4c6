"""The planned supplemental fan-out answers what one look-up at a time did.

:func:`per_lookup_supplemental` is the runtime's supplemental stage from
before the fan-out was planned: for each primary result in turn, one
``_query_source`` per child binding, and at once the relaxed retry of a
focused look-up that came back empty. It is the specification. The
planned stage derives every look-up first, serves the cache hits, sends
each engine vertical's misses in one ``search_many`` and the relaxed
retries in a second call.

Over generated apps — 1–4 primary results; 1–3 child bindings on alike
and unalike web sources, a news source and a pricing service; drive
fields that repeat across results or are empty; a suffix no document
holds, which forces the relaxed retry — hosted by two tenants whose
sources share ``cache_identity``, with the result cache on and off, on
one node and on 4 shards, both stages must leave every view the same
supplemental results, the result cache the same hits, misses and
entries (in each segment, not in the same LRU order), and every stage
the same simulated ms.
"""

from functools import partial

from hypothesis import example, given, settings, strategies as st

from repro.cluster import ClusterConfig
from repro.core.datasources import SourceResult
from repro.core.platform import Symphony
from repro.services.samples import PricingService

#: Child-binding sources: each tenant adds its own, so the second
#: tenant's "reviews" shares the first's cache identity, and so does
#: each tenant's "twin".
SOURCES = {
    "reviews": dict(vertical="web", sites=("gamespot.com", "ign.com")),
    "twin": dict(vertical="web", sites=("gamespot.com", "ign.com")),
    "ign": dict(vertical="web", sites=("ign.com",)),
    "fresh": dict(vertical="web", augment_terms=("game",)),
    "news": dict(vertical="news"),
    "pricing": None,
}
#: ``genre`` repeats across rows (one derived query for several
#: results); ``series`` is empty on every other row.
DRIVES = ("title", "genre", "series", "producer")
#: "review" narrows; "zzqx" is in no document, so the focused look-up
#: is empty and the binding retries on its drive values alone.
SUFFIXES = ("", "review", "zzqx")


def per_lookup_supplemental(runtime, ctx) -> None:
    """The supplemental stage before planning, verbatim but for
    ``runtime``: one focused query per (primary result, supplemental
    binding), one look-up at a time."""
    app, deadline, views = ctx.app, ctx.deadline, ctx.views
    queries = 0
    with runtime._stage(ctx, "supplemental") as note:
        for view_index, view in enumerate(views):
            if deadline is not None and deadline.expired:
                runtime._note_deadline(
                    ctx,
                    f"supplemental fan-out stopped, "
                    f"{len(views) - view_index} views unenriched",
                )
                break
            slot = app.slot(view.slot_binding_id)
            supplemental = view.supplemental
            for child in slot.children:
                child_binding = app.binding(child.binding_id)
                derived = child_binding.derive_query(view.item)
                if not derived:
                    ctx.trace.warnings.append(
                        f"binding {child.binding_id}: drive fields "
                        f"{child_binding.drive_fields} empty on item "
                        f"{view.item.item_id!r}"
                    )
                    supplemental[child.binding_id] = \
                        SourceResult.empty(child_binding.source_id)
                    continue
                queries += 1
                result = runtime._query_source(ctx, child_binding, derived)
                if not result.items and child_binding.query_suffix:
                    relaxed = child_binding.derive_query(
                        view.item, with_suffix=False)
                    queries += 1
                    result = runtime._query_source(ctx, child_binding,
                                                   relaxed)
                supplemental[child.binding_id] = result
        note(f"{queries} focused queries", mode="per_result",
             queries=queries)


def _catalogue(web, rows: int) -> bytes:
    lines = ["title,producer,genre,series"]
    for i, title in enumerate(web.entities["video_games"][:rows]):
        genre = ("Action", "Puzzle")[i % 2]
        series = title.split()[0] if i % 2 == 0 else ""
        lines.append(f"{title},Studio {i},{genre},{series}")
    return "\n".join(lines).encode("utf-8")


def _platform(web, shards: bool, cache: bool, rows: int, bindings,
              reference: bool):
    sym = Symphony(web=web, use_authority=False, cache_enabled=cache,
                   cluster=ClusterConfig(num_shards=4) if shards else None)
    sym.bus.register(PricingService(seed=2))
    if reference:
        runtime = sym.runtime
        runtime._stages = tuple(
            partial(per_lookup_supplemental, runtime)
            if stage == runtime._supplemental_per_result else stage
            for stage in runtime._stages)
    apps = []
    for tenant in ("Ann", "Bob"):
        account = sym.register_designer(tenant)
        sym.upload_http(account, "inventory.csv", _catalogue(web, rows),
                        "inventory", content_type="text/csv")
        inventory = sym.add_proprietary_source(
            account, "inventory", search_fields=("title", "producer"))
        session = sym.designer().new_application(
            tenant, account.tenant.tenant_id)
        slot = session.drag_source_onto_app(
            inventory.source_id, max_results=rows,
            search_fields=("title", "producer"))
        session.add_text(slot, "title")
        for kind, drive, suffix in bindings:
            if SOURCES[kind] is None:
                source = sym.add_service_source(
                    "Pricing", "pricing", "GET /prices/{sku}", "sku",
                    item_fields=("sku", "price"))
            else:
                source = sym.add_web_source(kind, **SOURCES[kind])
            session.drag_source_onto_result_layout(
                slot, source.source_id, drive_fields=(drive,),
                max_results=2, query_suffix=suffix)
        apps.append(sym.host(session))
    return sym, apps


def _entries(cache) -> list:
    """Each segment's keys, the engine in a web source's identity left
    out (each platform has its own). Not their LRU order: the planned
    stage stores the relaxed retries after every focused look-up."""
    return [{(key[0][1:] if isinstance(key[0], tuple) else key[0],
              *key[1:]) for key in segment}
            for segment in (cache._unread, cache._read)]


def _served(sym, apps, queries) -> list:
    served = []
    for app_index, text in queries:
        response = sym.query(apps[app_index], text, session_id="s")
        served.append((
            [(view.item.item_id, list(view.supplemental.items()))
             for view in response.views],
            response.trace.stages,
            response.trace.cache_hits, response.trace.cache_misses,
            response.trace.sources_ok, response.trace.sources_failed,
            response.degraded,
        ))
    cache = sym.runtime.cache
    return served, cache.stats(), _entries(cache), sym.clock.now_ms


bindings = st.lists(
    st.tuples(st.sampled_from(sorted(SOURCES)), st.sampled_from(DRIVES),
              st.sampled_from(SUFFIXES)),
    min_size=1, max_size=3)
queries = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from(("studio", "studio 1"))),
    min_size=1, max_size=3)


@settings(max_examples=20)
@given(st.booleans(), st.booleans(), st.integers(1, 4), bindings, queries)
# Repeated look-ups in one call, shared across tenants, cache on.
@example(True, True, 4, [("reviews", "genre", ""), ("twin", "title", "zzqx")],
         [(0, "studio"), (1, "studio")])
@example(False, True, 3, [("fresh", "genre", "zzqx"), ("ign", "title", "")],
         [(1, "studio"), (0, "studio")])
# Cache off: a repeat is searched again; a service and an empty drive.
@example(False, False, 4, [("pricing", "genre", ""),
                           ("news", "series", "review")], [(0, "studio")])
def test_planned_fanout_equals_one_lookup_at_a_time(
        tiny_web, shards, cache, rows, child_bindings, stream):
    planned = _platform(tiny_web, shards, cache, rows, child_bindings,
                        reference=False)
    reference = _platform(tiny_web, shards, cache, rows, child_bindings,
                          reference=True)
    assert _served(*planned, stream) == _served(*reference, stream)
