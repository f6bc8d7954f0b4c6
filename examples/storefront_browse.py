"""A faceted storefront: richer structured querying in action (§IV).

Run with::

    python examples/storefront_browse.py

The paper's future work includes "supporting richer querying of
structured data". This example drives that surface: typed predicates
with ordering and paging over the proprietary inventory, range filters
in the query language, facet counts, related-search suggestions, CTR-by-
position analytics, and query trends — everything a storefront owner
uses to run the shop. It closes with two more §IV features: customers'
votes re-ranking the catalog (social search) and their clicks feeding
relevance signals back to the general engine (the Conclusions).
"""

from repro import Symphony
from repro.analytics import LogAggregator, RelevanceSignalExporter
from repro.analytics.ctr import ctr_by_position
from repro.analytics.trends import compute_trends
from repro.core.structured import StructuredQuery
from repro.searchengine.related import RelatedSearches


def build_inventory(symphony, account, games) -> bytes:
    lines = ["title,genre,price,stock,released,detail_url"]
    genres = ("shooter", "adventure", "puzzle", "strategy")
    for i, game in enumerate(games):
        lines.append(
            f"{game},{genres[i % 4]},{9.99 + 5 * i:.2f},{i % 6},"
            f"200{i % 10}-0{1 + i % 9}-15,"
            f"http://sams-games.example/items/{i}"
        )
    data = "\n".join(lines).encode()
    return symphony.upload_http(account, "inventory.csv", data,
                                "inventory", content_type="text/csv")


def main() -> None:
    symphony = Symphony()
    owner = symphony.register_designer("Sam")
    games = symphony.web.entities["video_games"][:12]
    report = build_inventory(symphony, owner, games)
    print(f"Inventory: {report.inserted} titles")

    inventory = symphony.add_proprietary_source(
        owner, "inventory", search_fields=("title", "genre"))

    # -- Structured browsing: predicates + ordering + paging ----------------
    print("\nIn-stock games under $40, cheapest first:")
    query = (StructuredQuery(limit=4, order_by="price")
             .where("stock", "ge", 1)
             .where("price", "le", 40))
    result = inventory.structured_search(query)
    for item in result.items:
        print(f"  ${item.fields['price']:>6.2f}  "
              f"{item.get('title'):<28} ({item.fields['genre']}, "
              f"{item.fields['stock']} in stock)")
    print(f"  ... {result.total_matches} total matches")

    print("\nPage 2 of the same browse:")
    page2 = inventory.structured_search(StructuredQuery(
        limit=4, offset=4, order_by="price",
    ).where("stock", "ge", 1).where("price", "le", 40))
    for item in page2.items:
        print(f"  ${item.fields['price']:>6.2f}  {item.get('title')}")

    # -- Range filters in the query language --------------------------------
    from repro.core.datasources import SourceQuery
    print("\nQuery-language range filter "
          "'adventure price:[15 TO 45]':")
    ranged = inventory.search(SourceQuery(
        "adventure price:[15 TO 45]", count=10))
    for item in ranged.items:
        print(f"  {item.get('title'):<28} "
              f"${item.fields['price']:.2f}")

    # -- Facets over the web vertical ----------------------------------------
    print("\nWho covers these games? (facets over the web vertical)")
    facets = symphony.engine.facets("web", f'"{games[0]}"', ("site",))
    for facet_count in facets["site"].top(5):
        print(f"  {facet_count.value:<34} {facet_count.count}")

    # -- Build + run the storefront app, generating usage --------------------
    session = symphony.designer().new_application(
        "Sam's Games", owner.tenant.tenant_id)
    slot = session.drag_source_onto_app(
        inventory.source_id, heading="Catalog", max_results=3,
        search_fields=("title", "genre"))
    session.add_hyperlink(slot, "title")
    session.add_text(slot, "genre")
    app_id = symphony.host(session)

    day_ms = 86_400_000
    for day, queries in enumerate((
        [games[0], f"{games[0]} review", games[1]],
        [games[0], "adventure", games[2]],
        [games[0], f"{games[0]} cheap", "adventure", games[3]],
    )):
        session_id = f"day-{day}"  # one browsing session per day
        for text in queries:
            response = symphony.query(app_id, text,
                                      session_id=session_id)
            if response.views and response.views[0].item.url:
                symphony.record_click(app_id, text,
                                      response.views[0].item.url,
                                      session_id=session_id)
        symphony.clock.advance(day_ms)

    # -- Analytics: trends, CTR by position, related searches ----------------
    trends = compute_trends(symphony.engine.log, app_id,
                            now_ms=symphony.clock.now_ms,
                            window_days=2)
    print("\nRising queries (last 2 days vs the 2 before):")
    for rising in trends.rising[:3]:
        print(f"  {rising.query:<24} {rising.recent_count} recent / "
              f"{rising.previous_count} before  "
              f"(score {rising.score})")

    print("\nClick-through rate by position:")
    for stats in ctr_by_position(symphony.engine.log, app_id,
                                 max_positions=3):
        print(f"  rank {stats.position}: {stats.clicks}/"
              f"{stats.impressions} = {stats.ctr:.2f}")

    related = RelatedSearches(symphony.engine.log)
    print(f"\nSearches related to {games[0]!r}:")
    for suggestion in related.related(games[0], count=3):
        print(f"  {suggestion.query}  (score {suggestion.score})")

    # -- Social search: customers vote the catalog (§IV future work 3) -------
    symphony.enable_social_search(vote_weight=2.0)
    before = [view.item for view in symphony.query(app_id, "adventure").views]
    favourite = before[-1]
    for __ in range(10):
        symphony.vote(app_id, favourite.url)
    after = [view.item.url
             for view in symphony.query(app_id, "adventure").views]
    print(f"\nTen up-votes move {favourite.get('title')!r} from rank "
          f"{len(before)} to {after.index(favourite.url) + 1}")

    # -- Relevance signals back to the general engine (Conclusions) ----------
    review_query = f"{games[0]} review"
    review = symphony.engine.search("web", review_query).results[0]
    for day in range(3):
        symphony.record_click(app_id, review_query, review.url,
                              session_id=f"day-{day}")
    authority = symphony.engine.vertical("web").authority
    prior = authority.get(review.url, 0.0)
    profile = LogAggregator(symphony.engine.log).profile(app_id)
    boosted = RelevanceSignalExporter().apply_to_engine(symphony.engine,
                                                        [profile])
    print(f"\nCustomers' clicks boost {boosted} web page(s): "
          f"{review.url} authority {prior:.3f} -> "
          f"{authority[review.url]:.3f}")


if __name__ == "__main__":
    main()
