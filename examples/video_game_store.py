"""The complete GamerQueen scenario from §II-B/§II-C of the paper.

Run with::

    python examples/video_game_store.py

Ann, a video game store owner, builds a search experience around her
inventory: primary proprietary content, focused web-search reviews,
a real-time pricing/in-stock service, keyword ads, Facebook publishing,
and the full monetization loop (click logging, ad crediting, referral
report).
"""

from repro import Symphony
from repro.services.samples import PricingService


def build_inventory_csv(games) -> bytes:
    lines = ["title,producer,description,image_url,detail_url"]
    for i, game in enumerate(games):
        lines.append(
            f'{game},Studio {i},"A classic {game} experience for all '
            f'players",http://img.gamerqueen.example/{i}.jpg,'
            f"http://gamerqueen.example/games/{i}"
        )
    return "\n".join(lines).encode()


def main() -> None:
    symphony = Symphony()
    pricing_service = PricingService(seed=42)
    symphony.bus.register(pricing_service)

    # -- Ann registers and uploads her inventory --------------------------
    ann = symphony.register_designer("Ann")
    games = symphony.web.entities["video_games"][:8]
    report = symphony.upload_http(
        ann, "inventory.csv", build_inventory_csv(games),
        "inventory", content_type="text/csv",
        key_field="title", indexed_fields=("title",),
    )
    print(f"Inventory registered: {report.inserted} titles")

    # Keep a couple of titles' pricing under Ann's own control.
    pricing_service.set_price(games[0], 59.99, 12)
    pricing_service.set_price(games[1], 19.99, 0)  # out of stock

    # -- Data sources -------------------------------------------------------
    inventory = symphony.add_proprietary_source(
        ann, "inventory",
        search_fields=("title", "producer", "description"),
        name="GamerQueen inventory",
    )
    reviews = symphony.add_web_source(
        "Game reviews", "web",
        sites=("gamespot.com", "ign.com", "teamxbox.com"),
    )
    trailers = symphony.add_web_source("Trailers", "video")
    pricing = symphony.add_service_source(
        "Live pricing", "pricing", "GET /prices/{sku}", "sku",
        item_fields=("sku", "price", "stock", "in_stock"),
        title_field="sku",
    )
    ads = symphony.add_ad_source("Sponsored", max_ads=2)

    # An advertiser runs a campaign against game keywords.
    advertiser = symphony.ads.create_advertiser("GameCo", 100.0)
    symphony.ads.create_campaign(
        advertiser.advertiser_id,
        keywords=[games[0], games[1], "game"],
        bid_per_click=0.45,
        headline="GameCo Megastore — every title in stock",
        url="http://gameco.example/store",
    )

    # -- Drag-and-drop design (Fig. 1) ---------------------------------------
    designer = symphony.designer()
    session = designer.new_application("GamerQueen",
                                       ann.tenant.tenant_id)
    session.apply_template("storefront")
    slot = session.drag_source_onto_app(
        inventory.source_id, heading="Games", max_results=4,
        search_fields=("title", "producer", "description"),
    )
    session.add_hyperlink(slot, "title", href_field="detail_url",
                          font_weight="bold", font_size="16px")
    session.add_image(slot, "image_url")
    session.add_text(slot, "description", color="#444")
    session.drag_source_onto_result_layout(
        slot, reviews.source_id, drive_fields=("title",),
        heading="Reviews from the web", max_results=2,
        query_suffix="review",
    )
    session.drag_source_onto_result_layout(
        slot, trailers.source_id, drive_fields=("title",),
        heading="Trailers", max_results=1,
    )
    session.drag_source_onto_result_layout(
        slot, pricing.source_id, drive_fields=("title",),
        max_results=1,
    )
    session.drag_source_onto_app(ads.source_id, heading="Sponsored")

    issues = session.validate()
    print(f"Design issues: {issues or 'none'}")
    print()
    print(session.describe_canvas())

    # -- Host, embed, publish to Facebook ----------------------------------
    app_id = symphony.host(session)
    snippet = symphony.publish_embed(app_id)
    publication = symphony.publish_social(app_id, "facebook")
    print()
    print(f"Hosted: {app_id}")
    print(f"Facebook canvas: {publication.location}")
    print("Embed JavaScript (first lines):")
    print("\n".join(snippet.javascript.splitlines()[:3]))

    # -- Customers use the app (Fig. 2) ---------------------------------------
    print()
    for customer, query in (("c1", games[0]), ("c2", games[1]),
                            ("c1", games[0])):
        response = symphony.query(app_id, query, session_id=customer)
        best = response.views[0]
        print(f"[{customer}] {query!r} -> {best.item.title} "
              f"(total {response.trace.total_ms():.1f} ms, "
              f"cache hits {response.trace.cache_hits})")
        for binding_id, result in best.supplemental.items():
            for item in result.items:
                label = item.get("site") or item.get("sku") or ""
                print(f"        + {item.title[:48]:<48} {label}")
        # Customers click through.
        symphony.record_click(app_id, query,
                              best.item.get("detail_url"),
                              session_id=customer)
        for ad in response.ads:
            symphony.record_click(app_id, query, ad.url,
                                  ad_id=ad.get("ad_id"))

    # -- Monetization summaries -------------------------------------------------
    summary = symphony.traffic_summary(app_id)
    print()
    print(f"Traffic: {summary.query_count} queries, "
          f"{summary.click_count} clicks "
          f"({summary.ad_click_count} on ads), "
          f"CTR {summary.click_through_rate:.2f}")
    print(f"Ad earnings credited to Ann: "
          f"${symphony.designer_ad_earnings(app_id):.4f}")
    print("Referral report:")
    print(symphony.referral_report(app_id, rate_per_click=0.05).to_csv())

    # -- Site Suggest -----------------------------------------------------------
    suggestions = symphony.site_suggest(
        ["gamespot.com", "ign.com"], count=3
    )
    print("Site Suggest (seeds: gamespot.com, ign.com):")
    for suggestion in suggestions:
        print(f"  {suggestion.site:<28} score={suggestion.score:.4f}")


if __name__ == "__main__":
    main()
