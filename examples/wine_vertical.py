"""The wine connoisseur's search vertical (§I of the paper).

Run with::

    python examples/wine_vertical.py

Claire combines her cellar knowledge with targeted web search, publishes
the vertical to her site, lets visitors' preferences personalize queries
(customer data), and monetizes through referral reporting. The example
also exercises the workbook ("Excel") upload path, the SOAP review
archive, and the supplemental-content recommender.
"""

import json

from repro import Symphony
from repro.analytics import SupplementalRecommender
from repro.services.samples import ReviewArchiveService
from repro.sitesuggest import SiteCooccurrenceGraph, SiteSuggest


def build_cellar_workbook(wines) -> bytes:
    """Claire keeps her cellar in a spreadsheet — upload it as-is."""
    rows = [
        [wine, f"Region {i}", 2000 + (i % 10),
         round(15.0 + 7.5 * i, 2),
         f"elegant {wine} with a long finish"]
        for i, wine in enumerate(wines)
    ]
    return json.dumps({
        "workbook": "cellar",
        "sheets": [
            {"name": "Cellar",
             "header": ["name", "region", "vintage", "price", "notes"],
             "rows": rows},
            {"name": "Wishlist",
             "header": ["name"],
             "rows": [[w] for w in wines[:2]]},
        ],
    }).encode()


def main() -> None:
    symphony = Symphony()
    symphony.bus.register(ReviewArchiveService(web=symphony.web))

    claire = symphony.register_designer("Claire")
    wines = symphony.web.entities["wine"][:10]

    # Upload the "Excel" workbook; Symphony reads the Cellar sheet.
    report = symphony.upload_http(
        claire, "cellar.xlsw", build_cellar_workbook(wines),
        "cellar", content_type="application/x-workbook", sheet="Cellar",
    )
    print(f"Cellar uploaded from workbook: {report.inserted} wines")
    schema = claire.tenant.table("cellar").schema
    print("Inferred schema:",
          {f.name: f.type.value for f in schema.fields})

    # Sources: cellar + wine-site-restricted web search + SOAP reviews.
    cellar = symphony.add_proprietary_source(
        claire, "cellar", search_fields=("name", "notes", "region")
    )
    wine_sites = ("winespectator.example", "cellartracker.example",
                  "vinography.example")
    articles = symphony.add_web_source("Wine articles", "web",
                                       sites=wine_sites)
    archive = symphony.add_service_source(
        "Review archive", "review-archive", "GetAverageScore",
        "entity", item_fields=("entity", "average", "count"),
        title_field="entity",
    )
    customers = symphony.add_customer_source("Visitor preferences")
    customers.set_profile("bold-reds-fan", ("cabernet", "tannin"))

    # Design with the wizard.
    designer = symphony.designer()
    session = designer.new_application("Claire's Cellar",
                                       claire.tenant.tenant_id)
    recommendation = session.run_wizard(tone="professional",
                                        accent_color="#7a1f3d")
    print(f"Wizard chose theme {recommendation['theme']!r}")
    slot = session.drag_source_onto_app(
        cellar.source_id, heading="From the cellar", max_results=3,
        search_fields=("name", "notes", "region"),
    )
    session.add_hyperlink(slot, "name", font_weight="bold")
    session.add_text(slot, "region", color="#888")
    session.add_text(slot, "notes", font_style="italic")
    session.drag_source_onto_result_layout(
        slot, articles.source_id, drive_fields=("name",),
        heading="From around the web", max_results=2,
    )
    session.drag_source_onto_result_layout(
        slot, archive.source_id, drive_fields=("name",),
        heading="Critics", max_results=1,
    )
    session.attach_customer_source(customers.source_id)
    app_id = symphony.host(session)
    symphony.publish_embed(app_id)
    print(f"Hosted as {app_id}")

    # Visitors search; one has a stored preference profile.
    print()
    for visitor, query in (("anonymous", wines[0]),
                           ("bold-reds-fan", wines[0])):
        response = symphony.query(app_id, query, session_id=visitor,
                                  customer_id=visitor)
        rewrite = response.trace.stage("customer-rewrite")
        print(f"[{visitor}] {query!r} ({rewrite.detail})")
        for view in response.views:
            print(f"  * {view.item.get('name')} — "
                  f"{view.item.get('region')}")
            for result in view.supplemental.values():
                for item in result.items:
                    extra = (f"avg {item.fields['average']}"
                             if "average" in item.fields
                             else item.get("site"))
                    print(f"      + {item.title[:44]:<44} {extra}")
            symphony.record_click(app_id, query,
                                  f"http://{wine_sites[0]}/clicked")

    # Monetization: referral compensation for traffic sent to wine sites.
    print()
    print("Referral report (for invoicing the wine sites):")
    print(symphony.referral_report(app_id, rate_per_click=0.08).to_csv())

    # Future-work feature: recommend supplemental sites for her cellar.
    recommender = SupplementalRecommender(
        symphony.engine,
        site_suggest=SiteSuggest(
            SiteCooccurrenceGraph.from_query_log(symphony.engine.log)
        ),
    )
    recommendations = recommender.recommend(
        claire.tenant.table("cellar"), "name", count=4,
        probe_suffix="tasting",
    )
    print("Recommended supplemental sites for the cellar:")
    for rec in recommendations:
        print(f"  {rec.site:<28} coverage={rec.coverage:.2f} "
              f"mean_rank={rec.mean_rank:.1f}")


if __name__ == "__main__":
    main()
