"""Quickstart: build and query your first search-driven application.

Run with::

    python examples/quickstart.py

This walks the minimum path: stand up a platform, upload a small
proprietary dataset, drag it onto an application together with focused
web search, host the app, and run a customer query.
"""

from repro import Symphony


def main() -> None:
    # One Symphony instance = one platform deployment. It fabricates a
    # deterministic synthetic web and indexes it as the "Bing" substrate.
    symphony = Symphony()
    print("Platform up. Synthetic web:", symphony.web.stats())

    # Register as an application designer; you get a private tenant space.
    ann = symphony.register_designer("Ann")

    # Upload proprietary data (any of csv/tsv/xml/json/workbook/rss).
    games = symphony.web.entities["video_games"][:5]
    csv_rows = ["title,producer,description"]
    csv_rows += [
        f'{game},Studio {i},"A classic {game} experience"'
        for i, game in enumerate(games)
    ]
    report = symphony.upload_http(
        ann, "inventory.csv", "\n".join(csv_rows).encode(),
        "inventory", content_type="text/csv",
    )
    print(f"Uploaded inventory: {report.inserted} records "
          f"(format: {report.format})")

    # Turn the table into a searchable data source, and configure a
    # site-restricted web-search source for supplemental content.
    inventory = symphony.add_proprietary_source(
        ann, "inventory", search_fields=("title", "producer",
                                         "description"),
    )
    reviews = symphony.add_web_source(
        "Game reviews", "web",
        sites=("gamespot.com", "ign.com", "teamxbox.com"),
    )

    # Design the application: no code, just drag-and-drop gestures.
    designer = symphony.designer()
    session = designer.new_application("GamerQueen",
                                       ann.tenant.tenant_id)
    slot = session.drag_source_onto_app(
        inventory.source_id, heading="Games", max_results=3,
        search_fields=("title", "producer", "description"),
    )
    session.add_hyperlink(slot, "title")
    session.add_text(slot, "description")
    session.drag_source_onto_result_layout(
        slot, reviews.source_id, drive_fields=("title",),
        heading="Reviews", max_results=2, query_suffix="review",
    )
    print()
    print(session.describe_canvas())

    # Host it and get the copy-pasteable embed snippet.
    app_id = symphony.host(session)
    snippet = symphony.publish_embed(app_id)
    print()
    print("Hosted as", app_id, "— embed snippet:")
    print(snippet.html)

    # A customer searches.
    query = games[0]
    response = symphony.query(app_id, query, session_id="demo")
    print()
    print(f"Customer query: {query!r}")
    print(response.trace.describe())
    for view in response.views:
        print(f"  * {view.item.title}")
        for result in view.supplemental.values():
            for item in result.items:
                print(f"      review: {item.title}  ({item.get('site')})")


if __name__ == "__main__":
    main()
