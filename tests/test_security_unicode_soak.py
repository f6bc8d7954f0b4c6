"""Security, unicode robustness, and soak tests.

Symphony renders designer- and advertiser-supplied data into HTML that
runs inside *other people's* pages — escaping failures are XSS against
every embedding site. These tests push hostile and non-ASCII content
through the full pipeline, then soak the platform under a mixed workload
and check the global invariants still hold.
"""

import pytest

from repro.errors import ReproError

from tests.conftest import make_inventory_csv


HOSTILE = "<script>alert('xss')</script>"
HOSTILE_ATTR = '" onmouseover="steal()'


class TestXssThroughData:
    @pytest.fixture()
    def hostile_app(self, symphony, designer_account):
        sym = symphony
        rows = (
            "title,description,detail_url\n"
            f'"{HOSTILE}","desc with {HOSTILE_ATTR}",'
            "http://shop.example/1\n"
            '"Clean Game","<b>bold</b> claims",http://shop.example/2\n'
        )
        sym.upload_http(designer_account, "inv.csv", rows.encode(),
                        "inventory", content_type="text/csv")
        inventory = sym.add_proprietary_source(
            designer_account, "inventory", ("title", "description"))
        session = sym.designer().new_application(
            "Hostile", designer_account.tenant.tenant_id)
        slot = session.drag_source_onto_app(
            inventory.source_id, search_fields=("title",
                                                "description"))
        session.add_hyperlink(slot, "title", href_field="detail_url")
        session.add_text(slot, "description")
        return sym, sym.host(session)

    def test_script_tags_escaped_in_response(self, hostile_app):
        sym, app_id = hostile_app
        response = sym.query(app_id, "script alert")
        assert response.views  # the hostile row matched
        assert "<script>alert" not in response.html
        assert "&lt;script&gt;" in response.html

    def test_attribute_injection_escaped(self, hostile_app):
        sym, app_id = hostile_app
        response = sym.query(app_id, "desc mouseover")
        assert 'onmouseover="steal()"' not in response.html

    def test_html_in_data_not_interpreted(self, hostile_app):
        sym, app_id = hostile_app
        response = sym.query(app_id, "clean game")
        assert "<b>bold</b>" not in response.html
        assert "&lt;b&gt;bold&lt;/b&gt;" in response.html

    def test_frontend_serves_escaped_html(self, hostile_app):
        sym, app_id = hostile_app
        http = sym.frontend.handle(f"/apps/{app_id}/query",
                                   {"q": "script alert"})
        assert http.ok
        assert "<script>alert" not in http.body

    def test_hostile_ad_copy_escaped(self, symphony, designer_account):
        sym = symphony
        games = sym.web.entities["video_games"][:2]
        sym.upload_http(designer_account, "inv.csv",
                        make_inventory_csv(games), "inventory",
                        content_type="text/csv")
        inventory = sym.add_proprietary_source(
            designer_account, "inventory", ("title",))
        ads_source = sym.add_ad_source()
        advertiser = sym.ads.create_advertiser("Evil", 10.0)
        sym.ads.create_campaign(
            advertiser.advertiser_id, [games[0]], 0.2,
            headline=HOSTILE, url="http://evil.example",
            body=HOSTILE_ATTR,
        )
        session = sym.designer().new_application(
            "AdApp", designer_account.tenant.tenant_id)
        slot = session.drag_source_onto_app(
            inventory.source_id, search_fields=("title",))
        session.add_text(slot, "title")
        session.drag_source_onto_app(ads_source.source_id)
        app_id = sym.host(session)
        response = sym.query(app_id, games[0])
        assert response.ads
        assert "<script>alert" not in response.html

    def test_hostile_query_text_escaped_in_data_attrs(self,
                                                      hostile_app):
        sym, app_id = hostile_app
        # A query containing quotes must not break out of attributes.
        response = sym.query(app_id, 'clean "game"')
        assert 'data-app="' in response.html


class TestUnicodeRobustness:
    def test_unicode_upload_roundtrips(self, symphony,
                                       designer_account):
        sym = symphony
        rows = ("title,description\n"
                "Café Zürich,übergood niño 東京 игра\n"
                "Plain Game,ascii only\n").encode("utf-8")
        report = sym.upload_http(designer_account, "inv.csv", rows,
                                 "inventory", content_type="text/csv")
        assert report.inserted == 2
        table = designer_account.tenant.table("inventory")
        record = table.find("title", "Café Zürich")[0]
        assert "東京" in record.values["description"]

    def test_unicode_searchable_via_ascii_tokens(self, symphony,
                                                 designer_account):
        sym = symphony
        rows = ("title,description\n"
                "Café Game,delicious coffee game\n").encode("utf-8")
        sym.upload_http(designer_account, "inv.csv", rows,
                        "inventory", content_type="text/csv")
        inventory = sym.add_proprietary_source(
            designer_account, "inventory", ("title", "description"))
        from repro.core.datasources import SourceQuery
        # The ASCII tokens of the row remain searchable; non-ASCII
        # codepoints are outside the tokenizer's alphabet by design.
        assert inventory.search(SourceQuery("coffee")).total_matches \
            == 1

    def test_unicode_renders_escaped_but_intact(self, symphony,
                                                designer_account):
        sym = symphony
        rows = ("title,description\n"
                "Café Zürich,great für alle\n").encode("utf-8")
        sym.upload_http(designer_account, "inv.csv", rows,
                        "inventory", content_type="text/csv")
        inventory = sym.add_proprietary_source(
            designer_account, "inventory", ("description",))
        session = sym.designer().new_application(
            "U", designer_account.tenant.tenant_id)
        slot = session.drag_source_onto_app(
            inventory.source_id, search_fields=("description",))
        session.add_text(slot, "title")
        app_id = sym.host(session)
        response = sym.query(app_id, "great alle")
        assert "Café Zürich" in response.html

    def test_unicode_query_does_not_crash(self, gamerqueen):
        symphony, app_id, __ = gamerqueen
        response = symphony.query(app_id, "東京 ゲーム café")
        assert response.views == ()  # no ASCII tokens -> no matches


class TestSoak:
    def test_mixed_workload_invariants(self, symphony_small):
        """Three apps, many sessions: logs, cache, ledger, and traces
        all stay consistent."""
        sym = symphony_small
        app_ids = []
        all_games = sym.web.entities["video_games"]
        for owner_index in range(3):
            account = sym.register_designer(f"Owner{owner_index}")
            games = all_games[owner_index * 4:(owner_index + 1) * 4]
            sym.upload_http(account, "inv.csv",
                            make_inventory_csv(games), "inventory",
                            content_type="text/csv")
            inventory = sym.add_proprietary_source(
                account, "inventory", ("title",))
            reviews = sym.add_web_source(
                f"Reviews {owner_index}", "web",
                sites=("gamespot.com", "ign.com"))
            session = sym.designer().new_application(
                f"App{owner_index}", account.tenant.tenant_id)
            slot = session.drag_source_onto_app(
                inventory.source_id, max_results=2,
                search_fields=("title",))
            session.add_hyperlink(slot, "title",
                                  href_field="detail_url")
            session.drag_source_onto_result_layout(
                slot, reviews.source_id, drive_fields=("title",),
                max_results=2, query_suffix="review")
            app_ids.append((sym.host(session), games))

        total_queries = 0
        for round_number in range(5):
            for app_id, games in app_ids:
                for game in games[:3]:
                    response = sym.query(
                        app_id, game,
                        session_id=f"r{round_number}")
                    total_queries += 1
                    assert response.html
                    # Warnings must never mention hard failures.
                    assert not any("failed" in w
                                   for w in response.trace.warnings)
                    if response.views and response.views[0].item.url:
                        sym.record_click(
                            app_id, game,
                            response.views[0].item.url,
                            session_id=f"r{round_number}")

        # Per-app logs partition the traffic exactly.
        app_query_counts = sum(
            len(sym.engine.log.queries_for_app(app_id))
            for app_id, __ in app_ids
        )
        assert app_query_counts == total_queries
        # Neither cache segment exceeds its bound.
        cache = sym.runtime.cache
        assert len(cache._unread) <= cache.max_entries
        assert len(cache._read) <= cache.max_entries
        # Repeat rounds were served with cache participation.
        final = sym.query(app_ids[0][0], app_ids[0][1][0])
        assert final.trace.cache_hits > 0
        # Summaries agree with the raw log.
        for app_id, __ in app_ids:
            summary = sym.traffic_summary(app_id)
            assert summary.click_count == len(
                sym.engine.log.clicks_for_app(app_id))

    def test_errors_never_escape_the_frontend(self, gamerqueen):
        """The HTTP surface maps every library error to a status."""
        symphony, app_id, games = gamerqueen
        attempts = [
            (f"/apps/{app_id}/query", {"q": games[0]}),
            (f"/apps/{app_id}/query", {"q": "   "}),
            (f"/apps/{app_id}/query", {"q": "((("}),
            ("/apps/ghost/query", {"q": "x"}),
            (f"/apps/{app_id}/query", {"q": "x", "page": "NaN"}),
        ]
        for path, params in attempts:
            try:
                response = symphony.frontend.handle(path, params)
            except ReproError as exc:  # pragma: no cover
                pytest.fail(f"{path} {params} leaked {exc!r}")
            assert 200 <= response.status < 500
