"""Tests for application versions and a multi-vertical application
scenario."""

import dataclasses

import pytest

from tests.conftest import make_inventory_csv


class TestVersionHistory:
    @pytest.fixture()
    def hosted(self, symphony, designer_account):
        sym = symphony
        games = sym.web.entities["video_games"][:3]
        sym.upload_http(designer_account, "inv.csv",
                        make_inventory_csv(games), "inventory",
                        content_type="text/csv")
        inventory = sym.add_proprietary_source(
            designer_account, "inventory", ("title",))
        session = sym.designer().new_application(
            "Versioned", designer_account.tenant.tenant_id)
        slot = session.drag_source_onto_app(inventory.source_id,
                                            search_fields=("title",))
        session.add_text(slot, "title")
        app_id = sym.host(session)
        return sym, app_id, games

    def test_initial_version_is_one(self, hosted):
        sym, app_id, __ = hosted
        assert sym.apps.version(app_id) == 1

    def test_update_bumps_version(self, hosted):
        sym, app_id, __ = hosted
        sym.host(dataclasses.replace(sym.apps.get(app_id), theme="midnight"))
        assert sym.apps.version(app_id) == 2
        assert sym.apps.get(app_id).theme == "midnight"

    def test_identical_reregistration_not_versioned(self, hosted):
        sym, app_id, __ = hosted
        sym.apps.register(sym.apps.get(app_id))  # no change
        assert sym.apps.version(app_id) == 1


class TestMultiVerticalScenario:
    """An application fanning out to image + video + news verticals."""

    @pytest.fixture()
    def media_app(self, symphony_small):
        sym = symphony_small
        account = sym.register_designer("Mia")
        games = sym.web.entities["video_games"][:4]
        sym.upload_http(account, "inv.csv", make_inventory_csv(games),
                        "inventory", content_type="text/csv")
        inventory = sym.add_proprietary_source(
            account, "inventory", ("title",))
        images = sym.add_web_source("Screenshots", "image")
        videos = sym.add_web_source("Trailers", "video")
        news = sym.add_web_source("News", "news")
        session = sym.designer().new_application(
            "MediaHub", account.tenant.tenant_id)
        slot = session.drag_source_onto_app(
            inventory.source_id, max_results=2,
            search_fields=("title",))
        session.add_text(slot, "title")
        for source in (images, videos, news):
            session.drag_source_onto_result_layout(
                slot, source.source_id, drive_fields=("title",),
                heading=source.name, max_results=2)
        app_id = sym.host(session)
        return sym, app_id, games

    def test_all_three_verticals_answer(self, media_app):
        sym, app_id, games = media_app
        hits = {"image": 0, "video": 0, "news": 0}
        for game in games:
            response = sym.query(app_id, game)
            matching = [v for v in response.views
                        if v.item.get("title") == game]
            if not matching:
                continue
            view = matching[0]
            for result in view.supplemental.values():
                for item in result.items:
                    url = item.url
                    if "/img/" in url:
                        hits["image"] += 1
                    elif "/video/" in url:
                        hits["video"] += 1
                    elif "/news/" in url:
                        hits["news"] += 1
        # Every vertical contributes across the inventory.
        assert all(count > 0 for count in hits.values()), hits

    def test_image_items_carry_dimensions(self, media_app):
        sym, app_id, games = media_app
        for game in games:
            response = sym.query(app_id, game)
            for view in response.views:
                for result in view.supplemental.values():
                    for item in result.items:
                        if "/img/" in item.url:
                            assert int(item.fields["width"]) > 0
                            return
        pytest.fail("no image results found for any title")
