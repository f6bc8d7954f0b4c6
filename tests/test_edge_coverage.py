"""Edge-path coverage: small behaviours not exercised elsewhere."""

import dataclasses

import pytest

from repro.core.capability import CapabilityProfile, TABLE_I_ROWS
from repro.core.datasources import ServiceSource, SourceItem, SourceQuery
from repro.errors import RenderError
from repro.services.bus import ServiceBus
from repro.services.rest import RestService


class TestCapabilityProfile:
    def make(self):
        return CapabilityProfile(
            system="X", search_api="A", custom_sites="B",
            proprietary_structured_data="C", monetization="D",
            custom_ui="E", deployment="F",
        )

    def test_cells_follow_row_order(self):
        assert self.make().cells() == ("A", "B", "C", "D", "E", "F")
        assert len(TABLE_I_ROWS) == 6


class TestSourceItemLookup:
    def test_common_properties_fallback(self):
        item = SourceItem(item_id="i", title="T",
                          url="http://u.example", snippet="S")
        assert item.get("title") == "T"
        assert item.get("url") == "http://u.example"
        assert item.get("snippet") == "S"
        assert item.get("missing", "dflt") == "dflt"

    def test_explicit_fields_win_over_common(self):
        item = SourceItem(item_id="i", title="T",
                          fields={"title": "Override"})
        assert item.get("title") == "Override"

    def test_none_field_becomes_empty_string(self):
        item = SourceItem(item_id="i", title="T",
                          fields={"price": None})
        assert item.get("price") == ""


class _ScalarService(RestService):
    name = "scalar"

    def __init__(self):
        super().__init__()
        self.route("GET /value", lambda p: 42)
        self.route("GET /list", lambda p: ["a", "b"])


class TestServiceSourceResponseShapes:
    def make_source(self, operation):
        bus = ServiceBus()
        bus.register(_ScalarService())
        return ServiceSource("s", "S", bus, "scalar", operation, "q")

    def test_scalar_response_wrapped(self):
        source = self.make_source("GET /value")
        result = source.search(SourceQuery("x"))
        assert result.items[0].fields == {"value": 42}

    def test_list_of_scalars_wrapped(self):
        source = self.make_source("GET /list")
        result = source.search(SourceQuery("x"))
        assert [item.fields["value"] for item in result.items] == \
            ["a", "b"]


class TestThemeAndRendererEdges:
    def test_every_builtin_theme_renders_gamerqueen(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        for theme_name in symphony.themes.names():
            symphony.host(dataclasses.replace(symphony.apps.get(app_id),
                                              theme=theme_name))
            html = symphony.query(app_id, games[0]).html
            assert 'class="symphony-app"' in html

    def test_render_unknown_element_kind_raises(self):
        from repro.core.presentation import HtmlRenderer

        class FakeElement:
            kind = "hologram"
            bind_field = "title"
            style = {}
            css_class = ""

        item = SourceItem(item_id="i", title="T")
        with pytest.raises(RenderError):
            HtmlRenderer().render_element(FakeElement(), item)


class TestDesignerSlotStyle:
    def test_slot_style_reaches_rendered_html(self, symphony,
                                              designer_account):
        sym = symphony
        games = sym.web.entities["video_games"][:2]
        from tests.conftest import make_inventory_csv
        sym.upload_http(designer_account, "inv.csv",
                        make_inventory_csv(games), "inventory",
                        content_type="text/csv")
        inventory = sym.add_proprietary_source(
            designer_account, "inventory", ("title",))
        session = sym.designer().new_application(
            "Styled", designer_account.tenant.tenant_id)
        slot = session.drag_source_onto_app(
            inventory.source_id, search_fields=("title",))
        session.add_text(slot, "title")
        app = session.build()
        # A slot's own style (kept in the stored definition) overrides
        # the theme's.
        styled = dataclasses.replace(app.slots[0], style={
            "border": "2px solid gold", "background-color": "#111"})
        app_id = sym.host(dataclasses.replace(app, slots=(styled,)))
        html = sym.query(app_id, games[0]).html
        assert "2px solid gold" in html
        assert "background-color: #111" in html


class TestBusDescriptorsAndFrontendEdges:
    def test_frontend_trailing_key_on_open_app(self, gamerqueen):
        symphony, app_id, games = gamerqueen
        # No embed keys registered: any key is accepted (open hosting).
        response = symphony.frontend.handle(
            f"/apps/{app_id}/query", {"q": games[0], "key": "whatever"})
        assert response.ok


class TestCliSuggestFailurePath:
    def test_suggest_exits_nonzero_when_empty(self, capsys,
                                              monkeypatch):
        from repro import cli

        class FakeSymphony:
            def site_suggest(self, seeds, count=5):
                return []

        monkeypatch.setattr(cli, "_build_platform",
                            lambda seed: FakeSymphony())
        assert cli.main(["suggest", "nowhere.example"]) == 1
        assert "no suggestions" in capsys.readouterr().out
