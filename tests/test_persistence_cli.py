"""Tests for platform persistence (export/import) and the CLI."""

import json

import pytest

from repro.core.persistence import (
    export_platform,
    import_platform,
    load_platform,
    save_platform,
)
from repro.core.platform import Symphony
from repro.errors import ConfigurationError, DuplicateError

from tests.conftest import make_inventory_csv


@pytest.fixture()
def populated(symphony):
    sym = symphony
    ann = sym.register_designer("Ann")
    games = sym.web.entities["video_games"][:4]
    sym.upload_http(ann, "inv.csv", make_inventory_csv(games),
                    "inventory", content_type="text/csv")
    inventory = sym.add_proprietary_source(
        ann, "inventory", ("title", "producer"))
    reviews = sym.add_web_source(
        "Reviews", "web", sites=("gamespot.com", "ign.com"))
    customers = sym.add_customer_source()
    customers.set_profile("u1", ("rpg", "strategy"))
    sym.add_ad_source("Sponsored", max_ads=3)
    session = sym.designer().new_application("Shop",
                                             ann.tenant.tenant_id)
    slot = session.drag_source_onto_app(
        inventory.source_id, search_fields=("title",), max_results=2)
    session.add_text(slot, "title")
    session.drag_source_onto_result_layout(
        slot, reviews.source_id, drive_fields=("title",),
        query_suffix="review")
    app_id = sym.host(session)
    return sym, app_id, games


class TestExport:
    def test_export_shape(self, populated):
        sym, app_id, __ = populated
        data = export_platform(sym)
        assert data["version"] == 1
        assert len(data["tenants"]) == 1
        assert len(data["applications"]) == 1
        types = sorted(c["type"] for c in data["sources"])
        assert types == ["ads", "customer", "proprietary", "web"]

    def test_export_is_json_serializable(self, populated):
        sym, *_ = populated
        json.dumps(export_platform(sym))  # must not raise

    def test_proprietary_config_carries_tenant(self, populated):
        sym, *_ = populated
        data = export_platform(sym)
        config = next(c for c in data["sources"]
                      if c["type"] == "proprietary")
        assert config["tenant_id"].startswith("tenant-")
        assert config["table_name"] == "inventory"


class TestImport:
    def test_roundtrip_query_identical(self, populated, tiny_web):
        sym, app_id, games = populated
        original = sym.query(app_id, games[0])
        restored = Symphony(web=tiny_web, use_authority=False)
        summary = import_platform(restored, export_platform(sym))
        assert summary == {"tenants": 1, "sources": 4,
                           "applications": 1}
        again = restored.query(app_id, games[0])
        assert again.html == original.html

    def test_restored_tables_writable(self, populated, tiny_web):
        sym, app_id, games = populated
        restored = Symphony(web=tiny_web, use_authority=False)
        import_platform(restored, export_platform(sym))
        tenant_id = export_platform(sym)["tenants"][0]["tenant_id"]
        table = restored.catalog.tenant(tenant_id).table("inventory")
        before = len(table)
        table.insert({"title": "New Game", "producer": "X",
                      "description": "d",
                      "image_url": "http://img.example/n.jpg",
                      "detail_url": "http://s.example/n"})
        assert len(table) == before + 1

    def test_restored_customer_profiles(self, populated, tiny_web):
        sym, *_ = populated
        restored = Symphony(web=tiny_web, use_authority=False)
        import_platform(restored, export_platform(sym))
        config = next(c for c in export_platform(sym)["sources"]
                      if c["type"] == "customer")
        source = restored.sources.get(config["source_id"])
        assert source.profile("u1") == ("rpg", "strategy")

    def test_routes_remounted(self, populated, tiny_web):
        sym, app_id, __ = populated
        restored = Symphony(web=tiny_web, use_authority=False)
        import_platform(restored, export_platform(sym))
        assert restored.router.resolve(f"/apps/{app_id}/query") == \
            app_id

    def test_version_mismatch_rejected(self, populated, tiny_web):
        sym, *_ = populated
        data = export_platform(sym)
        data["version"] = 99
        with pytest.raises(ConfigurationError):
            import_platform(Symphony(web=tiny_web,
                                     use_authority=False), data)

    def test_double_import_rejected(self, populated, tiny_web):
        sym, *_ = populated
        data = export_platform(sym)
        restored = Symphony(web=tiny_web, use_authority=False)
        import_platform(restored, data)
        with pytest.raises(DuplicateError):
            import_platform(restored, data)

    def test_file_roundtrip(self, populated, tiny_web, tmp_path):
        sym, app_id, games = populated
        path = tmp_path / "state.json"
        save_platform(sym, path)
        restored = Symphony(web=tiny_web, use_authority=False)
        summary = load_platform(restored, path)
        assert summary["applications"] == 1
        assert restored.query(app_id, games[0]).views


class TestCli:
    def run(self, *argv, seed=11):
        from repro.cli import main
        return main(["--seed", str(seed), *argv])

    def test_stats(self, capsys):
        assert self.run("stats") == 0
        out = capsys.readouterr().out
        assert "Synthetic web:" in out and "pages" in out

    def test_search(self, capsys):
        assert self.run("search", "game review", "--count", "3") == 0
        out = capsys.readouterr().out
        assert "matches" in out

    def test_search_site_restricted(self, capsys):
        assert self.run("search", "game", "--site",
                        "gamespot.com") == 0
        out = capsys.readouterr().out
        assert "gamespot.com" in out

    def test_table1(self, capsys):
        assert self.run("table1") == 0
        out = capsys.readouterr().out
        assert "Symphony" in out and "Google Base" in out
        assert "verified against live probes" in out

    def test_demo(self, capsys):
        assert self.run("demo") == 0
        out = capsys.readouterr().out
        assert "Pipeline trace" in out
        assert "review:" in out

    def test_dashboard(self, capsys):
        assert self.run("dashboard") == 0
        out = capsys.readouterr().out
        assert out.startswith("=== Dashboard: GamerQueen")
        # Three days of demo traffic: 2 + 3 + 4 queries, each clicked.
        assert "queries: 9   clicks: 9" in out
        for heading in ("[Top queries]", "[Rising queries",
                        "[Clicked sites]", "[Monetization]"):
            assert heading in out

    def test_suggest_without_history_uses_link_prior(self, capsys):
        code = self.run("suggest", "gamespot.com")
        out = capsys.readouterr().out
        assert code == 0
        assert "related to" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            self.run("frobnicate")
