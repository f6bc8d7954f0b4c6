"""Tests for the command-line interface."""

import pytest


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

    @pytest.mark.parametrize("argv", [
        ("--split", "9"), ("--split", "-1"), ("--merge", "0", "9"),
        ("--merge", "1", "-1"), ("--merge", "0", "0")])
    def test_controlplane_refuses_an_unrouted_shard(self, capsys, argv):
        assert self.run("controlplane", *argv) == 1
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert "shard" in out

    def test_chaos_refuses_a_misspelled_plan(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"queries": 2, "durability": {"crash": []}}')
        assert self.run("chaos", "--plan", str(plan)) == 1
        assert capsys.readouterr().out == \
            "fault plan: unknown key durability.crash\n"
