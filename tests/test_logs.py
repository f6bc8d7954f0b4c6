"""Tests for query/click logging."""

from repro.searchengine.logs import ClickEvent, QueryEvent, QueryLog


def q(query, app_id=None, session_id=None, vertical="web"):
    return QueryEvent(timestamp_ms=0, query=query, vertical=vertical,
                      app_id=app_id, session_id=session_id)


def c(query, url, app_id=None, is_ad=False):
    return ClickEvent(timestamp_ms=0, query=query, url=url,
                      app_id=app_id, is_ad=is_ad)


class TestQueryLog:
    def test_append_and_slice_by_app(self):
        # An app's queries are its customers' ("app" events), not the
        # engine look-ups those queries drove under its id.
        log = QueryLog()
        log.log_query(q("halo", app_id="a", vertical="app"))
        log.log_query(q('"halo" reviews', app_id="a"))
        log.log_query(q("zelda", app_id="b", vertical="app"))
        log.log_click(c("halo", "http://x.example/1", app_id="a"))
        assert [e.query for e in log.queries_for_app("a")] == ["halo"]
        assert len(log.queries) == 3
        assert len(log.clicks_for_app("a")) == 1
        assert log.queries_for_app("c") == []

    def test_click_site_extraction(self):
        click = c("halo", "http://gamespot.com/halo-review")
        assert click.site == "gamespot.com"

    def test_clicked_sites_by_query_groups_and_normalizes(self):
        log = QueryLog()
        log.log_click(c("Halo ", "http://a.example/1"))
        log.log_click(c("halo", "http://b.example/2"))
        log.log_click(c("zelda", "http://c.example/3"))
        grouped = log.clicked_sites_by_query()
        assert grouped["halo"] == {"a.example", "b.example"}
        assert grouped["zelda"] == {"c.example"}

    def test_ad_clicks_excluded_from_cooccurrence(self):
        log = QueryLog()
        log.log_click(c("halo", "http://ads.example/1", is_ad=True))
        assert log.clicked_sites_by_query() == {}

