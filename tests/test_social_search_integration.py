"""Integration tests for social search (future work item 3) wired into
the runtime."""

import pytest


@pytest.fixture()
def voting_app(symphony, designer_account):
    """An app whose primary query returns several near-tied results."""
    sym = symphony
    games = sym.web.entities["video_games"][:6]
    rows = ["title,producer,detail_url"]
    for i, game in enumerate(games):
        # Shared word "classic" so one query matches many rows with
        # similar scores.
        rows.append(f"Classic {game},Studio,"
                    f"http://shop.example/items/{i}")
    sym.upload_http(designer_account, "inv.csv",
                    "\n".join(rows).encode(), "inventory",
                    content_type="text/csv")
    inventory = sym.add_proprietary_source(
        designer_account, "inventory", ("title",))
    session = sym.designer().new_application(
        "Votes", designer_account.tenant.tenant_id)
    slot = session.drag_source_onto_app(
        inventory.source_id, max_results=5, search_fields=("title",))
    session.add_hyperlink(slot, "title", href_field="detail_url")
    app_id = sym.host(session)
    return sym, app_id


class TestSocialSearchIntegration:
    def test_votes_rerank_primary_results(self, voting_app):
        sym, app_id = voting_app
        sym.enable_social_search(vote_weight=2.0)
        baseline = sym.query(app_id, "classic")
        assert len(baseline.views) >= 3
        target = baseline.views[-1].item
        for __ in range(25):
            sym.vote(app_id, target.url, up=True)
        sym.runtime.cache.clear()  # votes must re-apply on fresh data
        boosted = sym.query(app_id, "classic")
        urls = [view.item.url for view in boosted.views]
        assert urls.index(target.url) < \
            [v.item.url for v in baseline.views].index(target.url)

    def test_downvotes_demote(self, voting_app):
        sym, app_id = voting_app
        sym.enable_social_search(vote_weight=2.0)
        baseline = sym.query(app_id, "classic")
        top = baseline.views[0].item
        runner_up = baseline.views[1].item
        for __ in range(25):
            sym.vote(app_id, top.url, up=False)
            sym.vote(app_id, runner_up.url, up=True)
        sym.runtime.cache.clear()
        reranked = sym.query(app_id, "classic")
        urls = [view.item.url for view in reranked.views]
        assert urls.index(runner_up.url) < urls.index(top.url)

    def test_votes_scoped_per_app(self, voting_app):
        sym, app_id = voting_app
        feedback = sym.enable_social_search()
        sym.vote(app_id, "http://shop.example/items/0")
        assert feedback.tally("other-app",
                              "http://shop.example/items/0").total == 0

    def test_vote_without_enable_auto_enables(self, voting_app):
        sym, app_id = voting_app
        assert sym.runtime.community_feedback is None
        sym.vote(app_id, "http://shop.example/items/0")
        assert sym.runtime.community_feedback is not None

    def test_without_social_search_order_is_pure_relevance(self,
                                                           voting_app):
        sym, app_id = voting_app
        first = sym.query(app_id, "classic")
        again = sym.query(app_id, "classic")
        assert [v.item.url for v in first.views] == \
            [v.item.url for v in again.views]

