"""Golden text of one seeded Fig. 2 query on three configurations.

The files under ``tests/golden/`` were captured at the commit *before*
the runtime's Fig. 2 body became an ordered stage tuple (PR 14) and
pin what that refactor promised to keep byte-identical: stage names and
detail strings, warnings, span names/ids/attributes, events and metric
series. One difference was allowed and is recorded in CHANGES.md: on
the gateway path the ``deadline.exceeded`` event's ``budget_ms`` is the
tenant's full budget (the ``Deadline`` minted at submit) instead of what
queueing left of it.

Regenerate (only when a change is *meant* to alter the text) with::

    PYTHONPATH=src python -m tests.test_golden_pipeline
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.platform import Symphony
from repro.core.runtime import QueryRequest
from repro.resilience import ResilienceConfig
from repro.simweb.generator import WebGenerator
from repro.telemetry.export import telemetry_lines

from tests.conftest import TINY_SPEC

GOLDEN_DIR = Path(__file__).parent / "golden"

CONFIGURATIONS = {
    "bare": {},
    "cluster_telemetry_resilience": {
        "cluster": 2, "telemetry": True, "resilience": True,
    },
    "allon_gateway": {
        "cluster": 2, "telemetry": True, "gateway": True,
        "resilience": ResilienceConfig(deadline_ms=400.0),
        "controlplane": True, "slo": True, "durability": True,
    },
}


def _fig2_app(sym):
    """Every Fig. 2 stage: customer rewrite, proprietary primary, web
    supplemental per result, ads."""
    ann = sym.register_designer("Ann")
    games = sym.web.entities["video_games"][:4]
    rows = ["title,producer,description,detail_url"]
    rows += [f'{name},Studio {i},"A classic {name} experience",'
             f"http://gamerqueen.example/games/{i}"
             for i, name in enumerate(games)]
    sym.upload_http(ann, "inventory.csv", "\n".join(rows).encode("utf-8"),
                    "inventory", content_type="text/csv")
    inventory = sym.add_proprietary_source(
        ann, "inventory", search_fields=("title", "producer",
                                         "description"))
    reviews = sym.add_web_source(
        "Game reviews", "web",
        sites=("gamespot.com", "ign.com", "teamxbox.com"))
    customers = sym.add_customer_source()
    customers.set_profile("c1", ("classic",))
    ads = sym.add_ad_source()
    advertiser = sym.ads.create_advertiser("GameCo", 50.0)
    sym.ads.create_campaign(advertiser.advertiser_id, [games[0], "game"],
                            0.40, "GameCo Megastore",
                            "http://gameco.example")
    session = sym.designer().new_application("GamerQueen",
                                             ann.tenant.tenant_id)
    slot = session.drag_source_onto_app(
        inventory.source_id, heading="Games", max_results=3,
        search_fields=("title", "producer", "description"))
    session.add_hyperlink(slot, "title", href_field="detail_url")
    session.add_text(slot, "description")
    session.drag_source_onto_result_layout(
        slot, reviews.source_id, drive_fields=("title",),
        heading="Reviews", max_results=2, query_suffix="review")
    session.drag_source_onto_app(ads.source_id, heading="Sponsored")
    session.attach_customer_source(customers.source_id)
    return sym.host(session), games


def golden_text(name: str, web) -> str:
    sym = Symphony(web=web, use_authority=False, **CONFIGURATIONS[name])
    app_id, games = _fig2_app(sym)
    ask = sym.query_via_gateway if sym.gateway is not None else sym.query
    responses = [ask(app_id, games[0], session_id="s1", customer_id="c1")]
    if sym.gateway is not None:
        # Two queued requests on a 50 ms budget: the second waits out
        # the first's service time and overruns, which covers the one
        # named difference (see the module docstring).
        tickets = [sym.gateway.submit(QueryRequest(
            app_id=app_id, query_text=game, deadline_ms=50.0))
            for game in games[1:3]]
        sym.gateway.pump()
        responses += [ticket.result() for ticket in tickets]
    sections = []
    for response in responses:
        sections += [response.trace.describe(),
                     response.trace.describe(tree=True)]
    if sym.telemetry.enabled:
        sections.append("\n".join(sorted(
            json.dumps(line, sort_keys=True)
            for line in telemetry_lines(sym.telemetry))))
    return "\n\n".join(sections) + "\n"


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_pipeline_text_matches_golden(name, tiny_web):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    assert golden_text(name, tiny_web) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    web = WebGenerator(TINY_SPEC).build()
    for config in CONFIGURATIONS:
        (GOLDEN_DIR / f"{config}.txt").write_text(
            golden_text(config, web), encoding="utf-8")
