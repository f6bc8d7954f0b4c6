"""Experiment X6 — supplemental query derivation (DESIGN.md §6).

The paper's flow derives one focused supplemental query per primary
result, from that result's drive fields. The runtime derives every
look-up of a query first and sends them as one planned call: each
engine vertical's look-ups go out in one ``search_many``. The artifact
reports that flow on counts, Endrullis, Thor & Rahm's two axes: cost
(look-ups derived, source calls sent) and precision (returned items
whose text holds their own primary result's drive value).
"""

import pytest

from repro.core.platform import Symphony

from benchmarks.conftest import build_gamerqueen, record_artifact


@pytest.fixture(scope="module")
def platform(bench_web):
    symphony = Symphony(web=bench_web, cache_enabled=False,
                        telemetry=True)
    app_id, __ = build_gamerqueen(
        symphony, designer_name="Derive", table_name="derive_inventory",
        n_supplemental=1,
    )
    return symphony, app_id


def run_workload(symphony, app_id, query):
    response = symphony.query(app_id, query)
    spans = symphony.telemetry.tracer.trace_spans(
        response.trace.span.trace_id)
    calls = sum(1 for span in spans if span.name == "source"
                and span.parent.name == "stage:supplemental")
    items = own = covered = 0
    for view in response.views:
        drive = view.item.get("title").lower()
        returned = [item for result in view.supplemental.values()
                    for item in result.items]
        covered += bool(returned)
        items += len(returned)
        own += sum(
            1 for item in returned
            if drive in " ".join([item.title, item.snippet] + [
                str(value) for value in item.fields.values()]).lower()
        )
    return {
        "views": len(response.views),
        "lookups": int(response.trace.stage("supplemental")
                       .detail.split()[0]),
        "calls": calls,
        "items": items,
        "own": own,
        "covered": covered,
    }


def test_supplemental_derivation(benchmark, platform):
    # A broad query that matches several inventory titles, so the
    # supplemental stage has several look-ups to plan.
    symphony, app_id = platform
    counts = benchmark.pedantic(
        run_workload, args=(symphony, app_id, "classic experience"),
        rounds=3, iterations=1,
    )

    own = f"{counts['own']}/{counts['items']}"
    coverage = f"{counts['covered']}/{counts['views']}"
    lines = [
        "Supplemental derivation: one focused look-up per primary "
        "result, sent as one planned call",
        f"{'lookups':>7} {'source_calls':>12} {'items':>5} "
        f"{'own_drive_value':>15} {'coverage':>8}",
        f"{counts['lookups']:>7} {counts['calls']:>12} "
        f"{counts['items']:>5} {own:>15} {coverage:>8}",
    ]
    record_artifact("x6_supplemental_derivation", "\n".join(lines))

    # One look-up per primary view, all of them one engine call.
    assert counts["views"] == 4
    assert counts["lookups"] == 4
    assert counts["calls"] == 1
    # Every view is covered, and every item belongs to its own view.
    assert counts["covered"] == 4
    assert counts["items"] == 8
    assert counts["own"] == counts["items"]
