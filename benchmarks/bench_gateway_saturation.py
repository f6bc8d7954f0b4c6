"""Experiment X10 — gateway behavior under saturation.

Drives the multi-tenant serving gateway through an offered-load sweep
(1x / 2x / 4x of dispatch capacity, all of the excess from one hot
tenant) and verifies the ISSUE's acceptance bars:

* fairness — at 4x overload every non-hot tenant still completes at
  least 80% of its fair share (DRR should deliver 100%);
* coalescing — a stampede of identical requests collapses to a single
  pipeline execution.

Queue waits are simulated-clock milliseconds read back from the
``gateway_queue_wait_ms`` histogram, so the ``x10_gateway_saturation``
artifact is deterministic. What the gateway hop costs in wall-clock
time is ``gateway.self_ms_per_query`` on the ``gateway_allon`` workload
of ``benchmarks/e2e/``.
"""

from __future__ import annotations

N_TENANTS = 4
CAPACITY = 16          # dispatches pumped per load factor
FAIR_SHARE = CAPACITY // N_TENANTS
LOAD_FACTORS = (1, 2, 4)
STAMPEDE = 16
FAIRNESS_FLOOR = 0.8


def _build_tenants(symphony):
    """Host one single-source app per tenant; returns their app ids."""
    from benchmarks.conftest import make_inventory_rows

    app_ids = []
    for i in range(N_TENANTS):
        account = symphony.register_designer(f"X10 Tenant {i}")
        games = symphony.web.entities["video_games"][:4]
        table = f"x10_inventory_{i}"
        symphony.upload_http(
            account, f"{table}.csv", make_inventory_rows(games),
            table, content_type="text/csv",
        )
        source = symphony.add_proprietary_source(
            account, table,
            search_fields=("title", "producer", "description"),
        )
        session = symphony.designer().new_application(
            f"X10 App {i}", account.tenant.tenant_id
        )
        slot = session.drag_source_onto_app(
            source.source_id, heading="Games", max_results=3,
            search_fields=("title", "producer", "description"),
        )
        session.add_hyperlink(slot, "title", href_field="detail_url")
        app_ids.append(symphony.host(session))
    return app_ids


def _gateway_platform(web):
    from repro.core.platform import Symphony
    from repro.gateway import GatewayConfig

    return Symphony(web=web, use_authority=False, telemetry=True,
                    gateway=GatewayConfig(workers=2))


def run_load_sweep(web) -> list:
    """One fresh platform per load factor; hot tenant floods, rest
    offer exactly their fair share of distinct (uncacheable) queries."""
    from repro.core.runtime import QueryRequest
    from repro.errors import AdmissionRejectedError

    rows = []
    for factor in LOAD_FACTORS:
        symphony = _gateway_platform(web)
        app_ids = _build_tenants(symphony)
        hot, cold = app_ids[0], app_ids[1:]
        games = symphony.web.entities["video_games"][:4]
        offered = shed = 0

        def submit(app_id, query):
            nonlocal offered, shed
            offered += 1
            try:
                symphony.gateway.submit(QueryRequest(
                    app_id=app_id, query_text=query,
                ))
            except AdmissionRejectedError:
                shed += 1

        for i in range(factor * FAIR_SHARE):
            submit(hot, f"{games[i % 4]} hot f{factor} n{i}")
        for app_id in cold:
            for i in range(FAIR_SHARE):
                submit(app_id, f"{games[i % 4]} {app_id} n{i}")
        symphony.gateway.pump(max_dispatches=CAPACITY)

        stats = symphony.gateway.stats()
        completed = stats["completed"]
        min_cold = min(completed.get(app_id, 0) for app_id in cold)
        waits = symphony.telemetry.metrics.histogram(
            "gateway_queue_wait_ms"
        ).summary()
        rows.append({
            "factor": factor,
            "offered": offered,
            "dispatched": stats["dispatched"],
            "shed": shed,
            "hot_completed": completed.get(hot, 0),
            "min_cold_completed": min_cold,
            "fairness": min_cold / FAIR_SHARE,
            "queue_wait_p99_ms": waits.get("p99") or 0.0,
        })
    return rows


def run_stampede(web) -> dict:
    """Identical concurrent requests must collapse to one execution."""
    from repro.core.runtime import QueryRequest

    symphony = _gateway_platform(web)
    app_ids = _build_tenants(symphony)
    query = symphony.web.entities["video_games"][0]
    tickets = [
        symphony.gateway.submit(QueryRequest(app_id=app_ids[0],
                                             query_text=query))
        for __ in range(STAMPEDE)
    ]
    symphony.gateway.pump()
    stats = symphony.gateway.stats()
    responses = {id(ticket.result()) for ticket in tickets}
    return {
        "submitted": STAMPEDE,
        "dispatched": stats["dispatched"],
        "coalesced": stats["coalesced"],
        "coalesce_ratio": stats["coalesced"] / STAMPEDE,
        "distinct_responses": len(responses),
    }


def format_artifact(sweep, stampede) -> str:
    lines = [
        "X10 — gateway under saturation "
        "(4 tenants, capacity 16, hot tenant floods)",
        "",
        "  load   offered  dispatched  shed  hot  min-cold  "
        "fairness  p99 wait",
    ]
    for row in sweep:
        lines.append(
            f"  {row['factor']}x    {row['offered']:7d}  "
            f"{row['dispatched']:10d}  {row['shed']:4d}  "
            f"{row['hot_completed']:3d}  {row['min_cold_completed']:8d}  "
            f"{row['fairness'] * 100:7.0f}%  "
            f"{row['queue_wait_p99_ms']:7.1f}ms"
        )
    fairness_ok = all(row["fairness"] >= FAIRNESS_FLOOR
                      for row in sweep)
    coalesce_ok = (stampede["dispatched"] == 1
                   and stampede["distinct_responses"] == 1)
    lines += [
        "",
        f"  stampede: {stampede['submitted']} identical submits -> "
        f"{stampede['dispatched']} execution(s), "
        f"{stampede['coalesced']} coalesced "
        f"(ratio {stampede['coalesce_ratio'] * 100:.0f}%)",
        "",
        f"  {'PASS' if fairness_ok else 'FAIL'}: non-hot tenants keep "
        f">= {FAIRNESS_FLOOR * 100:.0f}% of fair share at 4x overload",
        f"  {'PASS' if coalesce_ok else 'FAIL'}: stampede collapses to "
        "a single pipeline execution",
    ]
    return "\n".join(lines)


def test_gateway_saturation(bench_web):
    """Pytest entry point: record the artifact, enforce the bars."""
    from benchmarks.conftest import record_artifact

    sweep = run_load_sweep(bench_web)
    stampede = run_stampede(bench_web)
    record_artifact("x10_gateway_saturation",
                    format_artifact(sweep, stampede))
    for row in sweep:
        assert row["fairness"] >= FAIRNESS_FLOOR
    assert stampede["dispatched"] == 1
    assert stampede["distinct_responses"] == 1

