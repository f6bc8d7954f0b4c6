"""Experiment X12 — federated meta-search with rank fusion.

Three site-sliced backends (Rollyo, Eurekster, Google Custom — each
driven through its own facade, each seeing a disjoint third of the
synthetic web) federate over a golden set of entity queries, judged by
the generator's own entity labels. The ISSUE's acceptance bars:

* fusion — fused recall@10 over the union meets or beats the best
  single backend for every fusion method (RRF, CombSUM, CombMNZ);
* query-generator lab — the three strategies (keyword, fielded,
  entity-expanded) each retrieve relevant results, with per-strategy
  precision and cost accounted by the lab;
* partial fusion — with one backend chaos-failed (every call raising a
  transport fault), the federated query still answers from the
  survivors: no exception escapes, the backend lands in ``degraded``.

Recall, precision and the lab's cost units are counts, so the
``x12_federation`` artifact is deterministic.
``FederationExecutor.for_platform`` builds an executor the platform
does not hold, and nothing under ``repro.core`` imports
``repro.federation``, so no app's query can reach the lab.
"""

from __future__ import annotations

TOP_K = 10
GOLDEN_LIMIT = 12


def build_federation(web):
    """A Symphony with three site-sliced baseline backends federated.

    Each backend sees one third of the synthetic web's sites, so no
    single backend can reach full recall — the union can.
    """
    from repro.baselines import (
        EureksterPlatform,
        GoogleCustomSearchPlatform,
        RollyoPlatform,
    )
    from repro.core.platform import Symphony
    from repro.federation import FederationExecutor, baseline_backend

    symphony = Symphony(web=web, use_authority=False)
    executor = FederationExecutor.for_platform(symphony)
    # The seeded "local" backend would trivially win (it sees every
    # site); the experiment federates the three restricted slices.
    executor.registry.remove("local")
    sites = sorted({page.site for page in web.pages.values()})
    slices = [tuple(sites[i::3]) for i in range(3)]
    executor.registry.add(baseline_backend(
        RollyoPlatform(symphony.engine), sites=slices[0]))
    executor.registry.add(baseline_backend(
        EureksterPlatform(symphony.engine), sites=slices[1]))
    executor.registry.add(baseline_backend(
        GoogleCustomSearchPlatform(symphony.engine), sites=slices[2]))
    return symphony, executor


def golden_entity_queries(web, limit: int = GOLDEN_LIMIT) -> list:
    """(query_text, entity, relevant-URL set) triples, judged by the
    generator's entity labels on web pages."""
    by_entity: dict = {}
    for page in web.pages.values():
        if page.entity:
            by_entity.setdefault(page.entity, set()).add(page.url)
    golden = []
    for entity in sorted(by_entity):
        if len(by_entity[entity]) < 3:
            continue
        golden.append((entity, entity, by_entity[entity]))
        if len(golden) >= limit:
            break
    return golden


def _recall(urls, relevant, k: int = TOP_K) -> float:
    if not relevant:
        return 0.0
    return len(set(urls[:k]) & relevant) / len(relevant)


def run_fusion_comparison(executor, golden) -> dict:
    """Mean recall@10 per single backend and per fusion method."""
    from repro.federation import FUSION_METHODS

    single = {}
    for backend_id in executor.registry.ids():
        scores = [
            _recall([item.url for item in executor.search(
                text, backend_ids=(backend_id,), count=TOP_K,
            ).items], relevant)
            for text, __, relevant in golden
        ]
        single[backend_id] = sum(scores) / len(scores)
    fused = {}
    for method in FUSION_METHODS:
        scores = [
            _recall([item.url for item in executor.search(
                text, count=TOP_K, fusion=method,
            ).items], relevant)
            for text, __, relevant in golden
        ]
        fused[method] = sum(scores) / len(scores)
    best_single = max(single.values())
    return {"single": single, "fused": fused,
            "best_single": best_single}


def run_strategy_lab(executor, golden) -> list:
    """Precision/cost per query-generator strategy, via the lab."""
    from repro.federation import STRATEGY_NAMES

    executor.lab.stats.clear()
    for strategy in STRATEGY_NAMES:
        for text, entity, relevant in golden:
            result = executor.search(
                text, count=TOP_K, strategy=strategy,
                context={"entity": entity},
            )
            executor.lab.account(
                strategy, [item.url for item in result.items], relevant,
            )
    return executor.lab.report()


class _ChaosBackend:
    """A backend whose every call raises a (retryable) transport fault."""

    def __init__(self, inner) -> None:
        self.descriptor = inner.descriptor
        self.backend_id = inner.backend_id

    def search(self, text, count=10, deadline=None, context=None):
        from repro.errors import TransportError
        raise TransportError(
            f"chaos: backend {self.backend_id} unreachable"
        )


def run_chaos_leg(executor, golden) -> dict:
    """Fail one backend outright; fusion must degrade, not throw."""
    victim_id = executor.registry.ids()[0]
    victim = executor.registry.get(victim_id)
    executor.registry.remove(victim_id)
    executor.registry.add(_ChaosBackend(victim))
    try:
        degraded_ok = True
        answered = 0
        threw = 0
        for text, __, relevant in golden:
            try:
                result = executor.search(text, count=TOP_K)
            except Exception:
                threw += 1
                continue
            if victim_id not in result.degraded:
                degraded_ok = False
            if result.items:
                answered += 1
    finally:
        executor.registry.remove(victim_id)
        executor.registry.add(victim)
    return {"victim": victim_id, "queries": len(golden),
            "answered": answered, "threw": threw,
            "degraded_ok": degraded_ok}


def format_artifact(fusion, strategies, chaos) -> str:
    lines = [
        "X12 — federated meta-search "
        "(3 site-sliced baseline backends, entity golden set)",
        "",
        f"  fused recall@{TOP_K} vs single backends",
    ]
    for backend_id in sorted(fusion["single"]):
        marker = ("  <- best single"
                  if fusion["single"][backend_id]
                  == fusion["best_single"] else "")
        lines.append(f"    single:{backend_id:<16} "
                     f"{fusion['single'][backend_id]:.3f}{marker}")
    fusion_ok = True
    for method in sorted(fusion["fused"]):
        score = fusion["fused"][method]
        ok = score >= fusion["best_single"] - 1e-9
        fusion_ok = fusion_ok and ok
        lines.append(f"    fused:{method:<17} {score:.3f}  "
                     f"({score - fusion['best_single']:+.3f})")
    lines.append("")
    lines.append("  query-generator lab (precision/cost per strategy)")
    lines.append(f"    {'strategy':<10} {'queries':>7} {'cost':>8} "
                 f"{'precision':>9} {'cost/relevant':>13}")
    strategies_ok = True
    for row in strategies:
        strategies_ok = strategies_ok and row["relevant_retrieved"] > 0
        cpr = row["cost_per_relevant"]
        cpr_text = "inf" if cpr == float("inf") else f"{cpr:.2f}"
        lines.append(f"    {row['strategy']:<10} {row['queries']:>7} "
                     f"{row['cost']:>8.1f} {row['precision']:>9.3f} "
                     f"{cpr_text:>13}")
    lines.append("")
    lines.append(f"  chaos: backend {chaos['victim']!r} failing every "
                 f"call across {chaos['queries']} queries")
    chaos_ok = (chaos["threw"] == 0 and chaos["degraded_ok"]
                and chaos["answered"] == chaos["queries"])
    lines.append(f"    escaped exceptions {chaos['threw']}, "
                 f"degraded-marked on every query: "
                 f"{chaos['degraded_ok']}, "
                 f"answered {chaos['answered']}/{chaos['queries']}")
    lines += [
        "",
        f"  {'PASS' if fusion_ok else 'FAIL'}: every fusion method's "
        f"recall@{TOP_K} >= best single backend",
        f"  {'PASS' if strategies_ok else 'FAIL'}: all three "
        f"query-generator strategies retrieve relevant results",
        f"  {'PASS' if chaos_ok else 'FAIL'}: chaos-failed backend "
        f"degrades to partial fusion, no exception escapes",
    ]
    return "\n".join(lines)


def test_federation(bench_web):
    """Pytest entry point: record the artifact, enforce the bars."""
    from benchmarks.conftest import record_artifact

    __, executor = build_federation(bench_web)
    golden = golden_entity_queries(bench_web)
    fusion = run_fusion_comparison(executor, golden)
    strategies = run_strategy_lab(executor, golden)
    chaos = run_chaos_leg(executor, golden)
    record_artifact("x12_federation",
                    format_artifact(fusion, strategies, chaos))
    for method, score in fusion["fused"].items():
        assert score >= fusion["best_single"] - 1e-9, method
    assert all(row["relevant_retrieved"] > 0 for row in strategies)
    assert chaos["threw"] == 0
    assert chaos["degraded_ok"]
    assert chaos["answered"] == chaos["queries"]

