"""repro.federation: registry, executor, query lab, wiring.

Covers the federation lab end to end — capability-described backends
over the engine and the baselines; the scatter-gather executor's
budgets, degradation, and telemetry; the query-generator strategies;
and the executor built over a platform that the CLI drives.
"""

from __future__ import annotations

import pytest

from repro.core.capability import BackendDescriptor
from repro.core.platform import Symphony
from repro.errors import (
    ConfigurationError,
    DuplicateError,
    NotFoundError,
    TransportError,
)
from repro.federation import (
    BackendRegistry,
    EngineBackend,
    FederatedItem,
    FederationExecutor,
    FederationPolicy,
    QueryGeneratorLab,
    baseline_backend,
    get_generator,
)
from repro.resilience.deadline import Deadline
from repro.util import SimClock


class _StaticBackend:
    """A hand-fed backend for executor tests."""

    def __init__(self, backend_id, urls, cost=1.0, fail=False):
        self.descriptor = BackendDescriptor(
            backend_id=backend_id, system="test", search_api="static",
            cost_per_query=cost,
        )
        self.backend_id = backend_id
        self.urls = urls
        self.fail = fail
        self.calls = 0

    def search(self, text, count=10, deadline=None):
        self.calls += 1
        if self.fail:
            raise TransportError(f"{self.backend_id} down")
        return [
            FederatedItem(url=url, title=url,
                          backend_id=self.backend_id, rank=rank)
            for rank, url in enumerate(self.urls[:count], start=1)
        ]


def _registry(*backends):
    registry = BackendRegistry()
    for backend in backends:
        registry.add(backend)
    return registry


class TestBackendRegistry:
    def test_duplicate_id_rejected(self):
        registry = _registry(_StaticBackend("a", ["u1"]))
        with pytest.raises(DuplicateError):
            registry.add(_StaticBackend("a", ["u2"]))

    def test_get_and_remove_unknown(self):
        registry = _registry()
        with pytest.raises(NotFoundError):
            registry.get("ghost")
        with pytest.raises(NotFoundError):
            registry.remove("ghost")

    def test_backends_sorted_by_id(self):
        registry = _registry(_StaticBackend("zeta", []),
                             _StaticBackend("alpha", []))
        assert [b.backend_id for b in registry.backends()] \
            == ["alpha", "zeta"]


class TestEngineBackend:
    def test_engine_backend_descriptor_and_search(self, engine):
        backend = EngineBackend("local", engine)
        d = backend.descriptor
        assert d.supports_fielded and d.supports_entity
        assert d.search_api == "local engine"
        items = backend.search("game review", count=5)
        assert items and items[0].rank == 1
        assert all(item.backend_id == "local" for item in items)

    def test_clustered_engine_backend_names_its_topology(self, tiny_web):
        sym = Symphony(web=tiny_web, use_authority=False, cluster=2)
        backend = EngineBackend("cluster", sym.engine)
        assert backend.descriptor.search_api == "local engine (clustered)"


class TestBaselineBackends:
    def test_all_five_platforms_adapt(self, engine):
        from repro.baselines import (
            EureksterPlatform,
            GoogleBasePlatform,
            GoogleCustomSearchPlatform,
            RollyoPlatform,
            YahooBossPlatform,
        )
        registry = BackendRegistry()
        for platform_cls in (RollyoPlatform, EureksterPlatform,
                             GoogleCustomSearchPlatform,
                             YahooBossPlatform, GoogleBasePlatform):
            registry.add(baseline_backend(platform_cls(engine)))
        assert registry.ids() == ["eurekster", "google-base",
                                  "google-custom", "rollyo", "y-boss"]
        for backend in registry.backends():
            items = backend.search("game review", count=3)
            assert all(item.backend_id == backend.backend_id
                       for item in items)

    def test_site_restriction_respected(self, engine, small_web):
        from repro.baselines import RollyoPlatform
        site = sorted({p.site for p in small_web.pages.values()})[0]
        backend = baseline_backend(RollyoPlatform(engine),
                                   sites=(site,))
        items = backend.search("review", count=10)
        assert items
        assert all(site in item.url for item in items)

    def test_descriptor_costs_external_queries_more(self, engine):
        from repro.baselines import YahooBossPlatform
        local = EngineBackend("local", engine)
        boss = baseline_backend(YahooBossPlatform(engine))
        assert boss.descriptor.cost_per_query \
            > local.descriptor.cost_per_query


class TestQueryGenerators:
    def test_keyword_flattens_to_analyzed_terms(self):
        generator = get_generator("keyword")
        assert generator.generate("Halo: Combat Evolved (2001)") \
            == "halo combat evolved 2001"

    def test_fielded_emits_unquoted_predicates(self):
        fielded = BackendDescriptor(
            backend_id="x", system="s", search_api="a",
            supports_fielded=True,
        )
        generator = get_generator("fielded")
        assert generator.generate("Halo Odyssey", fielded) \
            == "title:halo title:odyssey"

    def test_fielded_falls_back_to_phrase(self):
        unfielded = BackendDescriptor(
            backend_id="x", system="s", search_api="a",
            supports_fielded=False,
        )
        generator = get_generator("fielded")
        assert generator.generate("Halo Odyssey", unfielded) \
            == '"halo odyssey"'

    def test_entity_strategy_uses_entity_field_when_supported(self):
        entity_capable = BackendDescriptor(
            backend_id="x", system="s", search_api="a",
            supports_entity=True,
        )
        generator = get_generator("entity")
        query = generator.generate(
            "halo odyssey", entity_capable,
            context={"entity": "Halo Odyssey",
                     "context_terms": ("review",)},
        )
        assert query == "entity:halo entity:odyssey review"

    def test_entity_strategy_quotes_elsewhere(self):
        generator = get_generator("entity")
        query = generator.generate(
            "halo odyssey", None,
            context={"entity": "Halo Odyssey",
                     "context_terms": ("review",)},
        )
        assert query == '"halo odyssey" review'

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            get_generator("oracle")

    def test_generated_queries_parse(self, engine):
        from repro.searchengine.query import parse_query
        descriptor = BackendDescriptor(
            backend_id="x", system="s", search_api="a",
            supports_fielded=True, supports_entity=True,
        )
        for name in ("keyword", "fielded", "entity"):
            query = get_generator(name).generate(
                "Bioshock Legends review", descriptor,
                context={"entity": "Bioshock Legends"},
            )
            parse_query(query)  # must lex/parse cleanly


class TestQueryGeneratorLab:
    def test_precision_and_cost_accounting(self):
        lab = QueryGeneratorLab()
        lab.charge("keyword", 2.0)
        lab.charge("keyword", 2.0)
        lab.account("keyword", ["u1", "u2", "u3", "u4"], {"u1", "u3"})
        (row,) = lab.report()
        assert row["queries"] == 2
        assert row["cost"] == 4.0
        assert row["precision"] == 0.5
        assert row["cost_per_relevant"] == 2.0

    def test_report_ranks_by_precision(self):
        lab = QueryGeneratorLab()
        lab.account("worse", ["u1", "u2"], {"u1"})
        lab.account("better", ["u1"], {"u1"})
        assert [row["strategy"] for row in lab.report()] \
            == ["better", "worse"]


class TestFederationExecutor:
    def test_failed_backend_degrades_not_raises(self):
        clock = SimClock()
        executor = FederationExecutor(
            _registry(_StaticBackend("ok", ["u1", "u2"]),
                      _StaticBackend("down", ["u3"], fail=True)),
            clock=clock,
        )
        result = executor.search("anything")
        assert result.degraded == ("down",)
        assert [o.backend_id for o in result.outcomes if o.ok] == ["ok"]
        assert [item.url for item in result.items] == ["u1", "u2"]
        failed = next(o for o in result.outcomes if not o.ok)
        assert "down" in failed.error

    def test_a_backend_bug_propagates(self):
        class Buggy(_StaticBackend):
            def search(self, *args, **kwargs):
                raise TypeError("a bug, not a backend fault")

        executor = FederationExecutor(
            _registry(_StaticBackend("ok", ["u1"]), Buggy("buggy", [])),
            clock=SimClock(),
        )
        with pytest.raises(TypeError):
            executor.search("anything")

    def test_retrier_retries_transients(self):
        clock = SimClock()

        class FlakyOnce(_StaticBackend):
            def search(self, *args, **kwargs):
                if self.calls == 0:
                    self.calls += 1
                    raise TransportError("first call fails")
                return super().search(*args, **kwargs)

        flaky = FlakyOnce("flaky", ["u1"])
        executor = FederationExecutor(_registry(flaky), clock=clock)
        result = executor.search("q")
        assert result.degraded == ()
        assert flaky.calls == 2  # retried within the policy

    def test_expired_deadline_skips_backends(self):
        clock = SimClock()
        backend = _StaticBackend("late", ["u1"])
        executor = FederationExecutor(_registry(backend), clock=clock)
        deadline = Deadline(clock, budget_ms=10)
        clock.advance(20)
        result = executor.search("q", deadline=deadline)
        assert backend.calls == 0
        assert result.degraded == ("late",)
        assert result.items == ()

    def test_per_backend_budget_is_a_fraction(self):
        clock = SimClock()
        seen = {}

        class Probe(_StaticBackend):
            def search(self, text, count=10, deadline=None):
                seen["budget"] = deadline.budget_ms
                return []

        executor = FederationExecutor(
            _registry(Probe("probe", [])), clock=clock,
            policy=FederationPolicy(per_backend_budget_frac=0.5),
        )
        executor.search("q", deadline=Deadline(clock, budget_ms=100))
        assert seen["budget"] == pytest.approx(50.0)

    def test_cost_totals_and_lab_charges(self):
        lab = QueryGeneratorLab()
        executor = FederationExecutor(
            _registry(_StaticBackend("a", ["u1"], cost=1.0),
                      _StaticBackend("b", ["u2"], cost=2.5)),
            lab=lab,
        )
        result = executor.search("q")
        assert result.total_cost == pytest.approx(3.5)
        (row,) = lab.report()
        assert row["strategy"] == "keyword"
        assert row["cost"] == pytest.approx(3.5)

    def test_telemetry_spans_and_metrics(self):
        from repro.telemetry import Telemetry
        clock = SimClock()
        telemetry = Telemetry(clock=clock)
        executor = FederationExecutor(
            _registry(_StaticBackend("ok", ["u1"]),
                      _StaticBackend("down", [], fail=True)),
            clock=clock, telemetry=telemetry,
        )
        executor.search("q")
        names = [span.name for span in telemetry.tracer.spans]
        assert "federation" in names
        assert "backend:ok" in names and "backend:down" in names
        prometheus = telemetry.metrics.render_prometheus()
        assert "federation_queries_total 1.0" in prometheus
        assert "federation_degraded_total 1.0" in prometheus

    def test_unknown_fusion_method_raises(self):
        executor = FederationExecutor(
            _registry(_StaticBackend("a", ["u1"])))
        with pytest.raises(ConfigurationError):
            executor.search("q", fusion="borda")


class TestPlatformIntegration:
    def test_for_platform_federates_the_local_engine(self, symphony):
        executor = FederationExecutor.for_platform(symphony)
        assert executor.registry.ids() == ["local"]
        assert isinstance(executor.lab, QueryGeneratorLab)
        assert executor.search("game review").items
        assert not hasattr(symphony, "federation")

    def test_resilience_retry_policy_is_shared(self, tiny_web):
        from repro.resilience import ResilienceConfig, RetryPolicy
        config = ResilienceConfig(retry=RetryPolicy(max_attempts=7))
        sym = Symphony(web=tiny_web, use_authority=False,
                       resilience=config)
        executor = FederationExecutor.for_platform(sym)
        assert executor.policy.retry.max_attempts == 7


class TestCli:
    def test_federation_command(self, capsys):
        from repro.cli import main
        assert main(["--seed", "11", "federation",
                     "--queries", "3"]) == 0
        out = capsys.readouterr().out
        assert "fusion methods" in out
        assert "query-generator strategies" in out
        assert "rrf" in out and "keyword" in out
