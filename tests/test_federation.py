"""repro.federation: registry, executor, query lab, source, wiring.

Covers the federation subsystem end to end — capability-described
backends over the engine, the baselines, and core data sources; the
scatter-gather executor's budgets, degradation, and telemetry; the
query-generator strategies; the FederatedSearchSource in the runtime;
and the platform/designer/CLI integration points.
"""

from __future__ import annotations

import pytest

from repro.core.application import SourceBinding, SourceRole
from repro.core.capability import BackendDescriptor
from repro.core.datasources import SourceKind, SourceQuery
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
    FederatedSearchSource,
    FederationExecutor,
    FederationPolicy,
    QueryGeneratorLab,
    SourceBackend,
    baseline_backend,
    get_generator,
)
from repro.gateway.generations import TOPOLOGY_KEY, corpus_key
from repro.resilience.deadline import Deadline
from repro.util import SimClock


class _StaticBackend:
    """A hand-fed backend for executor tests."""

    def __init__(self, backend_id, urls, cost=1.0, fail=False,
                 generation_keys=()):
        self.descriptor = BackendDescriptor(
            backend_id=backend_id, system="test", search_api="static",
            cost_per_query=cost, generation_keys=generation_keys,
        )
        self.backend_id = backend_id
        self.urls = urls
        self.fail = fail
        self.calls = 0

    def search(self, text, count=10, deadline=None, context=None):
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

    def test_generation_keys_union(self):
        registry = _registry(
            _StaticBackend("a", [], generation_keys=("corpus",)),
            _StaticBackend("b", [],
                           generation_keys=("corpus", "tenant:t/x")),
        )
        assert registry.generation_keys() == ("corpus", "tenant:t/x")
        assert registry.generation_keys(("a",)) == ("corpus",)


class TestEngineAndSourceBackends:
    def test_engine_backend_descriptor_and_search(self, engine):
        backend = EngineBackend("local", engine)
        d = backend.descriptor
        assert d.supports_fielded and d.supports_entity
        assert d.generation_keys == (corpus_key("web"),)
        items = backend.search("game review", count=5)
        assert items and items[0].rank == 1
        assert all(item.backend_id == "local" for item in items)

    def test_clustered_engine_backend_stamps_topology(self, tiny_web):
        sym = Symphony(web=tiny_web, use_authority=False, cluster=2)
        backend = EngineBackend("cluster", sym.engine)
        assert set(backend.descriptor.generation_keys) \
            == {corpus_key("web"), TOPOLOGY_KEY}

    def test_source_backend_over_web_source(self, symphony):
        source = symphony.add_web_source("Reviews", "web")
        backend = SourceBackend(source)
        assert backend.descriptor.generation_keys == (corpus_key("web"),)
        assert backend.search("game", count=3)

    def test_source_backend_over_table_infers_table_key(self, symphony):
        account = symphony.register_designer("Ann")
        games = symphony.web.entities["video_games"][:3]
        rows = "title,producer\n" + "\n".join(
            f"{g},Studio {i}" for i, g in enumerate(games)
        )
        symphony.upload_http(account, "inv.csv", rows.encode(),
                             "inventory", content_type="text/csv")
        source = symphony.add_proprietary_source(
            account, "inventory", ("title",))
        backend = SourceBackend(source, backend_id="inventory")
        (key,) = backend.descriptor.generation_keys
        assert key.startswith("tenant:") and key.endswith(":inventory")
        items = backend.search(games[0])
        assert items and items[0].title == games[0]


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
            def search(self, text, count=10, deadline=None,
                       context=None):
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


class TestFederatedSearchSource:
    def _executor(self):
        return FederationExecutor(_registry(
            _StaticBackend("a", [f"uA{i}" for i in range(8)]),
            _StaticBackend("b", [f"uB{i}" for i in range(8)]),
            _StaticBackend("down", ["x"], fail=True,
                           generation_keys=("tenant:t/inv",)),
        ))

    def test_kind_fields_and_describe(self):
        source = FederatedSearchSource("fed", "Meta", self._executor())
        assert source.kind == SourceKind.FEDERATED
        assert "backends" in source.fields()
        assert source.describe()["backends"] == ["a", "b", "down"]

    def test_degraded_flag_propagates(self):
        source = FederatedSearchSource("fed", "Meta", self._executor())
        result = source.search(SourceQuery("q"))
        assert result.degraded is True
        assert result.items

    def test_offset_windowing(self):
        source = FederatedSearchSource("fed", "Meta", self._executor(),
                                       backend_ids=("a",))
        page1 = source.search(SourceQuery("q", count=3))
        page2 = source.search(SourceQuery("q", count=3, offset=3))
        urls1 = [item.url for item in page1.items]
        urls2 = [item.url for item in page2.items]
        assert len(urls1) == len(urls2) == 3
        assert not set(urls1) & set(urls2)

    def test_generation_keys_union_of_selected_backends(self):
        executor = self._executor()
        everything = FederatedSearchSource("f1", "All", executor)
        assert everything.generation_keys() == ("tenant:t/inv",)
        subset = FederatedSearchSource("f2", "Some", executor,
                                       backend_ids=("a", "b"))
        assert subset.generation_keys() == ()


class TestPlatformIntegration:
    def test_enable_federation_is_idempotent(self, symphony):
        executor = symphony.enable_federation()
        assert symphony.enable_federation() is executor
        assert executor.registry.ids() == ["local"]

    def test_federated_primary_app_end_to_end(self, symphony):
        from repro.baselines import YahooBossPlatform
        executor = symphony.enable_federation()
        executor.registry.add(
            baseline_backend(YahooBossPlatform(symphony.engine)))
        fed = symphony.add_federated_source("Meta search")
        session = symphony.designer().new_application(
            "FedApp", "tenant-1")
        slot = session.drag_source_onto_app(fed.source_id,
                                            heading="Everywhere")
        session.add_text(slot, "title")
        app_id = symphony.host(session)
        game = symphony.web.entities["video_games"][0]
        response = symphony.query(app_id, game)
        assert response.views
        fields = response.views[0].item.fields
        assert "local" in fields["backends"]

    def test_resilience_retry_policy_is_shared(self, tiny_web):
        from repro.resilience import ResilienceConfig, RetryPolicy
        config = ResilienceConfig(retry=RetryPolicy(max_attempts=7))
        sym = Symphony(web=tiny_web, use_authority=False,
                       resilience=config)
        executor = sym.enable_federation()
        assert executor.policy.retry.max_attempts == 7

    def test_generation_bump_invalidates_federated_runtime_cache(
            self, symphony):
        """Re-ingest on a federated table backend drops the runtime's
        cached fused results for the federated source."""
        sym = symphony
        account = sym.register_designer("Ann")
        games = sym.web.entities["video_games"][:3]
        rows = "title,producer\n" + "\n".join(
            f"{g},Studio {i}" for i, g in enumerate(games))
        sym.upload_http(account, "inv.csv", rows.encode(), "inventory",
                        content_type="text/csv")
        table_source = sym.add_proprietary_source(
            account, "inventory", ("title",))
        executor = sym.enable_federation()
        executor.registry.add(
            SourceBackend(table_source, backend_id="inventory"))
        fed = sym.add_federated_source("Meta")
        session = sym.designer().new_application(
            "FedApp", account.tenant.tenant_id)
        slot = session.drag_source_onto_app(fed.source_id)
        session.add_text(slot, "title")
        app_id = sym.host(session)

        sym.query(app_id, games[0])
        cached = sym.query(app_id, games[0])
        assert cached.trace.cache_hits >= 1
        fresh = rows.replace("Studio", "Reissue")
        sym.upload_http(account, "inv2.csv", fresh.encode(),
                        "inventory", content_type="text/csv",
                        key_field="title")
        after = sym.query(app_id, games[0])
        assert after.trace.cache_hits == 0


class TestRuntimeQueryStrategy:
    def test_binding_round_trips_query_strategy(self):
        binding = SourceBinding(
            binding_id="b1", source_id="s1",
            role=SourceRole.SUPPLEMENTAL, drive_fields=("title",),
            query_strategy="entity",
        )
        assert SourceBinding.from_dict(binding.to_dict()) == binding

    def test_designer_threads_strategy_into_supplemental(
            self, symphony):
        games = symphony.web.entities["video_games"][:1]
        reviews = symphony.add_web_source("Reviews", "web")
        account = symphony.register_designer("Ann")
        rows = f"title,producer\n{games[0]},Studio 0"
        symphony.upload_http(account, "inv.csv", rows.encode(),
                             "inventory", content_type="text/csv")
        inventory = symphony.add_proprietary_source(
            account, "inventory", ("title",))
        session = symphony.designer().new_application(
            "App", account.tenant.tenant_id)
        slot = session.drag_source_onto_app(inventory.source_id)
        session.add_text(slot, "title")
        child = session.drag_source_onto_result_layout(
            slot, reviews.source_id, drive_fields=("title",),
            query_suffix="review", query_strategy="entity",
        )
        app = session.build()
        assert app.binding(child.binding_id).query_strategy == "entity"
        app_id = symphony.host(app)
        response = symphony.query(app_id, games[0])
        assert response.views

    def test_derive_query_applies_strategy(self):
        from repro.core.datasources import SourceItem
        item = SourceItem(item_id="1", title="Halo Odyssey",
                          fields={"title": "Halo Odyssey"})
        plain = SourceBinding(
            binding_id="b", source_id="s",
            role=SourceRole.SUPPLEMENTAL, drive_fields=("title",),
            query_suffix="review",
        )
        assert plain.derive_query(item) == '"Halo Odyssey" review'
        entity = SourceBinding(
            binding_id="b", source_id="s",
            role=SourceRole.SUPPLEMENTAL, drive_fields=("title",),
            query_suffix="review", query_strategy="entity",
        )
        assert entity.derive_query(item) == '"halo odyssey" review'
        assert entity.derive_query(item, with_suffix=False) \
            == '"halo odyssey"'


class TestCli:
    def test_federation_command(self, capsys):
        from repro.cli import main
        assert main(["--seed", "11", "federation",
                     "--queries", "3"]) == 0
        out = capsys.readouterr().out
        assert "fusion methods" in out
        assert "query-generator strategies" in out
        assert "rrf" in out and "keyword" in out
