"""Cross-cutting property-based tests (hypothesis) on system invariants."""

import json

from hypothesis import given, settings, strategies as st

from repro.core.application import (
    ApplicationDefinition,
    ElementKind,
    LayoutElement,
    ResultLayout,
    SourceBinding,
    SourceRole,
    SourceSlot,
)
from repro.core.runtime import ResultCache
from repro.ingest.workbook import Workbook, Worksheet, parse_workbook
from repro.searchengine.analysis import Analyzer
from repro.searchengine.documents import FieldedDocument
from repro.searchengine.index import InvertedIndex
from repro.searchengine.query import QueryEvaluator, parse_query
from repro.services.ads import AdService
from repro.util import deterministic_rng

from .conftest import CACHE_STAMPS, dump_workbook

# -- strategies ----------------------------------------------------------------

_WORDS = ["halo", "zelda", "game", "review", "wine", "travel", "combat",
          "guide", "classic", "arcade"]

documents = st.lists(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=10),
    min_size=1, max_size=15,
)

simple_queries = st.one_of(
    st.sampled_from(_WORDS),
    st.tuples(st.sampled_from(_WORDS),
              st.sampled_from(_WORDS)).map(lambda t: f"{t[0]} {t[1]}"),
    st.tuples(st.sampled_from(_WORDS),
              st.sampled_from(_WORDS)).map(
                  lambda t: f"{t[0]} OR {t[1]}"),
    st.sampled_from(_WORDS).map(lambda w: f"NOT {w}"),
    st.tuples(st.sampled_from(_WORDS), st.sampled_from(_WORDS)).map(
        lambda t: f'"{t[0]} {t[1]}"'),
)


def build_index(word_lists):
    index = InvertedIndex(Analyzer())
    for i, words in enumerate(word_lists):
        index.add(FieldedDocument(f"d{i}", {"body": " ".join(words)}))
    return index


# -- query algebra -------------------------------------------------------------

class TestQueryAlgebra:
    @given(documents, st.sampled_from(_WORDS), st.sampled_from(_WORDS))
    def test_or_commutative(self, docs, a, b):
        index = build_index(docs)
        evaluator = QueryEvaluator(index, ["body"])
        left = evaluator.candidates(parse_query(f"{a} OR {b}"))
        right = evaluator.candidates(parse_query(f"{b} OR {a}"))
        assert left == right

    @given(documents, st.sampled_from(_WORDS), st.sampled_from(_WORDS))
    def test_and_commutative(self, docs, a, b):
        index = build_index(docs)
        evaluator = QueryEvaluator(index, ["body"])
        left = evaluator.candidates(parse_query(f"{a} {b}"))
        right = evaluator.candidates(parse_query(f"{b} {a}"))
        assert left == right

    @given(documents, st.sampled_from(_WORDS))
    def test_idempotence(self, docs, word):
        index = build_index(docs)
        evaluator = QueryEvaluator(index, ["body"])
        single = evaluator.candidates(parse_query(word))
        assert evaluator.candidates(parse_query(f"{word} {word}")) == \
            single
        assert evaluator.candidates(
            parse_query(f"{word} OR {word}")) == single

    @given(documents, st.sampled_from(_WORDS))
    def test_excluded_middle(self, docs, word):
        index = build_index(docs)
        evaluator = QueryEvaluator(index, ["body"])
        positive = evaluator.candidates(parse_query(word))
        negative = evaluator.candidates(parse_query(f"NOT {word}"))
        assert positive | negative == index.ordinals()
        assert positive & negative == set()

    @given(documents, simple_queries)
    def test_and_narrows_or_widens(self, docs, query):
        index = build_index(docs)
        evaluator = QueryEvaluator(index, ["body"])
        base = evaluator.candidates(parse_query(query))
        narrowed = evaluator.candidates(
            parse_query(f"({query}) halo"))
        widened = evaluator.candidates(
            parse_query(f"({query}) OR halo"))
        assert narrowed <= base <= widened

    @given(documents, st.sampled_from(_WORDS), st.sampled_from(_WORDS))
    def test_phrase_subset_of_conjunction(self, docs, a, b):
        index = build_index(docs)
        evaluator = QueryEvaluator(index, ["body"])
        phrase = evaluator.candidates(parse_query(f'"{a} {b}"'))
        conjunction = evaluator.candidates(parse_query(f"{a} {b}"))
        assert phrase <= conjunction


# -- serialization round-trips ------------------------------------------------------

app_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz -", min_size=1, max_size=20
).filter(str.strip)

styles = st.dictionaries(
    st.sampled_from(["color", "font-size", "margin"]),
    st.sampled_from(["red", "12px", "4px 0"]),
    max_size=3,
)

elements = st.builds(
    LayoutElement,
    kind=st.sampled_from(list(ElementKind)),
    bind_field=st.sampled_from(["title", "url", "description"]),
    href_field=st.sampled_from(["", "detail_url"]),
    style=styles,
    css_class=st.sampled_from(["", "headline"]),
)


@st.composite
def applications(draw):
    n_children = draw(st.integers(0, 2))
    bindings = [SourceBinding("b0", "s0", SourceRole.PRIMARY,
                              max_results=draw(st.integers(1, 9)))]
    children = []
    for i in range(n_children):
        binding_id = f"c{i}"
        bindings.append(SourceBinding(
            binding_id, f"s{i + 1}", SourceRole.SUPPLEMENTAL,
            drive_fields=("title",),
            query_suffix=draw(st.sampled_from(["", "review"])),
        ))
        children.append(SourceSlot(binding_id=binding_id))
    slots = (SourceSlot(
        binding_id="b0",
        heading=draw(app_names),
        result_layout=ResultLayout(tuple(draw(
            st.lists(elements, max_size=3)))),
        children=tuple(children),
        style=draw(styles),
    ),)
    return ApplicationDefinition(
        app_id="app-x", name=draw(app_names), owner_tenant="t1",
        bindings=tuple(bindings), slots=slots,
        theme=draw(st.sampled_from(["clean", "midnight",
                                    "storefront"])),
        settings=draw(st.dictionaries(
            st.sampled_from(["page_size", "locale"]),
            st.sampled_from([10, "en-us"]), max_size=2)),
    )


class TestRoundTrips:
    @given(applications())
    @settings(max_examples=50)
    def test_application_json_roundtrip(self, app):
        app.validate()
        payload = json.dumps(app.to_dict())
        restored = ApplicationDefinition.from_dict(json.loads(payload))
        assert restored == app

    @given(st.lists(
        st.tuples(st.sampled_from(_WORDS), st.integers(0, 999)),
        min_size=1, max_size=15,
    ))
    def test_workbook_roundtrip(self, rows):
        workbook = Workbook("wb", (Worksheet(
            "S1", ("name", "value"),
            tuple((name, value) for name, value in rows),
        ),))
        assert parse_workbook(dump_workbook(workbook)) == workbook


# -- cache and auction invariants ------------------------------------------------------

class TestCacheProperties:
    @given(st.lists(
        st.tuples(st.sampled_from("abcdef"), st.integers(0, 100)),
        min_size=1, max_size=40,
    ), st.integers(1, 5), st.sampled_from(CACHE_STAMPS))
    def test_lru_never_exceeds_capacity(self, operations, capacity,
                                        stamp):
        cache = ResultCache(max_entries=capacity, ttl_ms=10_000)
        for key, now in operations:
            cache.put(key, key.upper(), now, cache.stamp(stamp))
            assert len(cache) <= capacity

    @given(st.lists(
        st.tuples(st.sampled_from(("put", "get")),
                  st.sampled_from("abcdefgh"), st.integers(0, 100)),
        min_size=1, max_size=60,
    ), st.integers(1, 4), st.sampled_from(CACHE_STAMPS))
    def test_each_segment_stays_within_capacity(self, operations,
                                                capacity, stamp):
        # max_entries bounds the unread and the read segment each, so
        # the cache holds at most twice that.
        cache = ResultCache(max_entries=capacity, ttl_ms=10_000)
        for kind, key, now in operations:
            if kind == "put":
                cache.put(key, key.upper(), now, cache.stamp(stamp))
            else:
                assert cache.get(key, now) in (None, key.upper())
            assert len(cache._unread) <= capacity
            assert len(cache._read) <= capacity
            assert len(cache) == cache.stats()["entries"] <= 2 * capacity

    @given(st.sampled_from("abc"), st.integers(0, 100),
           st.integers(1, 200), st.sampled_from(CACHE_STAMPS))
    def test_ttl_monotone(self, key, stored_at, age, stamp):
        cache = ResultCache(ttl_ms=100)
        cache.put(key, "value", stored_at, cache.stamp(stamp))
        result = cache.get(key, now_ms=stored_at + age)
        if age <= 100:
            assert result == "value"
        else:
            assert result is None


class TestAuctionProperties:
    @given(st.lists(
        st.tuples(
            st.floats(0.02, 2.0, allow_nan=False),
            st.floats(0.5, 1.5, allow_nan=False),
        ),
        min_size=1, max_size=8,
    ), st.integers(1, 4))
    @settings(max_examples=50)
    def test_gsp_prices_bounded_and_order_stable(self, campaigns,
                                                 count):
        ads = AdService()
        advertiser = ads.create_advertiser("A", 10_000.0)
        for i, (bid, quality) in enumerate(campaigns):
            ads.create_campaign(
                advertiser.advertiser_id, ["game"], round(bid, 2),
                f"H{i}", f"http://a.example/{i}",
                quality=round(quality, 2),
            )
        selected = ads.select_ads("game", "app", count=count)
        assert len(selected) <= count
        for ad in selected:
            campaign = ads.campaign(ad.campaign_id)
            assert 0.01 <= ad.price_per_click <= max(
                campaign.bid_per_click, 0.01
            )
        # Ranking is by bid*quality descending.
        ranks = [ads.campaign(ad.campaign_id) for ad in selected]
        scores = [c.bid_per_click * c.quality for c in ranks]
        assert scores == sorted(scores, reverse=True)

    @given(st.integers(1, 30))
    @settings(max_examples=25)
    def test_ledger_identity_holds_for_any_click_count(self, clicks):
        ads = AdService()
        advertiser = ads.create_advertiser("A", 10_000.0)
        ads.create_campaign(advertiser.advertiser_id, ["game"], 0.50,
                            "H", "http://a.example",
                            daily_budget=10_000.0)
        rng = deterministic_rng(("ledger", clicks))
        for i in range(clicks):
            for ad in ads.select_ads("game", "app", count=1,
                                     now_ms=i):
                if rng.random() < 0.7:
                    ads.record_click(ad.ad_id, now_ms=i)
        spend = ads.advertiser_spend(advertiser.advertiser_id)
        payout = ads.designer_earnings("app")
        assert abs(spend - (payout + ads.platform_revenue())) < 1e-6


# -- analyzer/stemmer properties ----------------------------------------------------

class TestAnalyzerProperties:
    @given(st.text(max_size=200))
    def test_analysis_is_deterministic(self, text):
        analyzer = Analyzer()
        assert analyzer.analyze(text) == analyzer.analyze(text)

    @given(st.text(max_size=100))
    def test_positions_strictly_increasing(self, text):
        analyzer = Analyzer()
        positions = [p for __, p in
                     analyzer.analyze_with_positions(text)]
        assert positions == sorted(positions)
        assert len(positions) == len(set(positions))

    @given(st.lists(st.sampled_from(_WORDS), max_size=20))
    def test_index_and_query_agree_on_analysis(self, words):
        """A doc must match a query made of its own (analyzed) words."""
        if not words:
            return
        index = InvertedIndex(Analyzer())
        index.add(FieldedDocument("d", {"body": " ".join(words)}))
        evaluator = QueryEvaluator(index, ["body"])
        for word in set(words):
            assert index.ordinal("d") in evaluator.candidates(
                parse_query(word))
