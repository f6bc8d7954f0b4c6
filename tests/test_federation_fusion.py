"""Property tests for rank fusion (ISSUE 7 satellite).

Hypothesis-driven invariants over :mod:`repro.federation.fusion`:
permutation invariance of input order, deterministic tie-breaking,
duplicate-URL dedup keeping the best-ranked copy, and single-backend
equivalence (RRF reproduces the lone backend's ordering exactly).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.federation.fusion import (
    FUSION_METHODS,
    FederatedItem,
    comb_mnz,
    comb_sum,
    fuse,
)

import pytest


def _items(backend_id, pairs):
    """Ranked FederatedItems for (url, score) pairs, ranks 1..n."""
    return [
        FederatedItem(url=url, title=url, score=score,
                      backend_id=backend_id, rank=rank)
        for rank, (url, score) in enumerate(pairs, start=1)
    ]


urls = st.integers(min_value=0, max_value=24).map(
    lambda i: f"http://site{i % 5}.example/page-{i}"
)
pairs = st.lists(
    st.tuples(urls, st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False)),
    min_size=0, max_size=12,
)
backend_lists = st.dictionaries(
    keys=st.sampled_from(["alpha", "beta", "gamma", "delta"]),
    values=pairs,
    min_size=1, max_size=4,
).map(lambda d: {bid: _items(bid, p) for bid, p in d.items()})


class TestPermutationInvariance:
    @given(lists=backend_lists,
           method=st.sampled_from(FUSION_METHODS))
    @settings(max_examples=120)
    def test_backend_insertion_order_is_irrelevant(self, lists,
                                                   method):
        forward = fuse(lists, method=method)
        reversed_insertion = fuse(
            dict(reversed(list(lists.items()))), method=method
        )
        assert forward == reversed_insertion

    @given(lists=backend_lists)
    @settings(max_examples=80)
    def test_rrf_fusion_is_pure(self, lists):
        assert fuse(lists) == fuse(lists)


class TestDeterministicTieBreaking:
    @given(lists=backend_lists,
           method=st.sampled_from(FUSION_METHODS))
    @settings(max_examples=120)
    def test_equal_scores_order_by_url(self, lists, method):
        fused = fuse(lists, method=method)
        for first, second in zip(fused, fused[1:]):
            assert first.fused_score >= second.fused_score
            if first.fused_score == second.fused_score:
                assert first.url < second.url


class TestDedup:
    @given(lists=backend_lists)
    @settings(max_examples=120)
    def test_each_url_appears_once(self, lists):
        fused = fuse(lists)
        fused_urls = [item.url for item in fused]
        assert len(fused_urls) == len(set(fused_urls))
        all_urls = {item.url
                    for items in lists.values() for item in items}
        assert set(fused_urls) == all_urls

    @given(lists=backend_lists)
    @settings(max_examples=120)
    def test_kept_copy_is_best_ranked(self, lists):
        fused = fuse(lists)
        for item in fused:
            copies = [
                (candidate.rank, candidate.backend_id)
                for items in lists.values() for candidate in items
                if candidate.url == item.url
            ]
            assert (item.best.rank, item.best.backend_id) \
                == min(copies)

    def test_within_backend_duplicate_keeps_lowest_rank(self):
        url = "http://site0.example/dup"
        lists = {"alpha": _items("alpha", [(url, 1.0),
                                           ("http://o.example/x", 2.0),
                                           (url, 9.0)])}
        fused = fuse(lists)
        kept = next(item for item in fused if item.url == url)
        assert kept.best.rank == 1


class TestSingleBackendEquivalence:
    @given(items=pairs)
    @settings(max_examples=120)
    def test_rrf_preserves_the_lone_backend_order(self, items):
        lists = {"solo": _items("solo", items)}
        fused = fuse(lists, method="rrf")
        # What fusion should reproduce: the backend's own ordering
        # after URL dedup (first == best-ranked occurrence wins).
        expected = []
        seen = set()
        for item in lists["solo"]:
            if item.url not in seen:
                seen.add(item.url)
                expected.append(item.url)
        assert [item.url for item in fused] == expected

    @given(items=pairs)
    @settings(max_examples=60)
    def test_every_method_returns_the_same_url_set(self, items):
        lists = {"solo": _items("solo", items)}
        by_method = {method: {i.url for i in fuse(lists, method=method)}
                     for method in FUSION_METHODS}
        assert by_method["rrf"] == by_method["combsum"] \
            == by_method["combmnz"]


class TestCombMethods:
    @given(lists=backend_lists)
    @settings(max_examples=80)
    def test_combmnz_is_combsum_scaled_by_occurrences(self, lists):
        sums = comb_sum(lists)
        mnz = comb_mnz(lists)
        occurrences = {}
        for items in lists.values():
            for url in {item.url for item in items}:
                occurrences[url] = occurrences.get(url, 0) + 1
        for url, value in mnz.items():
            assert value == pytest.approx(
                sums[url] * occurrences[url]
            )

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            fuse({}, method="borda")
