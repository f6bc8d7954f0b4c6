"""Tests for shared utilities (ids, clock, hashing, chunking)."""

import pytest
from hypothesis import given, strategies as st

from repro.util import (
    IdGenerator,
    SimClock,
    deterministic_rng,
    slugify,
    stable_hash,
)


class TestSlugify:
    def test_basic(self):
        assert slugify("Hello World") == "hello-world"

    def test_punctuation_collapses(self):
        assert slugify("Ann's  Video-Games!!") == "ann-s-video-games"

    def test_empty_falls_back(self):
        assert slugify("") == "item"
        assert slugify("!!!") == "item"

    def test_already_clean(self):
        assert slugify("halo-odyssey") == "halo-odyssey"

    @given(st.text(max_size=60))
    def test_output_is_url_safe(self, text):
        slug = slugify(text)
        assert slug
        assert all(c.isalnum() or c == "-" for c in slug)
        assert not slug.startswith("-") and not slug.endswith("-")


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)

    def test_distinct_inputs_differ(self):
        assert stable_hash("a") != stable_hash("b")

    def test_order_matters(self):
        assert stable_hash("a", "b") != stable_hash("b", "a")

    def test_non_negative(self):
        for value in ("x", 42, ("t", 1)):
            assert stable_hash(value) >= 0


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = deterministic_rng("seed")
        b = deterministic_rng("seed")
        assert [a.random() for _ in range(5)] == \
            [b.random() for _ in range(5)]

    def test_different_seed_different_stream(self):
        a = deterministic_rng("seed-1")
        b = deterministic_rng("seed-2")
        assert [a.random() for _ in range(5)] != \
            [b.random() for _ in range(5)]


class TestIdGenerator:
    def test_sequential(self):
        ids = IdGenerator()
        assert ids.next_id("app") == "app-000001"
        assert ids.next_id("app") == "app-000002"

    def test_independent_prefixes(self):
        ids = IdGenerator()
        ids.next_id("a")
        assert ids.next_id("b") == "b-000001"

    def test_token_prefix_and_uniqueness(self):
        ids = IdGenerator(seed=3)
        t1 = ids.token("embed")
        t2 = ids.token("embed")
        assert t1.startswith("embed_")
        assert t1 != t2

    def test_token_deterministic_across_instances(self):
        assert IdGenerator(seed=9).token("k") == \
            IdGenerator(seed=9).token("k")


class TestSimClock:
    def test_starts_in_2010(self):
        assert SimClock().now_ms == 1_262_304_000_000

    def test_advance(self):
        clock = SimClock(start_ms=0)
        clock.advance(150)
        assert clock.now_ms == 150

    def test_advance_rounds(self):
        clock = SimClock(start_ms=0)
        clock.advance(1.6)
        assert clock.now_ms == 2

    def test_no_backwards(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_timestamp_seconds(self):
        clock = SimClock(start_ms=5000)
        assert clock.timestamp() == 5.0
