"""A ``put`` that sweeps only when an entry can have expired evicts
exactly what a sweep of every entry on every ``put`` evicted.

:class:`FullScanCache` is :class:`ResultCache` with the ``put`` it had
before the cache kept a lower bound on its oldest entry, on the same two
segments: walk all entries of both for TTL-dead ones, then cap the
unread segment, generation-dead entries first — every one of them, not
only after the registry's ``bumps()`` moved. It is the specification.
Random sequences of put / get / generation bump / silent generation
advance (an engine write) / clock step — the clock also steps backwards
— must leave both caches with the same ``stats()``, the same keys in the
same LRU order in each segment and the same answers to every ``get``.
"""

from hypothesis import given, settings, strategies as st

from repro.gateway.cache import ResultCache
from repro.gateway.generations import GenerationRegistry

TTL_MS = 50
KEYS = ("a", "b", "c", "d", "e", "f", "g")
GENERATION_KEYS = ("corpus:web", "tenant:t1:inventory")


class FullScanCache(ResultCache):
    def put(self, key, value, now_ms: int, stamp=None) -> None:
        self._read.pop(key, None)
        self._unread[key] = (now_ms, stamp or {}, value)
        self._unread.move_to_end(key)
        for segment in (self._unread, self._read):
            expired = [
                k for k, (stored_ms, __, ___) in segment.items()
                if now_ms - stored_ms > self.ttl_ms
            ]
            for k in expired:
                del segment[k]
            self._ttl_evictions += len(expired)
        if len(self._unread) > self.max_entries:
            self._drop_stale()
        while len(self._unread) > self.max_entries:
            self._unread.popitem(last=False)
            self._lru_evictions += 1

    def _drop_stale(self) -> None:
        for segment in (self._unread, self._read):
            stale = [k for k, (__, stamp, ___) in segment.items()
                     if not self._generations.valid(stamp)]
            for k in stale:
                del segment[k]
            self._stale += len(stale)


operations = st.lists(st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS),
              st.sampled_from(((), GENERATION_KEYS[:1], GENERATION_KEYS))),
    st.tuples(st.just("get"), st.sampled_from(KEYS)),
    st.tuples(st.sampled_from(("bump", "advance")),
              st.sampled_from(GENERATION_KEYS)),
    st.tuples(st.just("step"), st.integers(-2 * TTL_MS, 2 * TTL_MS)),
), max_size=80)


@settings(max_examples=400)
@given(operations, st.integers(1, 6))
def test_bounded_sweep_equals_full_scan(steps, capacity):
    generations = GenerationRegistry()
    cache = ResultCache(capacity, TTL_MS, generations)
    reference = FullScanCache(capacity, TTL_MS, generations)
    now = 1_000
    gets = 0
    for n, step in enumerate(steps):
        kind = step[0]
        if kind == "put":
            stamp = cache.stamp(step[2])
            cache.put(step[1], n, now, stamp)
            reference.put(step[1], n, now, stamp)
        elif kind == "get":
            gets += 1
            assert cache.get(step[1], now) == reference.get(step[1], now)
        elif kind == "bump":
            generations.bump(step[1])
        elif kind == "advance":
            generations.advance(step[1])
        else:
            now += step[1]
        assert cache.stats() == reference.stats(), (n, step)
        assert list(cache._unread) == list(reference._unread), (n, step)
        assert list(cache._read) == list(reference._read), (n, step)
        # Every get lands in the hit/miss ledger, and neither segment
        # outgrows its cap.
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == gets, (n, step)
        assert len(cache._unread) <= capacity, (n, step)
        assert len(cache._read) <= capacity, (n, step)
        assert stats["entries"] == len(cache), (n, step)
