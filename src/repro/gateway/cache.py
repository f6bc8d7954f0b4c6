"""The platform's one cache: segmented LRU + TTL + generation stamps.

Two instances serve a query.  The runtime keeps per-source
:class:`~repro.core.datasources.SourceResult` objects keyed by
``(source's cache identity, query, count, offset, search fields)``, so
tenants' web sources that search alike share entries; the gateway keeps
whole :class:`~repro.core.runtime.ApplicationResponse` objects keyed by
``(app_id, app version, normalized query, page, customer)`` — one hit
there skips the entire pipeline.  Every entry is stamped with the
generations (see :mod:`repro.gateway.generations`) of the data it was
computed from, as named by
:meth:`~repro.core.datasources.DataSource.generation_keys`; a designer
re-ingesting her table bumps the generation and every stamped entry
becomes a miss on its next read.  Stale hits are therefore *impossible*,
not merely bounded by TTL, and nobody has to be told about a bump.

Each instance splits its entries into two LRU segments, *unread* and
*read*, each bounded by ``max_entries``.  A Fig. 2 query stores an
entry per source call and reads most of them never again, while the
supplemental look-ups its results derive (a franchise, a category) come
round on every query; in one LRU the first kind pushed the second out.
Only the unread segment evicts, so a scan of one-hit entries cannot
displace an entry that has been served.

Stampede protection is the gateway's single-flight table: a miss there
enters the flight table before executing, so concurrent misses for one
key cost one execution.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.gateway.generations import GenerationRegistry

__all__ = ["ResultCache", "normalize_query"]


def normalize_query(text: str) -> str:
    """Collapse the query variations that cannot change results.

    Case folding matches the search substrate (analysis lowercases
    terms); whitespace runs collapse to single spaces.
    """
    return " ".join(text.split()).lower()


class ResultCache:
    """Segmented LRU + TTL cache validated against a generation registry.

    Entries live in one of two LRU segments, each bounded by
    ``max_entries`` (so the cache holds at most twice that):

    * *unread* — stored and not read since; every ``put`` lands here;
    * *read* — served at least once; a hit in *unread* moves the entry
      here, and when *read* overflows its least recently used entry
      drops back to *unread*.

    Only *unread* evicts. A stream of values nobody reads again (each
    query's own primary result) can therefore push out only other
    unread entries, never a look-up that is served on every query: an
    entry that was read leaves only by TTL, by a generation bump, or by
    ``max_entries`` more recently read entries (scan resistance).

    TTL is judged against the simulated clock so tests can age entries
    deterministically. Expired entries are swept on a ``put`` when an
    entry can have expired (not just when their key is re-read), so an
    app issuing many distinct queries cannot hold dead entries up to the
    cap; a lower bound on the oldest entry's time tells when, so other
    puts walk nothing. That sweep is TTL-only — an entry whose
    generation moved dies when it is read or when *unread* reaches its
    cap, where the entries a bump killed go before any live one (one
    scan per bump at most). An entry keeps its store time as it moves
    between segments.
    Not locked: it has one caller at a time, like everything below the
    gateway.

    Without ``generations`` the cache owns a private registry nobody
    bumps, i.e. plain segmented LRU + TTL.
    """

    def __init__(self, max_entries: int = 512,
                 ttl_ms: int = 5 * 60 * 1000,
                 generations: GenerationRegistry | None = None) -> None:
        if max_entries <= 0 or ttl_ms <= 0:
            raise ValueError("cache parameters must be positive")
        self._generations = generations or GenerationRegistry()
        self.max_entries = max_entries
        self.ttl_ms = ttl_ms
        #: key -> (stored_ms, stamp dict, value), least recent first:
        #: entries not read since they were stored ...
        self._unread: OrderedDict = OrderedDict()
        #: ... and entries served at least once.
        self._read: OrderedDict = OrderedDict()
        #: At most the smallest ``stored_ms`` in either segment.
        self._oldest_ms = float("inf")
        self._hits = 0
        self._misses = 0
        self._stale = 0
        self._swept_bumps = 0
        self._ttl_evictions = 0
        self._lru_evictions = 0

    def get(self, key, now_ms: int):
        segment = self._read
        entry = segment.get(key)
        if entry is None:
            segment = self._unread
            entry = segment.get(key)
            if entry is None:
                self._misses += 1
                return None
        stored_ms, stamp, value = entry
        if now_ms - stored_ms > self.ttl_ms:
            self._ttl_evictions += 1
        elif not self._generations.valid(stamp):
            # The data this value was computed from has been
            # re-ingested; the entry is dead regardless of TTL.
            self._stale += 1
        else:
            self._hits += 1
            if segment is self._read:
                segment.move_to_end(key)
            else:
                del segment[key]
                self._read[key] = entry
                self._fit()
            return value
        del segment[key]
        self._misses += 1
        return None

    def stamp(self, generation_keys) -> dict:
        """The current generation of each key. Take it *before* reading
        the data a value is computed from and hand it to :meth:`put`: a
        re-ingest that lands in between then leaves the entry stale
        instead of stored under the generation that replaced it."""
        return self._generations.snapshot(generation_keys)

    def put(self, key, value, now_ms: int, stamp=None) -> None:
        """Store ``value`` under a :meth:`stamp` (none: plain LRU+TTL)."""
        self._read.pop(key, None)
        self._unread[key] = (now_ms, stamp or {}, value)
        self._unread.move_to_end(key)
        self._oldest_ms = min(self._oldest_ms, now_ms)
        # Sweep TTL-dead entries first; only then apply the caps.
        if now_ms - self._oldest_ms > self.ttl_ms:
            for segment in (self._unread, self._read):
                expired = [
                    k for k, (stored_ms, __, ___) in segment.items()
                    if now_ms - stored_ms > self.ttl_ms
                ]
                for k in expired:
                    del segment[k]
                self._ttl_evictions += len(expired)
            # Never empty: the entry just put has not expired.
            self._oldest_ms = min(
                stored_ms
                for segment in (self._unread, self._read)
                for stored_ms, __, ___ in segment.values())
        self._fit()

    def _fit(self) -> None:
        """Hold both segments to ``max_entries``: *read* overflows into
        *unread*, and *unread* evicts, dead entries first."""
        while len(self._read) > self.max_entries:
            key, entry = self._read.popitem(last=False)
            self._unread[key] = entry
        if len(self._unread) > self.max_entries:
            self._drop_stale()
        while len(self._unread) > self.max_entries:
            self._unread.popitem(last=False)
            self._lru_evictions += 1

    def _drop_stale(self) -> None:
        # A table that is re-ingested every few seconds would otherwise
        # fill the cache with dead entries and push live ones out.
        bumps = self._generations.bumps()
        if bumps == self._swept_bumps:
            return
        self._swept_bumps = bumps
        for segment in (self._unread, self._read):
            stale = [k for k, (__, stamp, ___) in segment.items()
                     if not self._generations.valid(stamp)]
            for k in stale:
                del segment[k]
            self._stale += len(stale)

    def stats(self) -> dict:
        """Lifetime cache statistics (feeds the metrics registry)."""
        total = self._hits + self._misses
        return {
            "hits": self._hits,
            "misses": self._misses,
            "hit_ratio": (self._hits / total) if total else 0.0,
            "stale_invalidations": self._stale,
            "ttl_evictions": self._ttl_evictions,
            "lru_evictions": self._lru_evictions,
            "entries": len(self._unread) + len(self._read),
        }

    def clear(self) -> None:
        self._unread.clear()
        self._read.clear()

    def __len__(self) -> int:
        return len(self._unread) + len(self._read)
