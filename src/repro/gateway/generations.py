"""Corpus/table generation stamps for invalidation-aware caching.

Every cacheable computation in the serving path depends on some body of
data — a designer's proprietary table, the crawled web corpus.  The
:class:`GenerationRegistry` assigns each such dependency a monotonically
increasing integer generation.  Ingest and refresh bump the generation of
whatever they rewrote, and every engine write advances its vertical's
corpus generation; caches stamp entries with the generations they were
computed against and treat any mismatch as a miss, so a designer
re-uploading her inventory can never be served results computed over the
old rows, nor an app the news it showed before a story was added or
removed.  Nothing is pushed on a bump: a cache finds out when it next
reads a stamped entry.  Which keys a source's results depend on is the
source's own answer — :meth:`~repro.core.datasources.DataSource.
generation_keys` — and, for anything an engine serves, the engine's
(``SearchEngine.generation_keys`` / ``ClusteredSearchEngine.
generation_keys``), built from the names here.
"""

from __future__ import annotations

from repro.telemetry import NULL_EVENTS

__all__ = ["GenerationRegistry", "table_key", "corpus_key",
           "TOPOLOGY_KEY"]

#: Generation key for the cluster's shard layout. The control plane
#: bumps it at every reshard cutover, so cached responses computed over
#: the old topology (and the old shard contents) die immediately.
TOPOLOGY_KEY = "cluster-topology"


def table_key(tenant_id: str, table_name: str) -> str:
    """The generation key of one tenant's table."""
    return f"tenant:{tenant_id}:{table_name}"


def corpus_key(vertical: str) -> str:
    """The generation key of one engine vertical's documents."""
    return f"corpus:{vertical}"


class GenerationRegistry:
    """Monotonic generation counters keyed by data dependency.

    A key that was never bumped is at generation 0, so caches can stamp
    entries before the first ingest without special-casing.
    """

    def __init__(self, events=NULL_EVENTS) -> None:
        self._generations: dict[str, int] = {}
        self._bumps = 0
        self._events = events

    def bumps(self) -> int:
        """Bumps so far, over all keys: unchanged means every stamp
        that was valid still is."""
        return self._bumps

    def current(self, key: str) -> int:
        return self._generations.get(key, 0)

    def snapshot(self, keys) -> dict:
        """Current generation of each key, as a cache stamp."""
        return {key: self._generations.get(key, 0) for key in keys}

    def valid(self, stamp: dict) -> bool:
        """True while every stamped generation is still current."""
        return all(self._generations.get(key, 0) == generation
                   for key, generation in stamp.items())

    def advance(self, key: str) -> int:
        """Move ``key`` to a new generation, silently: an engine write
        is too frequent to be an event."""
        generation = self._generations.get(key, 0) + 1
        self._generations[key] = generation
        self._bumps += 1
        return generation

    def bump(self, key: str) -> int:
        """:meth:`advance` ``key`` and emit a ``generation.bump`` event."""
        generation = self.advance(key)
        self._events.emit("generation.bump", key=key,
                          generation=generation)
        return generation
