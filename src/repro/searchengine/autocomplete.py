"""Query auto-completion from past queries and the index vocabulary.

A character trie over normalized past queries (weighted by frequency),
optionally seeded from the index vocabulary so a cold application still
completes to real corpus terms. ``complete(prefix)`` returns the top-k
completions by weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Completion", "AutocompleteIndex"]


@dataclass(frozen=True)
class Completion:
    text: str
    weight: int


@dataclass
class _TrieNode:
    children: dict = field(default_factory=dict)
    # Terminal weight: >0 means a full entry ends here.
    weight: int = 0


class AutocompleteIndex:
    """Prefix completion over weighted entries."""

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._entries: dict[str, int] = {}

    # -- construction -----------------------------------------------------------

    def add(self, text: str, weight: int = 1) -> None:
        key = " ".join(text.lower().split())
        if not key or weight <= 0:
            return
        self._entries[key] = self._entries.get(key, 0) + weight
        node = self._root
        for char in key:
            node = node.children.setdefault(char, _TrieNode())
        node.weight = self._entries[key]

    @classmethod
    def from_query_log(cls, log,
                       app_id: str | None = None) -> "AutocompleteIndex":
        index = cls()
        events = (log.queries if app_id is None
                  else log.queries_for_app(app_id))
        for event in events:
            index.add(event.query)
        return index

    def seed_from_vocabulary(self, inverted_index, field_name: str,
                             min_df: int = 2) -> int:
        """Add frequent index terms as single-word completions."""
        added = 0
        term_map = inverted_index._postings.get(field_name, {})
        for term, by_doc in term_map.items():
            if len(by_doc) >= min_df:
                self.add(term, weight=len(by_doc))
                added += 1
        return added

    # -- lookup -------------------------------------------------------------------

    def complete(self, prefix: str, count: int = 5) -> list[Completion]:
        """Top-``count`` completions of ``prefix`` by weight."""
        key = " ".join(prefix.lower().split())
        if not key:
            return []
        node = self._root
        for char in key:
            node = node.children.get(char)
            if node is None:
                return []
        found: list[tuple[str, int]] = []
        self._collect(node, key, found)
        found.sort(key=lambda pair: (-pair[1], pair[0]))
        return [Completion(text, weight)
                for text, weight in found[:count]]

    def _collect(self, node: _TrieNode, prefix: str, out: list) -> None:
        if node.weight > 0:
            # Read the live weight (adds may have bumped it).
            out.append((prefix, self._entries[prefix]))
        for char, child in node.children.items():
            self._collect(child, prefix + char, out)

    def __len__(self) -> int:
        return len(self._entries)
